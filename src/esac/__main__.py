"""``python -m esac``: the command line of :mod:`esac.cli`."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
