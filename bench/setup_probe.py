"""Set-up probe: import esac and build the benchmark's set-up, then say so.

``run.py`` starts this script in a fresh interpreter and times it from
process start to the ``ready`` line, which is the ``setup_s`` metric.
"""
import program

program.build(program.load_esac())
print("ready", flush=True)
