"""Test-session settings: no bytecode is written for the package under src/ or for the test modules.

A src/kakeya/__pycache__ left behind by a test run changes how the next
process imports the package, and with it the benchmark's peak RSS; the
tests that start subprocesses set PYTHONDONTWRITEBYTECODE for the same
reason.
"""

import sys

sys.dont_write_bytecode = True
