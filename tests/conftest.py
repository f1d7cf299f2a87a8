import sys
from pathlib import Path

from hypothesis import settings

# make tests/helpers.py importable regardless of invocation directory
sys.path.insert(0, str(Path(__file__).resolve().parent))

# oracle tests run whole reference loops per example, so no example has a deadline;
# CI runs `pytest --hypothesis-profile=ci`, whose fixed examples a failure reproduces with
settings.register_profile("default", deadline=None)
settings.register_profile("ci", deadline=None, derandomize=True)
settings.load_profile("default")
