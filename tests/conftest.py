"""Shared test configuration."""

import sys
from pathlib import Path

from hypothesis import settings

# Make `import strategies` work from any test subdirectory.
sys.path.insert(0, str(Path(__file__).parent))

# A larger example budget for CI legs that select it with
# `--hypothesis-profile=ci`; tier-1 runs the default profile.
settings.register_profile("ci", max_examples=1000, deadline=None)
