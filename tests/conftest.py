"""Shared pytest set-up: one hypothesis profile for every property test.

Derandomized, with no example database and no deadline, so a run is
deterministic and does not fail on a slow machine; `max_examples` keeps
the properties to a few seconds. Hypothesis also caches constants it
finds in the source; that cache goes to a temporary directory removed at
exit, so a run writes no `.hypothesis/` directory.
"""

import os
import tempfile

from hypothesis import settings

_storage = tempfile.TemporaryDirectory(prefix="hypothesis-")
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY", _storage.name)

settings.register_profile("ascnet", derandomize=True, database=None,
                          deadline=None, max_examples=60)
settings.load_profile("ascnet")
