"""One hypothesis profile for every run of the suite: a fixed set of examples,
no example database, and a storage directory under which no directory can be
made (hypothesis caches best-effort), so every run draws the same inputs and
writes no ``.hypothesis/``."""

import os

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("fixed", derandomize=True, database=None)
settings.load_profile("fixed")
set_hypothesis_home_dir(os.devnull)
