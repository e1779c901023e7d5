"""Test-suite settings.

The ``ci`` hypothesis profile replays a fixed set of examples with no
example database, so a CI gate sees the same inputs on every run; select
it with ``--hypothesis-profile=ci``.  Local runs keep the default profile.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, database=None)
