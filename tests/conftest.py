"""Hypothesis profiles selectable with ``--hypothesis-profile``.

``hier-deep``: ten times the tier-1 example budget of the randomized
hierarchical-vs-flat differential suite (``tests/test_hier_golden.py`` scales
its budgets by the active profile).  The CI ``robustness`` job runs that file
under it; nothing else should, since the profile raises the default budget of
every property test that does not set its own.
"""

from hypothesis import settings

settings.register_profile("hier-deep", max_examples=1000)
