"""Hypothesis profiles selectable with ``--hypothesis-profile``.

``tier1`` (the default): derandomized, with no example database, so every
run of the suite draws the same examples and a statistical property either
holds on them or fails every time — never one run in twelve.

``explore``: the same example budgets, drawn afresh on each run (the
hypothesis defaults).  The CI ``robustness`` job runs the whole suite under
it to keep looking for new counterexamples.

``hier-deep``: ten times the tier-1 example budget of the randomized
hierarchical-vs-flat differential suite (``tests/test_hier_golden.py`` scales
its budgets by the active profile), exploring.  The CI ``robustness`` job runs
that file under it; nothing else should, since the profile raises the default
budget of every property test that does not set its own.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False)
settings.register_profile("hier-deep", derandomize=False, max_examples=1000)


def pytest_configure(config):
    if not config.getoption("--hypothesis-profile", None):
        settings.load_profile("tier1")
