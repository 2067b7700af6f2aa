"""The build paths run with the cyclic collector paused — safely.

Two contracts of :func:`repro.runtime.gc_paused`:

* **it leaves the collector as it found it** on every exit path — a build
  that raises, a caller that already runs with the collector off, a child
  build inside its parent's;
* **nothing it defers is garbage**: a sign-off (cold, incremental, warm
  from disk) and the flat engines leave no reference cycle behind, so with
  the collector off for a whole run the heap still only holds live data.
"""

import collections
import gc

import pytest

from repro.analysis import HierAnalyzer, hier
from repro.diagnostics import BudgetExceeded
from repro.drc import DrcChecker
from repro.extract.extractor import Extractor
from repro.runtime import gc_paused
from repro.store import DiskStore, MemoryStore, StoreCorruption, TieredStore
from repro.technology import nmos_technology

from test_store_warmstart import _truncate_blob
from tile_array import TileArray


@pytest.fixture(scope="module")
def technology():
    return nmos_technology()


@pytest.fixture(params=(True, False), ids=("collector on", "collector off"))
def collector(request):
    """Run the test with the collector in each state; restore it after."""
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was_enabled else gc.disable)()


class InjectedFault(Exception):
    pass


def _explode(*args, **kwargs):
    raise InjectedFault("injected build failure")


class TestPauseRestoresTheCollector:
    def test_inside_off_after_as_before(self, collector):
        with gc_paused():
            assert not gc.isenabled()
        assert gc.isenabled() == collector

    def test_exception_restores(self, collector):
        with pytest.raises(InjectedFault):
            with gc_paused():
                _explode()
        assert gc.isenabled() == collector

    def test_nested_exit_does_not_re_enable_early(self, collector):
        with gc_paused():
            with gc_paused():
                pass
            assert not gc.isenabled()
            with pytest.raises(InjectedFault):
                with gc_paused():
                    _explode()
            assert not gc.isenabled()
        assert gc.isenabled() == collector

    def test_every_build_runs_paused_and_children_keep_it_so(
            self, technology, collector):
        """A parent's artifact is stored after its children's builds have
        exited their own pause: the collector must still be off then."""
        seen = []

        class RecordingStore(MemoryStore):
            def put(self, key, value, size=None):
                kind, _scheme, _orientation, digest = key.split(":")[:4]
                seen.append((kind, digest, gc.isenabled()))
                super().put(key, value, size)

        array = TileArray(technology, "rt_nested")
        array.sign_off(HierAnalyzer(technology, store=RecordingStore()))
        assert {kind for kind, _, _ in seen} == set(hier._KINDS)
        assert len({digest for _, digest, _ in seen}) > 1  # children and top
        assert not any(enabled for _, _, enabled in seen)
        assert gc.isenabled() == collector

    def test_budget_exceeded_in_a_build_restores(self, technology, collector,
                                                 monkeypatch):
        def over_budget(self, circuit):
            raise BudgetExceeded("injected: timing budget exhausted")

        monkeypatch.setattr(hier.SwitchTimingAnalyzer, "analyze", over_budget)
        array = TileArray(technology, "rt_budget")
        with pytest.raises(BudgetExceeded):
            HierAnalyzer(technology).timing(array.top)
        assert gc.isenabled() == collector

    def test_strict_fatal_fallbacks_restore(self, technology, collector,
                                            monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_STRICT", "1")
        array = TileArray(technology, "rt_strict")
        # A damaged child artifact read inside the parent's build (STO001).
        store_dir = str(tmp_path / "store")

        def analyzer():
            return HierAnalyzer(technology, store=TieredStore(
                MemoryStore(), DiskStore(store_dir)))

        first = analyzer()
        first.drc(array.top)
        _truncate_blob(first, "drc", array.top.instances[-1].cell, store_dir)
        array.edit()
        with pytest.raises(StoreCorruption):
            analyzer().drc(array.top)
        assert gc.isenabled() == collector
        # A sabotaged spatial index of a flat engine.
        monkeypatch.setattr(DrcChecker, "index", staticmethod(_explode))
        with pytest.raises(InjectedFault):
            DrcChecker(technology).check(array.top)
        assert gc.isenabled() == collector


def test_a_run_with_the_collector_off_leaves_no_garbage(technology, tmp_path):
    """Cold, incremental and disk-warm sign-offs plus the flat engines, all
    with the collector disabled: a full collection afterwards finds nothing
    of ours to free.  (Two cycles used to: a collapsed view's own source
    pointing back at its view, and ``Cell.descendants``' recursive closure.)
    """
    array = TileArray(technology, "rt_garbage")

    def analyzer():
        return HierAnalyzer(technology, store=TieredStore(
            MemoryStore(), DiskStore(str(tmp_path / "store"))))

    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        live = analyzer()
        cold = array.sign_off(live)
        for _ in range(3):              # evicts three generations of views
            array.edit()
            incremental = array.sign_off(live)
        assert incremental != cold
        assert array.sign_off(analyzer()) == incremental
        DrcChecker(technology).check(array.top)
        Extractor(technology).extract(array.top)
        del live, cold, incremental
        gc.collect()
        ours = collections.Counter(
            f"{module}.{getattr(item, '__qualname__', type(item).__qualname__)}"
            for item in gc.garbage
            for module in [getattr(item, "__module__", None)
                           or type(item).__module__]
            if module.startswith("repro"))
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        (gc.enable if was_enabled else gc.disable)()
    assert not ours
