"""Content-addressed artifact store: hashes, stores, analyzer rekeying.

Six layers:

* **config** — the centralized environment-knob parsing in
  :mod:`repro.config` (validation, defaults, errors);
* **hashing properties** (hypothesis) — cell digests are invariant under
  renames and object identity but change on any geometry / label / port /
  child / technology / orientation edit;
* **stores** — the LRU byte budget, the durable disk round-trip, atomic
  envelopes, corruption and format-mismatch recovery (``STO001`` /
  ``STO002``, fatal under ``REPRO_STRICT=1``), ``gc`` and ``stats``;
* **weights** — the memory tier charges an artifact what it says it weighs
  (within 2x of its pickled size) and serialises next to nothing; every
  store's ``put`` returns the bytes it accounted and the trace carries them;
* **pickling** — what the disk tier serialises (value types, cells with
  their weak parent links, hier artifacts sharing one view) survives the
  round trip;
* **analyzer integration** — independently built identical cells share
  artifacts, repeated mutation retains one artifact generation (not N),
  and the compiled-netlist cache dedupes structurally identical modules.
"""

import logging
import os
import pickle
import pickletools
import sys
import types

import pytest
from hypothesis import given, settings, strategies as st

from repro import config
from repro.analysis import HierAnalyzer, hier
from repro.diagnostics import DiagnosticError
from repro.generators import PlaGenerator
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.geometry.transform import Orientation, Transform
from repro.layout.cell import Cell
from repro.layout.shapes import Label, Shape
from repro.logic import TruthTable, parse_expr
from repro.obs import trace
from repro.store import artifact as artifact_module
from repro.store import (
    DiskStore,
    MemoryStore,
    StoreCorruption,
    TieredStore,
    cell_digest,
    content_hash,
    default_store,
    netlist_hash,
    technology_hash,
)
from repro.technology import nmos_technology

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "examples"))
from chip_assembly import build_chip  # noqa: E402

from test_pnr import signed_off_chips  # noqa: E402,F401  (fixture)
from tile_array import TileArray  # noqa: E402


@pytest.fixture(scope="module")
def technology():
    return nmos_technology()


# -- repro.config -------------------------------------------------------------


class TestConfig:
    def test_strict_mode(self, monkeypatch):
        monkeypatch.delenv("REPRO_STRICT", raising=False)
        assert not config.strict_mode()
        monkeypatch.setenv("REPRO_STRICT", "0")
        assert not config.strict_mode()
        monkeypatch.setenv("REPRO_STRICT", "1")
        assert config.strict_mode()

    def test_store_dir(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        assert config.store_dir() is None
        monkeypatch.setenv("REPRO_STORE", "")
        assert config.store_dir() is None
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "store"))
        assert config.store_dir() == str(tmp_path / "store")

    def test_store_dir_rejects_files(self, monkeypatch, tmp_path):
        clash = tmp_path / "not_a_dir"
        clash.write_text("occupied")
        monkeypatch.setenv("REPRO_STORE", str(clash))
        with pytest.raises(ValueError):
            config.store_dir()

    def test_default_store_follows_environment(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        assert isinstance(default_store(), MemoryStore)
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "store"))
        store = default_store()
        assert isinstance(store, TieredStore)
        assert store.disk.root == str(tmp_path / "store")


# -- hashing properties -------------------------------------------------------

coords = st.integers(min_value=-500, max_value=500)
sizes = st.integers(min_value=1, max_value=60)
layers = st.sampled_from(["metal", "poly", "diffusion"])
boxes = st.lists(st.tuples(layers, coords, coords, sizes, sizes),
                 min_size=1, max_size=8)


def build_cell(name, spec, label=None, port=None, child_spec=None,
               child_at=(0, 0), child_name="leaf"):
    """Deterministically build a cell from primitive tuples."""
    cell = Cell(name)
    for layer, x, y, w, h in spec:
        cell.add_box(layer, x, y, x + w, y + h)
    if label is not None:
        cell.add_label(label, Point(0, 0), "metal")
    if port is not None:
        cell.add_port(port, Point(1, 1), "metal", "input")
    if child_spec is not None:
        child = build_cell(child_name, child_spec)
        cell.place(child, *child_at)
    return cell


class TestHashProperties:
    @settings(max_examples=40, deadline=None)
    @given(boxes)
    def test_rename_and_identity_invariance(self, spec):
        # Two independently built cells with different names but identical
        # content collide on one digest; renaming changes nothing.
        first = build_cell("alpha", spec, child_spec=spec[:2])
        second = build_cell("omega", spec, child_spec=spec[:2],
                            child_name="other_leaf")
        assert cell_digest(first) == cell_digest(second)

    @settings(max_examples=40, deadline=None)
    @given(boxes, layers, coords, coords)
    def test_geometry_edit_changes_digest(self, spec, layer, x, y):
        cell = build_cell("edited", spec)
        before = cell_digest(cell)
        cell.add_box(layer, x, y, x + 1, y + 1)
        assert cell_digest(cell) != before

    @settings(max_examples=40, deadline=None)
    @given(boxes)
    def test_label_port_child_edits_change_digest(self, spec):
        plain = cell_digest(build_cell("c", spec))
        assert cell_digest(build_cell("c", spec, label="tag")) != plain
        assert cell_digest(build_cell("c", spec, port="a")) != plain
        assert cell_digest(build_cell("c", spec, child_spec=spec)) != plain

    @settings(max_examples=40, deadline=None)
    @given(boxes)
    def test_child_placement_and_mutation_propagate(self, spec):
        at_origin = build_cell("p", spec, child_spec=spec)
        moved = build_cell("p", spec, child_spec=spec, child_at=(40, 0))
        assert cell_digest(at_origin) != cell_digest(moved)
        before = cell_digest(at_origin)
        at_origin.instances[0].cell.add_box("metal", 900, 900, 903, 903)
        assert cell_digest(at_origin) != before

    @settings(max_examples=20, deadline=None)
    @given(boxes)
    def test_orientation_changes_content_hash(self, spec):
        technology = nmos_technology()
        cell = build_cell("c", spec)
        hashes = {content_hash(cell, orientation, technology)
                  for orientation in Orientation}
        # R0 and R90 must never collide; distinct orientations of an
        # asymmetric cell generally all differ.
        assert len(hashes) > 1

    def test_technology_participates(self, technology):
        cell = build_cell("c", [("metal", 0, 0, 4, 4)])
        base = content_hash(cell, Orientation.R0, technology)
        other = nmos_technology()
        other.properties = dict(other.properties)
        other.properties["poly_sheet_res"] = 123.0
        assert content_hash(cell, Orientation.R0, other) != base
        assert technology_hash(other) != technology_hash(technology)

    def test_netlist_hash_is_name_sensitive_and_structural(self):
        from repro.netlist.module import GateType, Module

        def build(net="n1", gate="g1"):
            module = Module("m")
            module.add_net("a", is_input=True)
            module.add_net(net, is_output=True)
            module.add_gate(GateType.NOT, net, ["a"], name=gate)
            return module

        assert netlist_hash(build()) == netlist_hash(build())
        assert netlist_hash(build(net="n2")) != netlist_hash(build())
        assert netlist_hash(build(gate="g2")) != netlist_hash(build())


# -- memory store -------------------------------------------------------------


class TestMemoryStore:
    def test_lru_byte_budget_evicts_oldest(self):
        store = MemoryStore(budget_bytes=1)
        store.put("a", "x" * 100, size=40)
        store.put("b", "y" * 100, size=40)
        # The budget is overrun, but the entry just inserted survives.
        assert store.get("b") is not None
        assert store.get("a") is None
        assert store.stats()["evictions"] >= 1

    def test_lru_order_follows_use(self):
        store = MemoryStore(budget_bytes=100)
        store.put("a", "A", size=40)
        store.put("b", "B", size=40)
        assert store.get("a") == "A"          # refresh a
        store.put("c", "C", size=40)          # must evict b, not a
        assert store.get("a") == "A"
        assert store.get("b") is None
        assert store.get("c") == "C"

    def test_unbudgeted_store_never_measures_or_evicts(self):
        store = MemoryStore(budget_bytes=None)
        unpicklable = lambda: None            # noqa: E731
        store.put("f", unpicklable)
        assert store.get("f") is unpicklable
        assert store.stats()["evictions"] == 0

    def test_gc_keeps_only_listed_keys(self):
        store = MemoryStore()
        for key in "abc":
            store.put(key, key.upper())
        assert store.gc(keep=["b"]) == 2
        assert store.get("b") == "B"
        assert store.get("a") is None


# -- disk store ---------------------------------------------------------------


def fill(disk, items):
    for key, value in items.items():
        disk.put(key, value)


class TestDiskStore:
    def test_round_trip_across_instances(self, tmp_path):
        writer = DiskStore(str(tmp_path))
        fill(writer, {"k1": {"payload": [1, 2, 3]}, "k2": ("t", 4)})
        reader = DiskStore(str(tmp_path))
        assert reader.get("k1") == {"payload": [1, 2, 3]}
        assert reader.get("k2") == ("t", 4)
        assert reader.get("missing") is None
        stats = reader.stats()
        assert stats["hits"] == 2 and stats["misses"] == 1
        assert stats["entries"] == 2 and stats["bytes"] > 0

    def test_occupancy_is_walked_again_only_after_gc(self, tmp_path):
        """``entries`` / ``bytes`` come from this object's last directory
        walk, kept current by its own writes and removals: a second store's
        writes and removals on the same directory show up only once this
        one collects."""
        mine, other = DiskStore(str(tmp_path)), DiskStore(str(tmp_path))
        fill(mine, {"k1": 1})
        assert mine.stats()["entries"] == 1
        fill(other, {"k2": 2, "k3": 3})
        assert other.stats()["entries"] == 3
        assert mine.stats()["entries"] == 1          # stale: not walked again
        assert mine.get("k2") == 2                   # reads do not walk
        assert mine.stats()["entries"] == 1
        fill(mine, {"k4": 4})
        assert mine.stats()["entries"] == 2          # its own write, counted
        assert other.evict("k1") and other.stats()["entries"] == 2
        assert mine.stats()["entries"] == 2
        assert mine.evict("k2")
        assert (mine.stats()["entries"], other.stats()["entries"]) == (1, 2)
        assert mine.gc(keep=["k3", "k4"]) == 0       # nothing else is left
        assert mine.stats()["entries"] == 2          # collected: walked
        assert mine.stats()["bytes"] == sum(
            os.path.getsize(os.path.join(root, name))
            for root, _dirs, names in os.walk(tmp_path) for name in names)

    def test_kept_occupancy_equals_a_fresh_walk(self, tmp_path, monkeypatch):
        """After new puts, an overwrite, an evict, a discarded corrupt blob
        and a gc, ``entries`` / ``bytes`` are what a fresh store walks."""
        monkeypatch.delenv("REPRO_STRICT", raising=False)
        disk = DiskStore(str(tmp_path))

        def assert_current():
            kept = disk.stats()
            walked = DiskStore(str(tmp_path)).stats()
            assert (kept["entries"], kept["bytes"]) == (
                walked["entries"], walked["bytes"])

        assert_current()                             # the first walk: empty
        fill(disk, {f"k{i}": list(range(i)) for i in range(6)})
        assert_current()
        disk.put("k1", list(range(500)))             # overwrite, grown
        disk.put("k2", [])                           # overwrite, shrunk
        assert_current()
        assert disk.evict("k3") and not disk.evict("k3")
        assert_current()
        with open(disk._path("k4"), "r+b") as handle:  # same size, bad sum
            handle.seek(-1, os.SEEK_END)
            handle.write(b"\x00")
        assert disk.get("k4") is None                # discarded as corrupt
        assert disk.stats()["corrupt"] == 1
        assert_current()
        assert disk.gc(keep=["k0", "k1"]) == 2
        assert_current()
        assert disk.stats()["entries"] == 2

    def test_a_put_then_stats_scans_no_directory(self, tmp_path, monkeypatch):
        disk = DiskStore(str(tmp_path))
        fill(disk, {"k1": 1})
        before = disk.stats()

        def no_scan(*_args):
            raise AssertionError("stats() scanned a directory")

        monkeypatch.setattr(os, "scandir", no_scan)
        monkeypatch.setattr(os, "listdir", no_scan)
        fill(disk, {"k1": [1, 2, 3], "k2": 2})
        after = disk.stats()
        assert after["entries"] == before["entries"] + 1
        assert after["bytes"] > before["bytes"]

    def test_no_temp_files_left_behind(self, tmp_path):
        disk = DiskStore(str(tmp_path))
        fill(disk, {f"k{i}": i for i in range(5)})
        leftovers = [name for _root, _dirs, names in os.walk(tmp_path)
                     for name in names if not name.endswith(".blob")]
        assert leftovers == []

    def test_truncated_blob_recovers_as_miss(self, tmp_path, caplog, monkeypatch):
        monkeypatch.delenv("REPRO_STRICT", raising=False)
        disk = DiskStore(str(tmp_path))
        disk.put("victim", list(range(100)))
        path = disk._path("victim")
        with open(path, "rb") as handle:
            blob = handle.read()
        with open(path, "wb") as handle:
            handle.write(blob[:len(blob) // 2])
        with caplog.at_level(logging.WARNING, logger="repro"):
            assert disk.get("victim") is None
        assert any("STO001" in record.message for record in caplog.records)
        assert disk.stats()["corrupt"] == 1
        # The bad blob was quarantined: the next read is a clean miss.
        assert not os.path.exists(path)

    def test_checksum_mismatch_recovers_as_miss(self, tmp_path, caplog, monkeypatch):
        monkeypatch.delenv("REPRO_STRICT", raising=False)
        disk = DiskStore(str(tmp_path))
        disk.put("victim", b"A" * 64)
        path = disk._path("victim")
        with open(path, "r+b") as handle:
            handle.seek(-1, os.SEEK_END)
            handle.write(b"\x00")
        with caplog.at_level(logging.WARNING, logger="repro"):
            assert disk.get("victim") is None
        assert any("checksum" in record.message for record in caplog.records)

    def test_format_mismatch_is_sto002(self, tmp_path, caplog, monkeypatch):
        monkeypatch.delenv("REPRO_STRICT", raising=False)
        from repro.store.artifact import STORE_FORMAT

        disk = DiskStore(str(tmp_path))
        disk.put("victim", 7)
        path = disk._path("victim")
        with open(path, "rb") as handle:
            blob = handle.read()
        future = blob.replace(b'"format": %d' % STORE_FORMAT,
                              b'"format": %d' % (STORE_FORMAT + 1))
        assert future != blob
        with open(path, "wb") as handle:
            handle.write(future)
        with caplog.at_level(logging.WARNING, logger="repro"):
            assert disk.get("victim") is None
        assert any("STO002" in record.message for record in caplog.records)

    def test_corruption_is_fatal_under_strict(self, tmp_path, monkeypatch):
        disk = DiskStore(str(tmp_path))
        disk.put("victim", "value")
        path = disk._path("victim")
        with open(path, "wb") as handle:
            handle.write(b"garbage")
        monkeypatch.setenv("REPRO_STRICT", "1")
        with pytest.raises(StoreCorruption):
            disk.get("victim")
        with pytest.raises(DiagnosticError):
            DiskStore(str(tmp_path)).get("victim")

    def test_gc_drops_unlisted_blobs(self, tmp_path):
        disk = DiskStore(str(tmp_path))
        fill(disk, {f"k{i}": i for i in range(4)})
        assert disk.gc(keep=["k0", "k2"]) == 2
        assert sorted(disk.keys()) == sorted(
            [k for k in ("k0", "k2")])
        assert disk.get("k1") is None
        assert disk.get("k0") == 0


class TestTieredStore:
    def test_disk_hit_promotes_and_returns_same_object(self, tmp_path):
        populate = TieredStore(MemoryStore(), DiskStore(str(tmp_path)))
        populate.put("k", {"deep": [1, 2]})
        fresh = TieredStore(MemoryStore(), DiskStore(str(tmp_path)))
        first = fresh.get("k")
        assert first == {"deep": [1, 2]}
        # Promotion: within one process the same object comes back.
        assert fresh.get("k") is first
        assert fresh.memory.stats()["hits"] == 1

    def test_evict_touches_memory_only(self, tmp_path):
        store = TieredStore(MemoryStore(), DiskStore(str(tmp_path)))
        store.put("k", "v")
        assert store.evict("k")
        assert store.get("k") == "v"          # reloaded from disk


# -- weights ------------------------------------------------------------------


class RecordingStore(MemoryStore):
    """A memory store that remembers ``(key, value, bytes accounted)``."""

    def __init__(self):
        super().__init__()
        self.log = []

    def put(self, key, value, size=None):
        accounted = super().put(key, value, size)
        self.log.append((key, value, accounted))
        return accounted


class Weighed:
    """Says what it weighs and cannot be pickled (it holds a lambda)."""

    def __init__(self):
        self.hook = lambda: None

    def weight(self):
        return 4096


class TestWeights:
    def test_memory_sign_off_weighs_and_does_not_serialise(
            self, technology, signed_off_chips, monkeypatch):
        pickled = []

        def counting_dumps(value, protocol=None):
            payload = pickle.dumps(value, protocol=protocol)
            pickled.append(len(payload))
            return payload

        monkeypatch.setattr(artifact_module, "pickle", types.SimpleNamespace(
            dumps=counting_dumps, HIGHEST_PROTOCOL=pickle.HIGHEST_PROTOCOL))
        store = RecordingStore()
        analyzer = HierAnalyzer(technology, store=store)
        for assembler, _report in signed_off_chips.values():
            assembler.sign_off(analyzer)
        TileArray(technology, "weighed_tiles").sign_off(analyzer)

        # Only values with no weight() were pickled, and they are tiny.
        total = store.stats()["bytes"]
        assert total == sum(accounted for _, _, accounted in store.log)
        assert 0 < sum(pickled) < 0.01 * total
        assert len(pickled) < len(store.log) / 2
        # Every put that matters to a budget is within 2x of its pickle, and
        # so is every circuit: its columns keep it under the heavy cut here,
        # but a large chip's circuit is one of its heaviest blobs.
        heavy = set()
        circuits = 0
        for key, value, accounted in store.log:
            size = len(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
            kind = key.split(":")[0]
            if size >= 64 * 1024:
                heavy.add(kind)
            if size >= 64 * 1024 or kind == "circuit":
                assert 0.5 <= accounted / size <= 2, (key, accounted, size)
            circuits += kind == "circuit"
        assert heavy == {"view", "drc", "extract"}
        assert circuits > len(signed_off_chips)

    def test_unpicklable_value_keeps_its_stated_weight(self, tmp_path):
        store = TieredStore(MemoryStore(), DiskStore(str(tmp_path)))
        value = Weighed()
        assert store.put("w", value) == 4096
        assert store.put("f", value.hook) == 0    # no weight: invisible
        assert store.memory.stats()["bytes"] == 4096
        assert store.get("w") is value
        assert store.disk.stats()["entries"] == 0

    def test_put_returns_the_bytes_it_accounted(self, tmp_path):
        value = {"deep": list(range(50))}
        payload = len(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
        assert MemoryStore().put("k", value) == payload    # no weight()
        assert MemoryStore().put("k", value, size=7) == 7
        assert MemoryStore().put("k", Weighed()) == 4096
        assert MemoryStore(budget_bytes=None).put("k", value) == 0
        assert DiskStore(str(tmp_path / "d")).put("k", value) == payload
        tiered = TieredStore(MemoryStore(), DiskStore(str(tmp_path / "t")))
        assert tiered.put("k", value) == payload
        assert tiered.memory.stats()["bytes"] == payload

    @pytest.mark.parametrize("tiered", [False, True])
    def test_trace_says_which_put_was_heavy(self, technology, tmp_path,
                                            tiered):
        memory = MemoryStore()
        store = (TieredStore(memory, DiskStore(str(tmp_path))) if tiered
                 else memory)
        tiles = TileArray(technology, "traced_tiles")
        trace.enable()
        try:
            tiles.sign_off(HierAnalyzer(technology, store=store))
            puts = [event["args"] for event in trace.drain()
                    if event["name"] == "store.put"]
        finally:
            trace.disable()
            trace.reset()
        assert len(puts) == memory.stats()["puts"]
        assert sum(args["bytes"] for args in puts) == memory.stats()["bytes"]
        heaviest = max(puts, key=lambda args: args["bytes"])
        # The composed blobs hold each tile's lists once, by reference, so
        # the top's circuit (a device and a node per tile element) can
        # outweigh them.
        assert heaviest["kind"] in ("view", "drc", "extract", "circuit")
        assert heaviest["cell"] == "traced_tiles"


def sign_off_bare_cell(analyzer, cell):
    """The five passes of a sign-off, for a cell that has no assembler."""
    return (analyzer.drc(cell), analyzer.extract(cell),
            analyzer.measure(cell), analyzer.timing(cell), analyzer.erc(cell))


def stored(analyzer, kind, cell):
    """What the analyzer's store holds for one kind of ``cell`` (no build)."""
    return analyzer.store.get(analyzer._key(kind, cell, Orientation.R0))


def signed_off_pla(technology):
    table = TruthTable.from_expressions(
        {"q": parse_expr("a & b | c")}, input_names=["a", "b", "c"])
    cell = PlaGenerator(technology, table, name="pkl_pla").cell()
    analyzer = HierAnalyzer(technology)
    sign_off_bare_cell(analyzer, cell)
    return analyzer, cell


# -- pickling -----------------------------------------------------------------


class TestPickling:
    def test_value_types_round_trip(self):
        for obj in (
            Point(3, -4),
            Rect(-1, 0, 5, 7),
            Transform(Orientation.R90, Point(2, 1)),
            Shape("metal", Rect(0, 0, 3, 3)),
            Label("vdd", Point(1, 1), "metal"),
        ):
            assert pickle.loads(pickle.dumps(obj)) == obj

    def test_cell_round_trip_rebuilds_parent_links(self):
        leaf = Cell("pkl_leaf")
        leaf.add_box("metal", 0, 0, 6, 4)
        top = Cell("pkl_top")
        top.place(leaf, 0, 0)
        top.place(leaf, 10, 0, Orientation.R90)
        top.add_port("a", Point(0, 0), "metal")

        copy = pickle.loads(pickle.dumps(top))
        assert copy.name == top.name
        assert len(copy.instances) == len(top.instances)
        assert copy.ports.keys() == top.ports.keys()
        assert [s.layer for s in copy.instances[0].cell.shapes] == ["metal"]
        # The weak parent links are rebuilt: mutating the loaded leaf must
        # invalidate the loaded top's caches.
        version = copy.subtree_version
        copy.instances[0].cell.add_box("poly", 0, 0, 2, 2)
        assert copy.subtree_version == version + 1

    def test_hier_artifacts_round_trip(self, technology):
        analyzer, cell = signed_off_pla(technology)
        bundle = {kind: stored(analyzer, kind, cell) for kind in hier._KINDS}
        assert len(bundle) == 9
        assert all(value is not None for value in bundle.values())
        # The public passes return what the store holds under the result
        # kinds (``drc`` a fresh list of it)...
        assert analyzer.drc(cell) == list(bundle["violations"])
        assert analyzer.extract(cell) is bundle["circuit"]
        assert analyzer.timing(cell) is bundle["timing"]
        assert analyzer.erc(cell) is bundle["erc"]
        # ...and all of it survives the round trip.
        copy = pickle.loads(pickle.dumps(bundle))
        assert copy["violations"] == bundle["violations"]
        assert copy["timing"] == bundle["timing"]
        assert copy["erc"] == bundle["erc"]
        assert copy["extent"] == bundle["extent"]
        assert copy["circuit"].node_names == bundle["circuit"].node_names
        assert copy["circuit"].parasitics == bundle["circuit"].parasitics
        # The three composable artifacts pickle their rect lists as columns:
        # equal lists come back, and no payload spends a reduce per Rect.
        view, merge, extract = (bundle["view"], bundle["drc"].merges["metal"],
                                bundle["extract"])
        assert copy["view"].rects == view.rects and view.layer("metal")
        loaded = copy["drc"].merges["metal"]
        assert (loaded.inputs, loaded.merged) == (merge.inputs, merge.merged)
        assert merge.inputs and merge.merged
        for slot in ("diffusion", "channels", "pieces"):
            assert getattr(copy["extract"], slot) == getattr(extract, slot)
            assert getattr(extract, slot)
        # (Counted against rects that are certainly distinct objects; the
        # list-of-Rect form built at least one object per such rect.)
        for artifact, distinct_rects in (
                (view, sum(map(len, view.rects.values()))),
                (merge, len(merge.inputs)),
                (extract, len(extract.diffusion) + len(extract.channels))):
            built = sum(1 for opcode, _, _ in pickletools.genops(
                pickle.dumps(artifact, pickle.HIGHEST_PROTOCOL))
                if opcode.name == "NEWOBJ")
            assert built < distinct_rects, type(artifact).__name__

    def test_one_view_one_pickle(self, technology):
        """A view is serialised under its own key and nowhere else: the
        composable artifacts and the results carry no ``_View``."""
        analyzer, cell = signed_off_pla(technology)
        for kind in set(hier._KINDS) - {"view"}:
            value = stored(analyzer, kind, cell)
            assert not hasattr(value, "view"), kind
            assert b"_View" not in pickle.dumps(value), kind
        view = stored(analyzer, "view", cell)
        assert b"_View" in pickle.dumps(view)

    def test_sign_off_finishes_each_circuit_once(self, technology, tmp_path,
                                                 monkeypatch):
        """Count, do not time: a cold sign-off names the nodes of each
        (cell, orientation) it times exactly once; a sign-off by a fresh
        analyzer over the populated disk store finishes nothing, puts
        nothing, and reads only the top cell's results."""
        finished = []
        category, named, finish = hier._KINDS["circuit"]

        def counting(analyzer, cell, orientation, span):
            finished.append((cell.name, cell_digest(cell), orientation))
            return finish(analyzer, cell, orientation, span)

        monkeypatch.setitem(hier._KINDS, "circuit", (category, named, counting))
        assembler, _chip = build_chip("store_once_4b", 4, 0)
        store_dir = str(tmp_path / "store")
        cold = HierAnalyzer(technology, store=TieredStore(
            MemoryStore(), DiskStore(store_dir)))
        report = assembler.sign_off(cold)
        assert len(finished) == len(set(finished)) > 1
        assert (len(finished) == cold.stats["circuit_artifacts"]
                == cold.stats["timing_artifacts"]
                == cold.stats["erc_artifacts"])

        del finished[:]
        read = []
        get_sized = DiskStore.get_sized
        monkeypatch.setattr(
            DiskStore, "get_sized",
            lambda self, key: read.append(key) or get_sized(self, key))
        warm = HierAnalyzer(technology, store=TieredStore(
            MemoryStore(), DiskStore(store_dir)))
        again = assembler.sign_off(warm)
        assert not finished
        assert again.store["puts"] == 0 and again.store["misses"] == 0
        assert {key.split(":")[0] for key in read} == {
            "violations", "circuit", "extent", "areas", "timing", "erc"}
        assert again.violations == report.violations
        assert again.metrics == report.metrics
        assert again.circuit.node_names == report.circuit.node_names
        assert again.max_frequency_mhz == report.max_frequency_mhz
        assert again.erc == report.erc


# -- analyzer integration -----------------------------------------------------


def two_box_cell(name):
    cell = Cell(name)
    cell.add_box("metal", 0, 0, 9, 3)
    cell.add_box("metal", 0, 10, 9, 13)
    return cell


class TestAnalyzerRekeying:
    def test_identical_cells_share_artifacts(self, technology):
        analyzer = HierAnalyzer(technology)
        first = two_box_cell("indep_a")
        second = two_box_cell("indep_b")
        viols = analyzer.drc(first)
        built = analyzer.stats["drc_artifacts"]
        assert analyzer.drc(second) == viols
        # The second, independently built cell was served from the store —
        # by the name-free ``violations`` result, the first blob ``drc()``
        # reads, so its composable artifact was not even looked up.
        assert analyzer.stats["drc_artifacts"] == built
        assert analyzer.stats["violations_artifacts"] == 1
        assert analyzer.stats["violations_hits"] == 1
        assert analyzer.stats["drc_hits"] == 0

    def test_mutation_does_not_retain_generations(self, technology):
        analyzer = HierAnalyzer(technology)
        cell = two_box_cell("mutant")
        analyzer.drc(cell)
        baseline = analyzer.store.stats()["entries"]
        for step in range(12):
            cell.add_box("metal", 20 + 30 * step, 0, 24 + 30 * step, 3)
            analyzer.drc(cell)
        # Each edit evicts the previous generation's keys: the store holds
        # one generation, not one per edit.
        assert analyzer.store.stats()["entries"] <= baseline + 2

    def test_rename_preserves_geometric_artifacts(self, technology):
        analyzer = HierAnalyzer(technology)
        cell = two_box_cell("before_rename")
        analyzer.drc(cell)
        built = analyzer.stats["drc_artifacts"]
        cell.name = "after_rename"
        analyzer.drc(cell)
        assert analyzer.stats["drc_artifacts"] == built

    def test_erc_and_timing_keys_are_name_sensitive(self, technology):
        analyzer = HierAnalyzer(technology)
        first = two_box_cell("named_a")
        second = two_box_cell("named_b")
        assert analyzer.timing(first).name == "named_a"
        assert analyzer.timing(second).name == "named_b"
        assert analyzer.erc(first).name == "named_a"
        assert analyzer.erc(second).name == "named_b"

    @pytest.mark.parametrize("order", ("shared_first", "copies_first"))
    def test_metrics_are_not_cached_by_digest(self, technology, tmp_path,
                                              order):
        """One child object placed twice and two identical copies placed
        once each are the same *content* — one digest, one set of cached
        results — but not the same *hierarchy*: ``measure`` must keep
        telling them apart, whichever was analysed (and stored) first."""
        from repro.metrics import measure_cell

        def parent(children):
            top = Cell("pair")
            for column, child in enumerate(children):
                top.place(child, 30 * column, 0)
            return top

        child = two_box_cell("pair_child")
        shared = parent([child, child])
        copies = parent([two_box_cell("pair_child"), two_box_cell("pair_child")])
        assert cell_digest(shared) == cell_digest(copies)
        expected = {id(cell): measure_cell(cell, technology)
                    for cell in (shared, copies)}
        assert (expected[id(shared)].distinct_cells + 1
                == expected[id(copies)].distinct_cells)
        assert expected[id(shared)].regularity != expected[id(copies)].regularity

        cells = [shared, copies] if order == "shared_first" else [copies, shared]
        store_dir = str(tmp_path / "store")
        analyzer = HierAnalyzer(technology, store=TieredStore(
            MemoryStore(), DiskStore(store_dir)))
        for cell in cells:
            assert analyzer.measure(cell) == expected[id(cell)]
        assert analyzer.stats["extent_artifacts"] == 1
        assert analyzer.stats["extent_hits"] == 1
        # ...and through the disk tier, by an analyzer that built nothing.
        fresh = HierAnalyzer(technology, store=TieredStore(
            MemoryStore(), DiskStore(store_dir)))
        for cell in reversed(cells):
            assert fresh.measure(cell) == expected[id(cell)]
        assert fresh.stats["views"] == fresh.stats["extent_artifacts"] == 0

    @pytest.mark.parametrize("order", ((0, 1), (1, 0)))
    def test_renamed_top_shares_geometry_not_names(self, technology, order):
        """A renamed twin reuses the name-free results (``violations``, the
        view extent) and gets its own named ones (``circuit``, ``erc``,
        ``timing``), whichever of the two is signed off first."""
        cells = [two_box_cell("twin_a"), two_box_cell("twin_b")]
        analyzer = HierAnalyzer(technology)
        reports = {}
        for index in order:
            cell = cells[index]
            reports[index] = sign_off_bare_cell(analyzer, cell)
            _viols, circuit, metrics, timing, erc = reports[index]
            assert (circuit.cell_name == metrics.name == timing.name
                    == erc.name == cell.name)
        assert reports[0][0] == reports[1][0]
        for kind, builds in (("violations", 1), ("extent", 1), ("drc", 1),
                             ("extract", 1), ("circuit", 2), ("erc", 2),
                             ("timing", 2)):
            assert analyzer.stats[f"{kind}_artifacts"] == builds, kind

    def test_sign_off_surfaces_store_stats(self, technology):
        assembler, _chip = build_chip("store_stats_4b", 4, 0)
        report = assembler.sign_off()
        assert report.store is not None
        assert report.store["puts"] > 0

    def test_compile_netlist_dedupes_identical_modules(self):
        from repro.netlist.module import GateType, Module
        from repro.sim import compile_netlist

        def build():
            module = Module("dedupe")
            module.add_net("a", is_input=True)
            module.add_net("y", is_output=True)
            module.add_gate(GateType.NOT, "y", ["a"], name="g")
            return module

        first = compile_netlist(build())
        assert compile_netlist(build()) is first
        other = build()
        other.add_net("z", is_output=True)
        other.add_gate(GateType.BUF, "z", ["a"], name="g2")
        assert compile_netlist(other) is not first
