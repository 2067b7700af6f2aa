"""Warm starts survive process restarts: the acceptance test of the store.

Process A signs off the four example designs into an empty ``REPRO_STORE``
directory; process B — a fresh interpreter with no shared memory — must
reproduce every sign-off byte-identical while rebuilding *zero*
hierarchical artifacts (views included): every lookup is a store hit.

The same runs pin determinism as one property: the same description yields
byte-identical CIF and sign-off reports across two fresh processes with no
store, with a cold store and with a warm one.

Corruption tests ride along, for both layers of the store: a truncated
*result* blob (the one a warm pass reads first) must surface an ``STO001``
diagnostic and a rebuild from the intact composable artifact; a truncated
*composable* artifact under an intact result is never opened by a warm
pass and is detected by the first edit that needs it; both are fatal under
``REPRO_STRICT=1``.  Blobs of an older key scheme miss instead of loading.
A warm-from-disk sign-off of the tile array makes no ``ErcViolation`` and
no ``NetParasitics``: its ``erc`` and ``circuit`` blobs load as columns.
"""

import json
import logging
import os
import subprocess
import sys

import pytest

from repro.analysis import HierAnalyzer, hier
from repro.store import DiskStore, MemoryStore, StoreCorruption, TieredStore
from repro.technology import nmos_technology

DRIVER = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "warmstart_driver.py")

BUILD_COUNTERS = ("views", "drc_artifacts", "extract_artifacts",
                  "violations_artifacts", "circuit_artifacts",
                  "extent_artifacts", "erc_artifacts", "timing_artifacts")

DESIGNS = ("quickstart", "fsm", "family", "pdp8")


def run_drivers(store_dirs):
    """One driver process per entry of ``store_dirs`` (``None``: no store),
    all running at once; their results, in order, once every one exits."""
    processes = []
    for store_dir in store_dirs:
        env = dict(os.environ)
        if store_dir is None:
            env.pop("REPRO_STORE", None)
        else:
            env["REPRO_STORE"] = str(store_dir)
        processes.append(subprocess.Popen(
            [sys.executable, DRIVER], env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True))
    try:
        outputs = [process.communicate(timeout=1800)
                   for process in processes]
    finally:
        for process in processes:
            if process.poll() is None:
                process.kill()
                process.wait()
    results = []
    for process, (stdout, stderr) in zip(processes, outputs):
        if process.returncode:
            raise subprocess.CalledProcessError(
                process.returncode, process.args, stdout, stderr)
        results.append(json.loads(stdout.strip().splitlines()[-1]))
    return results


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Two fresh processes per store mode; each cold run populates its own
    empty directory, which the matching warm run then reads.  A mode's two
    processes run concurrently (the directories are independent), and each
    mode starts after the one before it has exited, so cold finishes
    before warm on each directory."""
    store_dirs = [tmp_path_factory.mktemp(tag) / "store" for tag in "ab"]
    return {
        "none": run_drivers([None] * len(store_dirs)),
        "cold": run_drivers(store_dirs),
        "warm": run_drivers(store_dirs),
    }


@pytest.mark.parametrize("design", DESIGNS)
@pytest.mark.parametrize("mode", ("none", "cold", "warm"))
def test_same_description_same_bytes(runs, mode, design):
    reference = runs["none"][0]
    for run in runs[mode]:
        assert run["cif"][design] == reference["cif"][design]
        assert run["digests"][design] == reference["digests"][design]


def test_cross_process_warm_start_rebuilds_nothing(runs):
    cold, warm = runs["cold"][0], runs["warm"][0]
    assert all(cold["stats"][counter] > 0 for counter in BUILD_COUNTERS)
    assert cold["store"]["puts"] > 0

    # Byte-identical sign-off on every design...
    assert warm["digests"] == cold["digests"]
    # ...with zero rebuilds: every result the warm process needed came out
    # of the durable store.  (It needs only the top-level *results* — no
    # view, no composable artifact; the point is that nothing was
    # recomputed.)
    for counter in BUILD_COUNTERS:
        assert warm["stats"][counter] == 0, (counter, warm["stats"])
    assert warm["store"]["puts"] == 0
    assert warm["store"]["misses"] == 0
    assert warm["store"]["hits"] > 0


def _small_cell(name, poly_x):
    from repro.layout.cell import Cell

    cell = Cell(name)
    cell.add_box("metal", 0, 0, 9, 3)
    cell.add_box("metal", 0, 10, 9, 13)
    cell.add_box("poly", poly_x, 20, poly_x + 2, 32)
    cell.add_box("diffusion", 0, 24, 12, 28)     # crosses the poly: a device
    return cell


def _two_leaf_cell():
    """A parent of two different leaves: editing one leaf rebuilds the
    parent from the *other* leaf's stored composable artifact."""
    from repro.layout.cell import Cell

    kept, edited = _small_cell("smoke_kept", 2), _small_cell("smoke_edited", 6)
    top = Cell("smoke_top")
    top.place(kept, 0, 0)
    top.place(edited, 40, 0)
    return top, kept, edited


@pytest.fixture
def always_compose(monkeypatch):
    """Threshold 0: always compose, so the leaves' artifacts are really read."""
    monkeypatch.setattr(hier, "_DIRECT_THRESHOLD", 0)


def _analyzer(technology, store_dir):
    return HierAnalyzer(technology, store=TieredStore(
        MemoryStore(), DiskStore(store_dir)))


def _truncate_blob(analyzer, kind, cell, store_dir):
    from repro.geometry.transform import Orientation

    path = DiskStore(store_dir)._path(analyzer._key(kind, cell, Orientation.R0))
    assert os.path.exists(path)
    with open(path, "r+b") as handle:
        handle.truncate(20)


def _netlist(circuit):
    return (circuit.cell_name, circuit.node_names, circuit.network.transistors,
            circuit.network.inputs, circuit.network.outputs, circuit.summary(),
            circuit.parasitics)


def each_layer(test):
    """Run ``test`` for both cached passes, as one test under its own name.

    Each case is (result kind, the composable kind it is built from, public
    pass, what two results of that pass must agree on); the *result* blob is
    the one a warm analyzer reads first — and the only one it reads.
    """
    def run(tmp_path, caplog, monkeypatch, always_compose):
        for case in (("violations", "drc", HierAnalyzer.drc, list),
                     ("circuit", "extract", HierAnalyzer.extract, _netlist)):
            caplog.clear()
            monkeypatch.delenv("REPRO_STRICT", raising=False)
            test(str(tmp_path / case[0]), caplog, monkeypatch, *case)
    run.__name__ = test.__name__
    return run


@each_layer
def test_corrupted_blob_recomputes_identically(
        store_dir, caplog, monkeypatch, result, composable, run_pass, identity):
    technology = nmos_technology()
    top, _kept, _edited = _two_leaf_cell()
    first = _analyzer(technology, store_dir)
    golden = identity(run_pass(first, top))
    _truncate_blob(first, result, top, store_dir)

    second = _analyzer(technology, store_dir)
    with caplog.at_level(logging.WARNING, logger="repro"):
        recomputed = identity(run_pass(second, top))
    # The damage was detected, reported, and recomputed around — from the
    # intact composable artifact, which was read, not rebuilt.
    assert recomputed == golden
    assert any("STO001" in record.message for record in caplog.records)
    assert second.stats[f"{result}_artifacts"] == 1
    assert second.stats[f"{composable}_artifacts"] == 0
    # The quarantined blob was replaced by the recompute's fresh write.
    third = _analyzer(technology, store_dir)
    assert identity(run_pass(third, top)) == golden
    assert third.stats[f"{result}_artifacts"] == 0
    assert third.store.stats()["puts"] == 0


def test_corrupted_circuit_of_the_tile_array_is_finished_from_its_stored_partition(
        tmp_path, caplog, monkeypatch):
    """The tile array's ``circuit`` blob truncated: a fresh analyzer finishes
    the circuit again from the ``extract`` artifact it loads from disk — a
    node partition spliced from the replayed tiles, with names that several
    nodes carry — and it equals the cold circuit, parasitics included."""
    from repro.geometry.transform import Orientation

    from tile_array import TileArray

    monkeypatch.delenv("REPRO_STRICT", raising=False)
    technology = nmos_technology()
    array = TileArray(technology, "corrupt_tiles")
    store_dir = str(tmp_path / "store")
    first = _analyzer(technology, store_dir)
    golden = _netlist(first.extract(array.top))
    _truncate_blob(first, "circuit", array.top, store_dir)

    second = _analyzer(technology, store_dir)
    with caplog.at_level(logging.WARNING, logger="repro"):
        recomputed = second.extract(array.top)
    assert _netlist(recomputed) == golden
    assert any("STO001" in record.message for record in caplog.records)
    assert second.stats["circuit_artifacts"] == 1
    assert second.stats["extract_artifacts"] == 0
    nodes = second.store.get(second._key("extract", array.top,
                                         Orientation.R0)).nodes
    assert nodes.spliced > 0
    assert len(recomputed.node_names) < nodes.count


@each_layer
def test_corrupted_composable_blob_surfaces_on_the_edit_that_needs_it(
        store_dir, caplog, monkeypatch, result, composable, run_pass, identity):
    technology = nmos_technology()
    top, kept, edited = _two_leaf_cell()
    first = _analyzer(technology, store_dir)
    golden = identity(run_pass(first, top))
    _truncate_blob(first, composable, kept, store_dir)

    # A warm sign-off is served by the result blob and never opens the
    # damaged artifact beneath it.
    second = _analyzer(technology, store_dir)
    with caplog.at_level(logging.WARNING, logger="repro"):
        assert identity(run_pass(second, top)) == golden
        assert not caplog.records
        assert second.store.stats()["disk"]["hits"] == 1
        # Editing the sibling rebuilds the parent out of its children's
        # artifacts: now the damaged one is read, reported and rebuilt.
        edited.add_box("metal", 0, 40, 9, 43)
        recomputed = identity(run_pass(second, top))
    assert any("STO001" in record.message for record in caplog.records)
    assert second.store.stats()["disk"]["corrupt"] == 1
    assert recomputed == identity(run_pass(
        HierAnalyzer(technology, store=MemoryStore()), top))


@each_layer
def test_corrupted_blob_is_fatal_under_strict(
        store_dir, caplog, monkeypatch, result, composable, run_pass, identity):
    technology = nmos_technology()
    top, kept, edited = _two_leaf_cell()
    populate = _analyzer(technology, store_dir)
    run_pass(populate, top)
    _truncate_blob(populate, composable, kept, store_dir)

    monkeypatch.setenv("REPRO_STRICT", "1")
    strict = _analyzer(technology, store_dir)
    run_pass(strict, top)                   # the intact result: no damage seen
    _truncate_blob(populate, result, top, store_dir)
    with pytest.raises(StoreCorruption):
        run_pass(_analyzer(technology, store_dir), top)
    edited.add_box("metal", 0, 40, 9, 43)
    with pytest.raises(StoreCorruption):
        run_pass(strict, top)


def test_blobs_of_an_older_key_scheme_miss(tmp_path, monkeypatch, caplog,
                                           always_compose):
    """Blobs of another key-scheme generation (scheme 3: artifact classes
    pickled under ``repro.analysis.hier``, where they no longer live;
    scheme 2: rect lists pickled as lists of ``Rect``; scheme 1: artifacts
    that embed their view) are never addressed: a plain miss and a rebuild,
    no ``STO001`` / ``STO002``, even under ``REPRO_STRICT=1``."""
    monkeypatch.setenv("REPRO_STRICT", "1")
    technology = nmos_technology()
    store_dir = str(tmp_path / "store")
    top, _kept, _edited = _two_leaf_cell()
    with monkeypatch.context() as patch:
        patch.setattr(hier, "_KEY_SCHEME", hier._KEY_SCHEME - 1)
        old = _analyzer(technology, store_dir)
        golden = old.drc(top)

    new = _analyzer(technology, store_dir)
    with caplog.at_level(logging.WARNING, logger="repro"):
        assert new.drc(top) == golden
    assert not caplog.records
    assert new.store.stats()["disk"]["hits"] == 0
    assert new.stats["drc_artifacts"] == old.stats["drc_artifacts"] > 0


def test_edit_after_restart_composes_from_artifacts_loaded_from_disk(tmp_path):
    """A fresh analyzer over a populated disk store, one leaf edited: the
    parent is rebuilt from the *other* tiles' composable artifacts as the
    disk tier unpickles them — rect lists that share no objects with each
    other — and the sign-off equals a cold analyzer's and the flat engines'.
    """
    from repro.drc import DrcChecker
    from repro.extract.extractor import Extractor
    from repro.metrics import measure_cell

    from tile_array import TileArray

    technology = nmos_technology()
    array = TileArray(technology, "warm_tiles")

    def restarted():
        return HierAnalyzer(technology, store=TieredStore(
            MemoryStore(), DiskStore(str(tmp_path / "store"))))

    array.sign_off(restarted())
    array.edit()
    fresh = restarted()
    signed = array.sign_off(fresh)
    disk = fresh.store.stats()["disk"]
    # The PLA's and every brick's artifacts were read, the ROM's and the
    # top's rebuilt: both happened.
    assert disk["hits"] > 0 and disk["puts"] > 0
    assert 0 < fresh.stats["drc_artifacts"] < fresh.stats["drc_hits"]
    assert 0 < fresh.stats["extract_artifacts"] < fresh.stats["extract_hits"]

    assert signed == array.sign_off(HierAnalyzer(technology,
                                                 store=MemoryStore()))
    violations, netlist, metrics = signed[:3]
    assert violations == DrcChecker(technology).check(array.top)
    flat = Extractor(technology).extract(array.top)
    assert netlist == (flat.node_names, flat.network.transistors,
                       flat.summary(), flat.parasitics)
    assert metrics == measure_cell(array.top, technology)


def _payload(analyzer, kind, cell, store_dir):
    """The pickled bytes of one blob, as the disk tier holds them."""
    from repro.geometry.transform import Orientation

    path = DiskStore(store_dir)._path(analyzer._key(kind, cell, Orientation.R0))
    with open(path, "rb") as handle:
        blob = handle.read()
    return blob[DiskStore._parse_header(blob)["_payload_start"]:]


def test_a_warm_disk_sign_off_loads_findings_and_parasitics_as_columns(
        tmp_path, monkeypatch):
    """Prove it ran: a fresh analyzer over a populated disk store signs the
    tile array off without making one ``ErcViolation`` or ``NetParasitics``
    — the ``erc`` report and the ``circuit`` stay columns until read.  Read
    afterwards, they equal a cold analyzer's; unread, they pickle back to
    the bytes on disk."""
    import pickle

    from repro.erc import checker
    from repro.timing import parasitics

    from tile_array import TileArray

    technology = nmos_technology()
    array = TileArray(technology, "column_tiles")
    top = array.top
    store_dir = str(tmp_path / "store")
    array.sign_off(_analyzer(technology, store_dir))

    built = {"ErcViolation": 0, "NetParasitics": 0}

    def counting(module, name):
        make = getattr(module, name)

        def count(*args, **kwargs):
            built[name] += 1
            return make(*args, **kwargs)
        return count

    warm = _analyzer(technology, store_dir)
    with monkeypatch.context() as patch:
        patch.setattr(checker, "ErcViolation",
                      counting(checker, "ErcViolation"))
        patch.setattr(parasitics, "NetParasitics",
                      counting(parasitics, "NetParasitics"))
        warm.drc(top)
        circuit = warm.extract(top)
        warm.measure(top)
        warm.timing(top)
        report = warm.erc(top)
    assert built == {"ErcViolation": 0, "NetParasitics": 0}
    assert warm.store.stats()["puts"] == 0
    assert warm.stats["circuit_artifacts"] == warm.stats["erc_artifacts"] == 0

    for kind, value in (("erc", report), ("circuit", circuit)):
        assert pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL) == \
            _payload(warm, kind, top, store_dir), kind

    cold = HierAnalyzer(technology, store=MemoryStore())
    cold_report, cold_circuit = cold.erc(top), cold.extract(top)
    assert report.violations == cold_report.violations
    assert len(report.violations) > 0
    assert report == cold_report
    assert circuit.parasitics == cold_circuit.parasitics
    assert list(circuit.parasitics) == list(cold_circuit.parasitics)
    assert len(circuit.parasitics) > 0
