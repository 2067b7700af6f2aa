"""Warm starts survive process restarts: the acceptance test of the store.

Process A signs off the four example designs into an empty ``REPRO_STORE``
directory; process B — a fresh interpreter with no shared memory — must
reproduce every sign-off byte-identical while rebuilding *zero*
hierarchical artifacts (views included): every lookup is a store hit.

The same runs pin determinism as one property: the same description yields
byte-identical CIF and sign-off reports across two fresh processes with no
store, with a cold store and with a warm one.

A corruption smoke test rides along: truncating one blob between runs
must surface an ``STO001`` diagnostic and a recompute that still matches,
and must be fatal under ``REPRO_STRICT=1``.
"""

import json
import logging
import os
import subprocess
import sys

import pytest

from repro.analysis import HierAnalyzer
from repro.store import DiskStore, MemoryStore, StoreCorruption, TieredStore
from repro.technology import nmos_technology

DRIVER = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "warmstart_driver.py")

BUILD_COUNTERS = ("views", "drc_artifacts", "extract_artifacts",
                  "erc_artifacts", "timing_artifacts")

DESIGNS = ("quickstart", "fsm", "family", "pdp8")


def run_driver(store_dir):
    env = dict(os.environ)
    if store_dir is None:
        env.pop("REPRO_STORE", None)
    else:
        env["REPRO_STORE"] = str(store_dir)
    result = subprocess.run(
        [sys.executable, DRIVER], env=env, capture_output=True, text=True,
        check=True, timeout=1800)
    return json.loads(result.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Two fresh processes per store mode; each cold run populates its own
    empty directory, which the matching warm run then reads."""
    store_dirs = [tmp_path_factory.mktemp(tag) / "store" for tag in "ab"]
    return {
        "none": [run_driver(None) for _ in store_dirs],
        "cold": [run_driver(store_dir) for store_dir in store_dirs],
        "warm": [run_driver(store_dir) for store_dir in store_dirs],
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
    # ...with zero artifact rebuilds: every view, DRC, extraction, ERC and
    # timing artifact the warm process needed came out of the durable
    # store.  (Hierarchical short-circuit means it needs only the
    # top-level artifacts — the point is that not one was recomputed.)
    for counter in BUILD_COUNTERS:
        assert warm["stats"][counter] == 0, (counter, warm["stats"])
    assert warm["store"]["puts"] == 0
    assert warm["store"]["misses"] == 0
    assert warm["store"]["hits"] > 0


def _small_cell():
    from repro.layout.cell import Cell

    cell = Cell("smoke_cell")
    cell.add_box("metal", 0, 0, 9, 3)
    cell.add_box("metal", 0, 10, 9, 13)
    cell.add_box("poly", 0, 20, 2, 23)
    return cell


def _drc_blob(analyzer, cell, store_dir):
    """Path of the cell's top-level DRC artifact blob (the one the next
    ``drc()`` call reads first, so corrupting it is always observed)."""
    from repro.geometry.transform import Orientation

    key = analyzer._key("drc", cell, Orientation.R0)
    path = DiskStore(store_dir)._path(key)
    assert os.path.exists(path)
    return path


def test_corrupted_blob_recomputes_identically(tmp_path, caplog, monkeypatch):
    monkeypatch.delenv("REPRO_STRICT", raising=False)
    technology = nmos_technology()
    store_dir = str(tmp_path / "store")
    cell = _small_cell()
    first = HierAnalyzer(
        technology, store=TieredStore(MemoryStore(), DiskStore(store_dir)))
    golden = first.drc(cell)

    blob = _drc_blob(first, cell, store_dir)
    with open(blob, "r+b") as handle:
        handle.truncate(20)

    second = HierAnalyzer(
        technology, store=TieredStore(MemoryStore(), DiskStore(store_dir)))
    with caplog.at_level(logging.WARNING, logger="repro"):
        recomputed = second.drc(cell)
    # The damage was detected, reported, and recomputed around — and the
    # recomputed result is identical to the pre-corruption one.
    assert recomputed == golden
    assert any("STO001" in record.message for record in caplog.records)
    # The quarantined blob was replaced by the recompute's fresh write.
    third = HierAnalyzer(
        technology, store=TieredStore(MemoryStore(), DiskStore(store_dir)))
    assert third.drc(cell) == golden
    assert third.stats["drc_artifacts"] == 0


def test_corrupted_blob_is_fatal_under_strict(tmp_path, monkeypatch):
    technology = nmos_technology()
    store_dir = str(tmp_path / "store")
    cell = _small_cell()
    populate = HierAnalyzer(
        technology, store=TieredStore(MemoryStore(), DiskStore(store_dir)))
    populate.drc(cell)

    blob = _drc_blob(populate, cell, store_dir)
    with open(blob, "r+b") as handle:
        handle.truncate(20)

    monkeypatch.setenv("REPRO_STRICT", "1")
    strict = HierAnalyzer(
        technology, store=TieredStore(MemoryStore(), DiskStore(store_dir)))
    with pytest.raises(StoreCorruption):
        strict.drc(cell)
