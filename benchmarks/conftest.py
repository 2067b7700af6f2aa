"""Shared fixtures and helpers for the experiment benchmarks.

Every benchmark regenerates one experiment (the table in ``README.md``
lists them; ``PERFORMANCE.md`` has the engine write-ups) and prints a
paper-style table of the rows it measured, in addition to the
pytest-benchmark timing of the compilation step it exercises.

Each benchmark also writes a machine-readable ``BENCH_e*.json`` (wall time
plus the experiment's headline counts) into ``benchmarks/results/`` via
:func:`record_bench`, so the performance trajectory can be tracked across
PRs by diffing small JSON files instead of parsing benchmark logs.
"""

import json
import os
import platform
import subprocess
import sys

import pytest

from repro.layout.cell import Cell
from repro.technology import nmos_technology

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from paths import bench_result_path, ensure_results_dir  # noqa: E402


@pytest.fixture(scope="session")
def technology():
    """One NMOS technology instance shared by all benchmarks."""
    return nmos_technology()


def register_file(name: str, bit: Cell, rows: int) -> Cell:
    """``rows`` copies of ``bit`` stacked at its pitch, the way the chip
    generators draw a register column; row ``r``'s ports are labelled
    ``port[r][0]`` (row, column)."""
    regfile = Cell(name)
    for row in range(rows):
        instance = regfile.place(bit, 0, row * bit.height, name=f"bit{row}")
        for port_name in bit.port_names():
            port = bit.port(port_name)
            regfile.add_label(f"{port_name}[{row}][0]",
                              instance.transform.apply(port.position), port.layer)
    return regfile


def emit(table_text: str) -> None:
    """Print an experiment table so it appears in the benchmark log."""
    print()
    print(table_text)
    print()


def benchmark_seconds(benchmark):
    """Mean wall time of the pytest-benchmark run, or None outside one."""
    try:
        return benchmark.stats.stats.mean
    except AttributeError:
        return None


def provenance() -> dict:
    """What measured a result: CPU count, Python version and the commit
    (``git describe --dirty``: ``-dirty`` when the tree had edits)."""
    try:
        commit = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=7"],
            cwd=os.path.dirname(os.path.abspath(__file__)), check=True,
            capture_output=True, text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"cpu_count": os.cpu_count(),
            "python": platform.python_version(), "commit": commit}


def record_bench(experiment: str, benchmark=None, **fields) -> str:
    """Write ``benchmarks/results/BENCH_<experiment>.json``.

    ``benchmark`` may be the pytest-benchmark fixture; its mean wall time is
    recorded as ``wall_time_s``.  Additional keyword fields (shape counts,
    transistor counts, speedups, ...) are stored verbatim, beside the
    :func:`provenance` stamp.  Returns the path written so callers can
    mention it in logs.
    """
    # No timestamp or host name: the files are committed so the trajectory
    # is diffable across PRs, and such churn would bury real changes (git
    # history already dates each value).  The stamp stays because a wall
    # time or a ratio means little without it: it moves with the core
    # count, the interpreter and the code that was measured.
    payload = {"experiment": experiment, **provenance()}
    wall = benchmark_seconds(benchmark) if benchmark is not None else None
    if wall is not None:
        payload["wall_time_s"] = round(wall, 4)
    payload.update(fields)
    ensure_results_dir()
    path = bench_result_path(experiment)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
