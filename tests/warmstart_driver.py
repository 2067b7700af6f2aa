"""Cross-process warm-start driver (run as a script, not collected).

Builds the four example designs (the same set as ``test_pnr``'s sign-off
goldens), signs each off through one shared analyzer, and prints a JSON
record: a canonical SHA-256 digest of every report and of every chip's CIF
text, plus the analyzer's build/hit counters and store statistics.

``tests/test_store_warmstart.py`` runs this in fresh processes with no
store, against an empty ``REPRO_STORE`` directory (cold) and against the
populated one (warm), and asserts that every run produces byte-identical
digests and that the warm run rebuilds *zero* artifacts.  Every field
folded into the report digest is a dataclass repr or primitive, so the
digest is deterministic across processes.
"""

import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, os.pardir, "examples"))
sys.path.insert(0, os.path.join(HERE, os.pardir, "src"))


def summarize(report):
    timing = report.timing
    return {
        "violations": [str(v) for v in report.violations],
        "cell": report.circuit.cell_name,
        "nodes": report.circuit.node_names,
        "transistors": report.circuit.transistor_count,
        "enhancement": report.circuit.enhancement_count,
        "depletion": report.circuit.depletion_count,
        "parasitics": {name: str(p) for name, p in
                       sorted(report.circuit.parasitics.items())},
        "metrics": str(report.metrics),
        "chip_timing": str(timing.chip),
        "blocks": [(name, str(block)) for name, block in timing.blocks],
        "io_paths": [str(path) for path in timing.io_paths],
        "erc": str(report.erc),
        "max_frequency_mhz": report.max_frequency_mhz,
    }


def build_designs(technology):
    from repro.generators import FsmLayoutGenerator, PlaGenerator
    from repro.logic import TruthTable, parse_expr

    from chip_assembly import build_chip
    from pdp8_subset_compiler import compiled_machine_summary
    from test_pnr import wrap_in_chip
    from traffic_light_controller import build_fsm

    table = TruthTable.from_expressions(
        {"sum": parse_expr("a ^ b ^ cin"),
         "carry": parse_expr("a & b | a & cin | b & cin")},
        input_names=["a", "b", "cin"])
    adder = PlaGenerator(technology, table, name="pnr_adder_pla").cell()
    designs = [
        ("quickstart", wrap_in_chip("pnr_quickstart", adder, technology)),
        ("fsm", wrap_in_chip(
            "pnr_fsm", FsmLayoutGenerator(technology, build_fsm()).cell(),
            technology)),
        ("family", build_chip("pnr_golden_4b", 4, 0)[0]),
    ]
    _compiled, layout, _report = compiled_machine_summary()
    designs.append(("pdp8", wrap_in_chip("pnr_pdp8", layout, technology)))
    return designs


def main():
    sys.path.insert(0, HERE)     # for test_pnr.wrap_in_chip
    from repro.analysis import HierAnalyzer
    from repro.cif import cell_to_cif
    from repro.technology import nmos_technology

    technology = nmos_technology()
    analyzer = HierAnalyzer(technology)
    digests = {}
    cif = {}
    for name, assembler in build_designs(technology):
        report = assembler.sign_off(analyzer)
        payload = json.dumps(summarize(report), sort_keys=True)
        digests[name] = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        text = cell_to_cif(assembler._chip, technology=technology)
        cif[name] = hashlib.sha256(text.encode("ascii")).hexdigest()
    print(json.dumps({
        "digests": digests,
        "cif": cif,
        "stats": analyzer.stats,
        "store": analyzer.store.stats(),
    }))


if __name__ == "__main__":
    main()
