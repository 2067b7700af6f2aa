"""Reference isolation: oracles stay oracles, production has one path.

``repro.reference`` holds the six reference implementations the
differential suites compare against.  Two things keep them from drifting
back into production branches:

* a source scan — none of the deleted engine flags reappears anywhere in
  ``src/repro`` outside the reference package, and no module there imports
  ``repro.reference``, at any nesting depth;
* a fresh process in the default environment (``REPRO_STRICT`` unset)
  builds, routes and signs off an example chip and runs gate, RTL and
  switch simulation without the package ever being imported.

``repro.pnr`` holds exactly one priced search; the maze router's oracle
(``repro.reference.maze``, Dijkstra) overrides it and nothing else.

The same kind of scan keeps the hierarchical analyzer a scheduler: geometry
stays with the composers beside the flat engines, and the artifact store is
read and written in one place.  And it keeps the graph kernels single: one
union-find and one Tarjan in production code, recognised by their defining
idioms rather than by name.
"""

import ast
import os
import re
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
PACKAGE = os.path.join(ROOT, "src", "repro")
REFERENCE = os.path.join(PACKAGE, "reference")
DELETED_FLAGS = re.compile(
    r"\b(use_index|use_compiled|use_incremental|brute_force)\b")


def production_sources():
    for directory, _subdirs, files in os.walk(PACKAGE):
        if os.path.commonpath([directory, REFERENCE]) == REFERENCE:
            continue
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                with open(path, encoding="utf-8") as handle:
                    yield os.path.relpath(path, ROOT), handle.read()


def imports_reference(node):
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[:2] == ["repro", "reference"]
                   for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        module = (node.module or "").split(".")
        return module[:2] == ["repro", "reference"] or (
            module == ["repro"]
            and any(alias.name == "reference" for alias in node.names))
    return False


def reference_imports(source):
    """Line numbers of every ``repro.reference`` import, at any depth."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if imports_reference(node)]


class TestSourceScan:
    def test_deleted_flags_stay_deleted(self):
        hits = [f"{path}:{number}: {line.strip()}"
                for path, text in production_sources()
                for number, line in enumerate(text.splitlines(), 1)
                if DELETED_FLAGS.search(line)]
        assert not hits, "\n".join(hits)

    def test_production_never_imports_reference(self):
        hits = [f"{path}: lines {lines}"
                for path, text in production_sources()
                if (lines := reference_imports(text))]
        assert not hits, "\n".join(hits)

    def test_the_scan_catches_a_top_level_or_unguarded_import(self):
        assert reference_imports(
            "from repro.reference import BruteDrcChecker\n") == [1]
        assert reference_imports(
            "def check():\n"
            "    import repro.reference.geometry\n") == [2]
        assert reference_imports(
            "def check():\n"
            "    def oracle():\n"
            "        from repro.reference import BruteDrcChecker\n"
            "    return run_with_fallback('x', fast, oracle, code='F')\n") == [3]


def heap_loops(source):
    """``(function, line)`` of every ``while`` loop that pops a heap."""
    found = []
    for function in ast.walk(ast.parse(source)):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for loop in ast.walk(function):
            if isinstance(loop, ast.While) and any(
                    isinstance(node, ast.Call)
                    and getattr(node.func, "attr", None) == "heappop"
                    for node in ast.walk(loop)):
                found.append((function.name, loop.lineno))
    return found


class TestOnePricedSearch:
    """``MazeRouter`` searches with A*; the Dijkstra loop it replaced is
    ``repro.reference.maze``'s and nobody's fallback."""

    PNR = os.path.join("src", "repro", "pnr")

    def test_pnr_pops_a_heap_in_one_function(self):
        loops = [(path, function)
                 for path, text in production_sources()
                 if path.startswith(self.PNR)
                 for function, _line in heap_loops(text)]
        assert loops == [(os.path.join(self.PNR, "router.py"), "_search")]

    def test_the_oracle_overrides_that_function_and_nothing_else(self):
        with open(os.path.join(REFERENCE, "maze.py"), encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        classes = [node for node in tree.body if isinstance(node, ast.ClassDef)]
        assert [node.name for node in classes] == ["DijkstraMazeRouter"]
        assert [node.name for node in classes[0].body
                if isinstance(node, ast.FunctionDef)] == ["_search"]
        assert [function for function, _line
                in heap_loops(ast.unparse(tree))] == ["_search"]

    def test_the_scan_recognises_a_heap_loop(self):
        assert heap_loops(
            "def search():\n"
            "    while frontier:\n"
            "        cost, state = heapq.heappop(frontier)\n") == [("search", 2)]
        assert heap_loops(
            "def drain():\n"
            "    while queue:\n"
            "        queue.popleft()\n") == []


class TestSchedulerStaysAScheduler:
    """``repro.analysis.hier`` decides what is built when; it touches no
    rectangle and has one get-or-build."""

    ANALYSIS = os.path.join("src", "repro", "analysis")

    def test_hier_imports_no_rect_geometry(self):
        source = dict(production_sources())[
            os.path.join(self.ANALYSIS, "hier.py")]
        imported = set()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add(node.module)
                imported.update(f"{node.module}.{alias.name}"
                                for alias in node.names)
        assert not imported & {"repro.geometry.index", "repro.geometry.rect"}

    def test_the_store_is_read_and_written_in_one_function(self):
        callers = {"get": [], "put": []}
        for path, text in production_sources():
            if not path.startswith(self.ANALYSIS):
                continue
            for function in ast.walk(ast.parse(text)):
                if not isinstance(function, (ast.FunctionDef,
                                             ast.AsyncFunctionDef)):
                    continue
                for node in ast.walk(function):
                    if (isinstance(node, ast.Call)
                            and isinstance(node.func, ast.Attribute)
                            and node.func.attr in callers
                            and getattr(node.func.value, "attr", None) == "store"):
                        callers[node.func.attr].append(function.name)
        assert callers == {"get": ["_get"], "put": ["_get"]}


def graph_kernel_idioms(source):
    """``(kind, line)`` of every union-find root walk (``while p[i] != i``)
    and every Tarjan root test (``low[n] == index[n]``) in ``source``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        test = node.test if isinstance(node, ast.While) else node
        if not (isinstance(test, ast.Compare) and len(test.ops) == 1
                and isinstance(test.left, ast.Subscript)):
            continue
        left, right = test.left, test.comparators[0]
        if (isinstance(node, ast.While) and isinstance(test.ops[0], ast.NotEq)
                and ast.dump(left.slice) == ast.dump(right)):
            found.add(("union-find", node.lineno))
        elif (isinstance(test.ops[0], ast.Eq)
                and isinstance(right, ast.Subscript)
                and ast.dump(left.slice) == ast.dump(right.slice)
                and ast.dump(left.value) != ast.dump(right.value)):
            found.add(("tarjan", node.lineno))
    return found


class TestOneGraphKernel:
    """Every production partition goes through ``geometry.index.UnionFind``
    and every SCC pass through ``netlist.switch_lowering.strongly_connected``
    (the switch-simulator oracle in ``repro.reference`` keeps its own)."""

    def test_one_union_find_and_one_tarjan_in_production(self):
        homes = {(kind, path) for path, text in production_sources()
                 for kind, _line in graph_kernel_idioms(text)}
        assert homes == {
            ("union-find", os.path.join("src", "repro", "geometry", "index.py")),
            ("tarjan", os.path.join("src", "repro", "netlist",
                                    "switch_lowering.py"))}
        for path, text in production_sources():
            assert len(graph_kernel_idioms(text)) <= 1, path

    def test_the_switch_oracle_shares_only_the_network_types(self):
        """It neither subclasses production nor reads the lowering: what it
        takes from ``repro.netlist`` is the data model and the supply names."""
        with open(os.path.join(REFERENCE, "switch_sim.py"),
                  encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        imported = {}
        for node in ast.walk(tree):
            assert not isinstance(node, ast.Import)
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.setdefault(node.module, set()).update(
                    alias.name for alias in node.names)
        assert imported.pop("typing")
        assert imported == {
            "repro.diagnostics": {"BudgetExceeded", "Diagnostic", "Severity"},
            "repro.netlist.switch_sim": {"GND", "VDD", "SwitchNetwork",
                                         "TransistorKind"}}
        assert [(node.name, node.bases) for node in ast.walk(tree)
                if isinstance(node, ast.ClassDef)] == [
                    ("SwitchLevelReference", [])]
        assert graph_kernel_idioms(ast.unparse(tree))   # its own union-find

    def test_the_scan_recognises_both_idioms(self):
        assert graph_kernel_idioms(
            "def find(node):\n"
            "    while finder[node] != node:\n"
            "        node = finder[node]\n"
            "    return node\n") == {("union-find", 2)}
        assert graph_kernel_idioms(
            "if low[node] == index_of[node]:\n"
            "    pop()\n") == {("tarjan", 1)}
        assert graph_kernel_idioms(
            "while queue[0] != last and rows[i] == rows[j]:\n"
            "    step()\n") == set()


PRODUCTION_FLOW = """
import os, sys
sys.path[:0] = [os.path.join({root!r}, "src"), os.path.join({root!r}, "examples")]

from chip_assembly import build_chip
from repro.cells import InverterCell
from repro.drc import check_cell
from repro.extract import extract_cell
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.netlist import GateLevelSimulator, GateType, Module, SwitchLevelSimulator
from repro.pnr import MazeRouter, RouteRequest
from repro.rtl import RtlSimulator, parse_rtl
from repro.technology import nmos_technology

assembler, chip = build_chip("isolation_4b", 4, 0)
report = assembler.sign_off()
assert report.clean and report.circuit.transistor_count > 0
assert assembler.routing_report.completion == 1.0

maze = MazeRouter(Rect(0, 0, 60, 60), [Rect(28, 0, 32, 40)])
assert maze.route(RouteRequest("n", Point(6, 6), Point(54, 6))).cost > 48

module = Module("toggle")
module.add_input("en")
module.add_output("q")
module.add_gate(GateType.XOR, "d", ["q", "en"])
module.add_gate(GateType.DFF, "q", ["d"])
gate = GateLevelSimulator(module)
gate.reset(0)
assert gate.run([{{"en": 1}}] * 4).series("q") == [0, 1, 0, 1]

rtl = RtlSimulator(parse_rtl('''
machine counter;
input load[1], data[4];
output q[4];
register count[4];
always begin
    if (load) count <- data;
    else count <- count + 1;
    q = count;
end
'''))
stimulus = [{{"load": 1, "data": 5}}, {{"load": 0}}, {{"load": 0}}]
assert [row["q"] for row in rtl.run(3, stimulus)] == [0, 5, 6]

technology = nmos_technology()
assert check_cell(InverterCell(technology).cell(), technology) == []
inverter = extract_cell(InverterCell(technology).cell(), technology)
switch = SwitchLevelSimulator(inverter.network)
assert switch.evaluate({{"in": 1}})["out"] == 0
assert switch.evaluate({{"in": 0}})["out"] == 1

loaded = sorted(name for name in sys.modules if name.startswith("repro.reference"))
assert not loaded, loaded
print("production flow ran without repro.reference")
"""


def test_production_flow_never_imports_reference():
    environment = dict(os.environ)
    environment.pop("REPRO_STRICT", None)
    environment.pop("REPRO_STORE", None)
    result = subprocess.run(
        [sys.executable, "-c", PRODUCTION_FLOW.format(root=os.path.abspath(ROOT))],
        capture_output=True, text=True, env=environment, timeout=300)
    assert result.returncode == 0, result.stderr
    assert "without repro.reference" in result.stdout
