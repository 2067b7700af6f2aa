"""Structural netlists: modules, nets, gate and sub-module instances."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.diagnostics import Diagnostic, DiagnosticError, Severity


class NetlistError(DiagnosticError, ValueError):
    """Raised on malformed netlist construction (still a ``ValueError``)."""

    default_code = "NET000"


def _netlist_error(code: str, message: str) -> NetlistError:
    return NetlistError(message,
                        Diagnostic(Severity.ERROR, code, message,
                                   None, None, "netlist"))


class GateType(Enum):
    """Primitive component types understood by the gate-level simulator."""

    AND = "and"
    OR = "or"
    NAND = "nand"
    NOR = "nor"
    NOT = "not"
    XOR = "xor"
    XNOR = "xnor"
    BUF = "buf"
    MUX2 = "mux2"       # inputs: sel, a, b -> out = b if sel else a
    DFF = "dff"         # inputs: d (clocked by the simulator's cycle)
    LATCH = "latch"     # inputs: d, enable
    CONST0 = "const0"
    CONST1 = "const1"

    @property
    def is_sequential(self) -> bool:
        return self in (GateType.DFF, GateType.LATCH)


#: Number of data inputs each gate expects (None = any number >= 2).
_GATE_ARITY: Dict[GateType, Optional[int]] = {
    GateType.AND: None,
    GateType.OR: None,
    GateType.NAND: None,
    GateType.NOR: None,
    GateType.XOR: None,
    GateType.XNOR: None,
    GateType.NOT: 1,
    GateType.BUF: 1,
    GateType.MUX2: 3,
    GateType.DFF: 1,
    GateType.LATCH: 2,
    GateType.CONST0: 0,
    GateType.CONST1: 0,
}


@dataclass
class Net:
    """A named electrical node of a module."""

    name: str
    is_input: bool = False
    is_output: bool = False

    def __hash__(self) -> int:
        return hash(self.name)


def _data_port_index(port: str) -> Optional[int]:
    """The numeric index of an ``in<N>`` data port, or None for other ports."""
    if port.startswith("in") and port[2:].isdigit():
        return int(port[2:])
    return None


@dataclass
class Instance:
    """A placed component: a primitive gate or a sub-module.

    ``connections`` maps the component's port names to net names of the
    enclosing module.  For primitive gates the ports are ``in0..inN`` and
    ``out`` (plus ``enable`` for latches and ``sel``/``a``/``b`` for muxes).
    """

    name: str
    kind: Union[GateType, "Module"]
    connections: Dict[str, str] = field(default_factory=dict)

    @property
    def is_primitive(self) -> bool:
        return isinstance(self.kind, GateType)

    @property
    def kind_name(self) -> str:
        return self.kind.value if isinstance(self.kind, GateType) else self.kind.name

    def data_input_nets(self) -> List[str]:
        """Nets on the ``in<N>`` data ports, in numeric port order.

        A plain string sort would order ``in10`` before ``in2``; every
        consumer that cares about operand order (simulators, the compiled
        kernel) must go through this helper so wide gates evaluate their
        operands in declaration order.
        """
        indexed = [
            (index, net)
            for port, net in self.connections.items()
            if (index := _data_port_index(port)) is not None
        ]
        indexed.sort()
        return [net for _, net in indexed]

    def input_nets(self) -> List[str]:
        """All nets on non-output ports (data inputs plus sel/enable/...)."""
        return [net for port, net in self.connections.items() if port != "out"]


class Module:
    """A structural module: ports, nets and instances."""

    def __init__(self, name: str):
        self.name = name
        self.nets: Dict[str, Net] = {}
        self.instances: List[Instance] = []
        self._instance_names: Set[str] = set()

    # -- net and port management -----------------------------------------------------

    def add_net(self, name: str, is_input: bool = False, is_output: bool = False) -> Net:
        if name in self.nets:
            net = self.nets[name]
            net.is_input = net.is_input or is_input
            net.is_output = net.is_output or is_output
            return net
        net = Net(name, is_input, is_output)
        self.nets[name] = net
        return net

    def add_input(self, name: str) -> Net:
        return self.add_net(name, is_input=True)

    def add_inputs(self, *names: str) -> List[Net]:
        return [self.add_input(name) for name in names]

    def add_output(self, name: str) -> Net:
        return self.add_net(name, is_output=True)

    def add_outputs(self, *names: str) -> List[Net]:
        return [self.add_output(name) for name in names]

    def input_names(self) -> List[str]:
        return [net.name for net in self.nets.values() if net.is_input]

    def output_names(self) -> List[str]:
        return [net.name for net in self.nets.values() if net.is_output]

    def internal_names(self) -> List[str]:
        return [
            net.name for net in self.nets.values()
            if not net.is_input and not net.is_output
        ]

    # -- instances ----------------------------------------------------------------------

    def add_gate(self, gate: GateType, output: str, inputs: Sequence[str] = (),
                 name: Optional[str] = None, **extra_connections: str) -> Instance:
        """Add a primitive gate driving ``output`` from ``inputs``."""
        arity = _GATE_ARITY[gate]
        if arity is not None and gate not in (GateType.MUX2, GateType.LATCH):
            if len(inputs) != arity:
                raise _netlist_error(
                    "NET001",
                    f"{gate.value} expects {arity} input(s), got {len(inputs)}")
        elif arity is None and len(inputs) < 2:
            raise _netlist_error(
                "NET001", f"{gate.value} expects at least two inputs")
        connections: Dict[str, str] = {"out": output}
        for index, net_name in enumerate(inputs):
            connections[f"in{index}"] = net_name
        connections.update(extra_connections)
        for net_name in connections.values():
            self.add_net(net_name)
        instance_name = name or self._fresh_name(gate.value)
        instance = Instance(instance_name, gate, connections)
        self._register(instance)
        return instance

    def add_submodule(self, module: "Module", connections: Dict[str, str],
                      name: Optional[str] = None) -> Instance:
        """Instantiate another module; ``connections`` maps its ports to nets."""
        for port in module.input_names() + module.output_names():
            if port not in connections:
                raise _netlist_error(
                    "NET002",
                    f"instantiation of {module.name!r} misses connection "
                    f"for port {port!r}")
        for net_name in connections.values():
            self.add_net(net_name)
        instance_name = name or self._fresh_name(module.name)
        instance = Instance(instance_name, module, connections)
        self._register(instance)
        return instance

    def _register(self, instance: Instance) -> None:
        if instance.name in self._instance_names:
            raise _netlist_error(
                "NET003", f"duplicate instance name {instance.name!r}")
        self._instance_names.add(instance.name)
        self.instances.append(instance)

    def _fresh_name(self, prefix: str) -> str:
        index = len(self.instances)
        while f"{prefix}_{index}" in self._instance_names:
            index += 1
        return f"{prefix}_{index}"

    # -- queries -------------------------------------------------------------------------

    def gate_count(self, recursive: bool = True) -> int:
        """Number of primitive gates (optionally flattening sub-modules)."""
        total = 0
        for instance in self.instances:
            if instance.is_primitive:
                total += 1
            elif recursive:
                total += instance.kind.gate_count(recursive=True)
        return total

    def count_by_type(self) -> Dict[str, int]:
        result: Dict[str, int] = {}
        for instance in self.instances:
            if instance.is_primitive:
                result[instance.kind.value] = result.get(instance.kind.value, 0) + 1
            else:
                for key, value in instance.kind.count_by_type().items():
                    result[key] = result.get(key, 0) + value
        return result

    def transistor_estimate(self) -> int:
        """NMOS transistor estimate: n-input NAND/NOR = n+1, inverter = 2, etc."""
        costs = {
            GateType.NOT: 2, GateType.BUF: 4, GateType.NAND: None, GateType.NOR: None,
            GateType.AND: None, GateType.OR: None, GateType.XOR: 8, GateType.XNOR: 8,
            GateType.MUX2: 4, GateType.DFF: 6, GateType.LATCH: 4,
            GateType.CONST0: 0, GateType.CONST1: 1,
        }
        total = 0
        for instance in self.instances:
            if not instance.is_primitive:
                total += instance.kind.transistor_estimate()
                continue
            gate = instance.kind
            fan_in = sum(1 for port in instance.connections if port.startswith("in"))
            if gate in (GateType.NAND, GateType.NOR):
                total += fan_in + 1
            elif gate in (GateType.AND, GateType.OR):
                total += fan_in + 3   # NAND/NOR plus an inverter
            else:
                total += costs[gate] or 0
        return total

    def rule_violations(self) -> Iterator[
            Tuple[str, str, Tuple[str, ...], Tuple[str, ...]]]:
        """``(code, message, nets, instances)`` per broken structural rule.

        ``ERC006`` undriven output net, ``ERC007`` connection to a net the
        module lacks, ``ERC008`` several primitive drivers on one net; the
        one pass :meth:`validate` and ``ErcChecker.check_module`` share.
        """
        nets = self.nets
        driven: Set[str] = set()
        drivers: Dict[str, int] = {}      # primitive drivers only
        unknown = []
        for instance in self.instances:
            outputs = (("out",) if instance.is_primitive
                       else instance.kind.output_names())
            for port, net_name in instance.connections.items():
                if net_name not in nets:
                    unknown.append((
                        "ERC007", f"instance {instance.name!r} port {port!r} "
                        f"references unknown net {net_name!r}",
                        (net_name,), (instance.name,)))
                if port in outputs:
                    driven.add(net_name)
                    if instance.is_primitive:
                        drivers[net_name] = drivers.get(net_name, 0) + 1
        for net in nets.values():
            if net.is_output and not net.is_input and net.name not in driven:
                yield ("ERC006", f"output net {net.name!r} is never driven",
                       (net.name,), ())
        yield from unknown
        for net_name in sorted(drivers):
            if drivers[net_name] > 1:
                yield ("ERC008", f"net {net_name!r} has multiple drivers",
                       (net_name,), ())

    def validate(self) -> List[Diagnostic]:
        """Structural sanity checks (``ERC006``/``007``/``008`` errors)."""
        return [Diagnostic(Severity.ERROR, code, message, source="netlist")
                for code, message, _nets, _instances in self.rule_violations()]

    def flattened(self, prefix: str = "") -> "Module":
        """A copy with all sub-module instances expanded to primitive gates."""
        flat = Module(self.name if not prefix else f"{self.name}_flat")
        for net in self.nets.values():
            flat.add_net(net.name, net.is_input, net.is_output)
        self._flatten_into(flat, "")
        return flat

    def _flatten_into(self, flat: "Module", prefix: str,
                      port_map: Optional[Dict[str, str]] = None) -> None:
        def resolve(net_name: str) -> str:
            if port_map is not None and net_name in port_map:
                return port_map[net_name]
            return f"{prefix}{net_name}" if prefix else net_name

        for instance in self.instances:
            if instance.is_primitive:
                connections = {port: resolve(net) for port, net in instance.connections.items()}
                for net_name in connections.values():
                    flat.add_net(net_name)
                flat._register(Instance(f"{prefix}{instance.name}", instance.kind, connections))
            else:
                child: Module = instance.kind
                child_port_map = {
                    port: resolve(net) for port, net in instance.connections.items()
                }
                child._flatten_into(flat, f"{prefix}{instance.name}.", child_port_map)

    def __repr__(self) -> str:
        return (
            f"Module({self.name!r}, {len(self.nets)} nets, {len(self.instances)} instances, "
            f"{self.gate_count()} gates)"
        )
