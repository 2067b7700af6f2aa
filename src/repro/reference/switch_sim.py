"""Reference switch-level settle: rebuild every conducting group, every sweep.

The seed implementation of the ratioed-NMOS settle loop.  Each iteration
recomputes the connected components of the whole network with a fresh
union-find and re-resolves every group, so there is no bookkeeping to get
wrong — which is what makes it the golden model the incremental settle in
:mod:`repro.netlist.switch_sim` is pinned value-identical to.  Conductance
and group resolution (``_conducting`` / ``_resolve_group``) are the
production simulator's own: the two paths differ only in *which* groups
they revisit.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.netlist.switch_sim import SwitchLevelSimulator, _settle_budget_error


def settle_full_rebuild(sim: SwitchLevelSimulator, clamped: Set[str]) -> None:
    """Settle ``sim`` in place by full regrouping until nothing changes."""
    for _ in range(sim.settle_limit):
        changed = False
        groups = conducting_groups(sim)
        for group in groups:
            new_value = sim._resolve_group(group, clamped)
            for node in group:
                if node in clamped:
                    continue
                if sim.values.get(node) != new_value and new_value is not None:
                    sim.values[node] = new_value
                    changed = True
        if not changed:
            return
    raise _settle_budget_error()


def conducting_groups(sim: SwitchLevelSimulator) -> List[Set[str]]:
    """Connected components of nodes joined by conducting channels."""
    parent: Dict[str, str] = {node: node for node in sim.network.nodes()}

    def find(node: str) -> str:
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    def union(a: str, b: str) -> None:
        root_a, root_b = find(a), find(b)
        if root_a != root_b:
            parent[root_a] = root_b

    for device in sim.network.transistors:
        if sim._conducting(device):
            union(device.source, device.drain)

    groups: Dict[str, Set[str]] = {}
    for node in sim.network.nodes():
        groups.setdefault(find(node), set()).add(node)
    return list(groups.values())


class SwitchLevelReference(SwitchLevelSimulator):
    """:class:`SwitchLevelSimulator` settled by the full-rebuild loop."""

    def _settle(self) -> None:
        settle_full_rebuild(self, self._clamped())
