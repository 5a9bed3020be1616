"""The heterogeneous QPU fleet and its topology-aware router.

PR 7's :class:`~repro.service.scheduler.FleetDevice` is a *failover*
fleet: N identical devices behind one job, racing faults.  The
gateway generalises the idea to a *capacity* fleet: m QPUs of
different topologies and grid sizes serving many jobs at once.  The
router only places jobs; the solver service arbitrates each lattice's
anneal requests with its own
:class:`~repro.service.scheduler.QpuScheduler`.

Routing follows the paper's own embedding model: the HyQSAT line
embedder (Section IV-B) gives every formula variable its own vertical
line of qubits, so one QA call on a lattice with L vertical lines
places at most L variables.  The router places a job on the
**smallest device whose vertical lines cover the formula's
variables** (Bian et al. 2018's sizing rule).  When no device has
that many lines, the job falls back to the device with the most — the
frontend batches the clauses across QA calls, as it does on any
undersized lattice.

A placement pins ``topology``/``grid`` on the job's
:class:`~repro.service.JobSpec`, which is what makes a gateway solve
replayable bit-identically as ``hyqsat solve --topology T --grid N``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List

#: Fleet-spec grammar: comma-separated ``topology:grid`` atoms, e.g.
#: ``chimera:8,chimera:16,pegasus:8``.
_SPEC_HELP = "expected 'topology:grid[,topology:grid...]', e.g. 'chimera:8,pegasus:8'"


@dataclass(frozen=True)
class GatewayQpu:
    """One fleet member: a named simulated QPU of a given lattice."""

    name: str
    topology: str
    grid: int

    @cached_property
    def hardware(self):
        """The member's lattice (built once per process and shared)."""
        from repro.topology import build_hardware

        return build_hardware(self.topology, self.grid)

    @property
    def num_qubits(self) -> int:
        return self.hardware.num_qubits

    def describe(self) -> Dict[str, object]:
        """The ``welcome`` message's fleet entry."""
        return {
            "device": self.name,
            "topology": self.topology,
            "grid": self.grid,
            "qubits": self.num_qubits,
        }


def parse_fleet_spec(spec: str) -> List[GatewayQpu]:
    """Parse ``--fleet`` into ordered :class:`GatewayQpu` members.

    Names are ``<topology><grid>`` with ``-N`` suffixes on repeats
    (``chimera:8,chimera:8`` -> ``chimera8``, ``chimera8-2``).
    """
    from repro.topology import TOPOLOGIES

    members: List[GatewayQpu] = []
    seen: Dict[str, int] = {}
    for atom in spec.split(","):
        atom = atom.strip()
        if not atom:
            continue
        topology, _, grid_text = atom.partition(":")
        if topology not in TOPOLOGIES:
            raise ValueError(
                f"unknown topology {topology!r} in fleet spec {spec!r}; "
                f"known: {sorted(TOPOLOGIES)}"
            )
        try:
            grid = int(grid_text) if grid_text else 16
        except ValueError:
            raise ValueError(f"bad grid {grid_text!r} in fleet spec {spec!r}; {_SPEC_HELP}") from None
        if grid < 1:
            raise ValueError(f"grid must be >= 1 in fleet spec {spec!r}")
        base = f"{topology}{grid}"
        seen[base] = seen.get(base, 0) + 1
        name = base if seen[base] == 1 else f"{base}-{seen[base]}"
        members.append(GatewayQpu(name=name, topology=topology, grid=grid))
    if not members:
        raise ValueError(f"empty fleet spec {spec!r}; {_SPEC_HELP}")
    return members


@dataclass(frozen=True)
class RoutingDecision:
    """Where one formula landed."""

    qpu: GatewayQpu
    #: True when the device's vertical lines cover every variable (the
    #: smallest-fit rule applied); False means the most-lines fallback.
    fits: bool


class FleetRouter:
    """Places jobs on the smallest fleet device whose vertical lines
    cover their variables."""

    def __init__(self, qpus: List[GatewayQpu]):
        if not qpus:
            raise ValueError("fleet must have at least one QPU")
        # Smallest lattice first; the denser topology wins ties (same
        # line count, shorter chains), then fleet order.
        order = sorted(
            qpus,
            key=lambda q: (q.num_qubits, 0 if q.topology == "pegasus" else 1),
        )
        self._lines = [(q.hardware.num_vertical_lines, q) for q in order]
        # max() keeps the first of equal maxima: ties stay in order.
        self._fallback = max(self._lines, key=lambda entry: entry[0])[1]

    def route(self, formula) -> RoutingDecision:
        """Pick the device for ``formula``: the first in size order
        with a vertical line per variable, else the one with the most
        lines."""
        for lines, qpu in self._lines:
            if lines >= formula.num_vars:
                return RoutingDecision(qpu, fits=True)
        return RoutingDecision(self._fallback, fits=False)
