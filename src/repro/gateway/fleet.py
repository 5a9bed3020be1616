"""The heterogeneous QPU fleet and its topology-aware router.

PR 7's :class:`~repro.service.scheduler.FleetDevice` is a *failover*
fleet: N identical devices behind one job, racing faults.  The
gateway generalises the idea to a *capacity* fleet: m QPUs of
different topologies and grid sizes serving many jobs at once.  The
router only places jobs; the solver service arbitrates each lattice's
anneal requests with its own
:class:`~repro.service.scheduler.QpuScheduler`.

Routing is topology-aware, following the paper's own embedding
model: the HyQSAT line embedder (Section IV-B) decides how many of a
formula's clauses fit a given lattice, so the router runs exactly
that embedder against each device, cheapest-first, and places the job
on the **smallest device whose embedding fully fits** (Bian et al.
2018's sizing rule).  When nothing fully fits, the job falls back to
the device embedding the most clauses — the frontend batches the rest
across QA calls, as it does on any undersized lattice.

A placement pins ``topology``/``grid`` on the job's
:class:`~repro.service.JobSpec`, which is what makes a gateway solve
replayable bit-identically as ``hyqsat solve --topology T --grid N``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: Probe results a router keeps, one per (fingerprint, device); past
#: it the oldest is evicted.  Far above a workload's working set: a
#: 30 s ``gateway-zipf`` run routes 41 distinct instances on 3 devices.
PROBE_CACHE_ENTRIES = 4096

#: Fleet-spec grammar: comma-separated ``topology:grid`` atoms, e.g.
#: ``chimera:8,chimera:16,pegasus:8``.
_SPEC_HELP = "expected 'topology:grid[,topology:grid...]', e.g. 'chimera:8,pegasus:8'"


@dataclass(frozen=True)
class GatewayQpu:
    """One fleet member: a named simulated QPU of a given lattice."""

    name: str
    topology: str
    grid: int

    @property
    def num_qubits(self) -> int:
        return self.grid * self.grid * 2 * 4

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
    """Where one formula landed and how well it embedded there."""

    qpu: GatewayQpu
    #: Clauses the HyQSAT embedder placed on this lattice in one pass.
    embedded_clauses: int
    total_clauses: int
    #: True when every clause fit (the smallest-fit rule applied);
    #: False means best-partial fallback.
    fits: bool


class FleetRouter:
    """Places jobs on the smallest fleet device they embed into.

    Capacity probes run the real HyQSAT line embedder per (formula,
    device) and are memoised by the fingerprint the caller passes, so
    a stream of identical instances costs one probe per device; the
    memo keeps the newest :data:`PROBE_CACHE_ENTRIES` probes.  Used
    from one thread (the service's coordinator).
    """

    def __init__(self, qpus: List[GatewayQpu]):
        if not qpus:
            raise ValueError("fleet must have at least one QPU")
        self.qpus = list(qpus)
        # Probe order: smallest lattice first; denser topology wins
        # ties (same capacity for the line embedder, shorter chains).
        self._probe_order = sorted(
            self.qpus,
            key=lambda q: (q.num_qubits, 0 if q.topology == "pegasus" else 1),
        )
        self._probe_cache: Dict[Tuple[str, str], Tuple[int, int]] = {}

    def _probe(self, formula, fp: str, qpu: GatewayQpu) -> Tuple[int, int]:
        """(embedded, total) clauses of one formula on one device."""
        key = (fp, qpu.name)
        cached = self._probe_cache.get(key)
        if cached is not None:
            return cached
        from repro.embedding import HyQSatEmbedder
        from repro.qubo import encode_formula
        from repro.sat.cnf import ClauseTable
        from repro.topology import build_hardware

        # Both CDCL engines drop tautologies, so the frontend never
        # deploys one: probe only the clauses it can.
        table = formula.table
        encoding = encode_formula(
            ClauseTable(table.lits[~table.tautological()]), formula.num_vars
        )
        hardware = build_hardware(qpu.topology, qpu.grid)
        embedded = HyQSatEmbedder(hardware).embed(encoding)
        placed = (embedded.num_embedded, len(encoding.clauses))
        self._probe_cache[key] = placed
        while len(self._probe_cache) > PROBE_CACHE_ENTRIES:
            del self._probe_cache[next(iter(self._probe_cache))]
        return placed

    def route(self, formula, fp: str) -> RoutingDecision:
        """Pick the device for ``formula``, whose fingerprint is
        ``fp``: the smallest full fit, else the best partial."""
        best: Optional[RoutingDecision] = None
        for qpu in self._probe_order:
            embedded, total = self._probe(formula, fp, qpu)
            if embedded >= total:
                best = RoutingDecision(qpu, embedded, total, fits=True)
                break
            if best is None or embedded > best.embedded_clauses:
                best = RoutingDecision(qpu, embedded, total, fits=False)
        assert best is not None  # fleet is non-empty
        return best
