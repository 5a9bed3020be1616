"""QA hardware topology models.

The paper targets D-Wave 2000Q, whose working graph is a Chimera
C16 lattice: a 16x16 grid of unit cells, each a complete bipartite
K4,4 between 4 "vertical" and 4 "horizontal" qubits (Figure 3).
:class:`~repro.topology.chimera.ChimeraGraph` models arbitrary grid
sizes (Table III scales to 64x64) and exposes the vertical/horizontal
*line* abstraction HyQSAT's embedder is built on.
:class:`~repro.topology.pegasus.PegasusGraph` densifies the same
lattice Pegasus-style (odd + cross-cell couplers) to probe the
Table III claim that denser topologies shorten embedding chains.

:func:`build_hardware` is the single factory the service and gateway
layers use to turn a ``(topology, grid)`` pair into a hardware graph;
it builds each lattice once per process.
"""

import threading
from typing import Dict, Tuple

from repro.topology.chimera import (
    ChimeraGraph,
    HorizontalLine,
    QubitCoord,
    VerticalLine,
)
from repro.topology.pegasus import PegasusGraph

#: Topology name -> graph class, the registry behind ``--topology``.
TOPOLOGIES = {
    "chimera": ChimeraGraph,
    "pegasus": PegasusGraph,
}


#: The graphs :func:`build_hardware` made, one per lattice.
_BUILT: Dict[Tuple[str, int, int], ChimeraGraph] = {}
_BUILT_LOCK = threading.Lock()


def build_hardware(topology: str = "chimera", grid: int = 16, shore: int = 4):
    """The ``grid x grid`` hardware graph of the named topology.

    The single construction path shared by ``build_device``, the
    default :class:`~repro.annealer.device.AnnealerDevice`, and the
    gateway fleet, so a ``(topology, grid)`` pair always means the same
    graph (the bit-identity contract depends on this).  Each lattice is
    built once per process and shared: a graph never changes after
    construction, and the tables it builds on first use (adjacency,
    coupler array, line qubits) come out the same whichever thread
    builds them, so every job on a lattice after the first reuses them.
    """
    try:
        cls = TOPOLOGIES[topology]
    except KeyError:
        raise ValueError(
            f"unknown topology {topology!r}; expected one of {sorted(TOPOLOGIES)}"
        ) from None
    if grid < 1:
        raise ValueError(f"grid must be >= 1, got {grid}")
    key = (topology, grid, shore)
    with _BUILT_LOCK:
        if key not in _BUILT:
            _BUILT[key] = cls(rows=grid, cols=grid, shore=shore)
        return _BUILT[key]


__all__ = [
    "ChimeraGraph",
    "HorizontalLine",
    "PegasusGraph",
    "QubitCoord",
    "TOPOLOGIES",
    "VerticalLine",
    "build_hardware",
]
