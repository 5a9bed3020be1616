"""The Chimera hardware graph (Section II-D, Figure 3).

A Chimera lattice ``C(rows, cols, shore)`` is a grid of unit cells.
Each cell holds ``shore`` *vertical* qubits and ``shore`` *horizontal*
qubits, fully connected to each other inside the cell (K_{shore,shore}
via the "diagonal" couplers of Figure 3).  Vertical qubits couple to
the same-position vertical qubit of the cells above/below; horizontal
qubits couple left/right.  D-Wave 2000Q is ``C(16, 16, 4)`` with 2048
qubits.

Two derived abstractions drive HyQSAT's embedding scheme:

- a **vertical line** ``(col, unit)`` — the chain of ``rows`` vertical
  qubits running down one cell column; there are ``cols * shore`` of
  them and each crosses every horizontal line.
- a **horizontal line** ``(row, unit)`` — the chain of ``cols``
  horizontal qubits running across one cell row.

A vertical and a horizontal line intersect in exactly one cell, where
the intra-cell coupler between their member qubits realises a
problem-graph edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np


@dataclass(frozen=True, order=True)
class QubitCoord:
    """Position of a qubit: cell (row, col), side, in-shore unit.

    ``side`` is 0 for vertical qubits and 1 for horizontal qubits.
    """

    row: int
    col: int
    side: int
    unit: int

    def __post_init__(self) -> None:
        if self.side not in (0, 1):
            raise ValueError(f"side must be 0 (vertical) or 1 (horizontal), got {self.side}")

    @property
    def is_vertical(self) -> bool:
        """True for a vertical-side qubit."""
        return self.side == 0

    @property
    def is_horizontal(self) -> bool:
        """True for a horizontal-side qubit."""
        return self.side == 1


@dataclass(frozen=True, order=True)
class VerticalLine:
    """A full-height vertical line: all vertical qubits at (col, unit)."""

    col: int
    unit: int


@dataclass(frozen=True, order=True)
class HorizontalLine:
    """A full-width horizontal line: all horizontal qubits at (row, unit)."""

    row: int
    unit: int


class ChimeraGraph:
    """A Chimera lattice with integer qubit ids.

    Qubit ids are dense: ``id = ((row * cols + col) * 2 + side) * shore
    + unit``.  Optionally a set of *broken* qubits can be marked
    unusable, as on real annealers where the working graph is a
    subgraph of the full lattice.
    """

    def __init__(
        self,
        rows: int = 16,
        cols: Optional[int] = None,
        shore: int = 4,
        broken_qubits: Sequence[int] = (),
    ):
        if rows < 1:
            raise ValueError(f"rows must be >= 1, got {rows}")
        if shore < 1:
            raise ValueError(f"shore must be >= 1, got {shore}")
        self.rows = rows
        self.cols = cols if cols is not None else rows
        if self.cols < 1:
            raise ValueError(f"cols must be >= 1, got {self.cols}")
        self.shore = shore
        self.broken_qubits: FrozenSet[int] = frozenset(broken_qubits)
        for qubit in self.broken_qubits:
            if not 0 <= qubit < self.num_qubits:
                raise ValueError(f"broken qubit {qubit} outside 0..{self.num_qubits - 1}")
        self._adjacency_cache: Optional[List[List[int]]] = None

    # ------------------------------------------------------------------
    # Size and id arithmetic
    # ------------------------------------------------------------------

    @property
    def num_qubits(self) -> int:
        """Total qubit count (including broken ones)."""
        return self.rows * self.cols * 2 * self.shore

    @property
    def num_working_qubits(self) -> int:
        """Usable qubit count."""
        return self.num_qubits - len(self.broken_qubits)

    def qubit_id(self, coord: QubitCoord) -> int:
        """Dense integer id of a coordinate."""
        if not (0 <= coord.row < self.rows and 0 <= coord.col < self.cols):
            raise ValueError(f"cell ({coord.row},{coord.col}) outside the lattice")
        if not 0 <= coord.unit < self.shore:
            raise ValueError(f"unit {coord.unit} outside shore 0..{self.shore - 1}")
        return ((coord.row * self.cols + coord.col) * 2 + coord.side) * self.shore + coord.unit

    def coord(self, qubit: int) -> QubitCoord:
        """Coordinate of a dense qubit id."""
        if not 0 <= qubit < self.num_qubits:
            raise ValueError(f"qubit {qubit} outside 0..{self.num_qubits - 1}")
        unit = qubit % self.shore
        rest = qubit // self.shore
        side = rest % 2
        rest //= 2
        return QubitCoord(row=rest // self.cols, col=rest % self.cols, side=side, unit=unit)

    def is_working(self, qubit: int) -> bool:
        """Whether the qubit is usable."""
        return 0 <= qubit < self.num_qubits and qubit not in self.broken_qubits

    # ------------------------------------------------------------------
    # Adjacency
    # ------------------------------------------------------------------

    def neighbors(self, qubit: int) -> List[int]:
        """Working neighbours of ``qubit`` (empty if it is broken).

        Backed by a lazily built adjacency cache: the first call pays
        O(num_qubits), later calls are list lookups (the embedders and
        the chain compiler query adjacency heavily).
        """
        if self._adjacency_cache is None:
            self._adjacency_cache = [
                self._compute_neighbors(q) for q in range(self.num_qubits)
            ]
        if not 0 <= qubit < self.num_qubits:
            return []
        return self._adjacency_cache[qubit]

    def _compute_neighbors(self, qubit: int) -> List[int]:
        if not self.is_working(qubit):
            return []
        c = self.coord(qubit)
        out: List[int] = []
        if c.is_vertical:
            # Intra-cell: all horizontal qubits of the same cell.
            for unit in range(self.shore):
                out.append(self.qubit_id(QubitCoord(c.row, c.col, 1, unit)))
            # Inter-cell: same line, row +/- 1.
            if c.row > 0:
                out.append(self.qubit_id(QubitCoord(c.row - 1, c.col, 0, c.unit)))
            if c.row < self.rows - 1:
                out.append(self.qubit_id(QubitCoord(c.row + 1, c.col, 0, c.unit)))
        else:
            for unit in range(self.shore):
                out.append(self.qubit_id(QubitCoord(c.row, c.col, 0, unit)))
            if c.col > 0:
                out.append(self.qubit_id(QubitCoord(c.row, c.col - 1, 1, c.unit)))
            if c.col < self.cols - 1:
                out.append(self.qubit_id(QubitCoord(c.row, c.col + 1, 1, c.unit)))
        return [q for q in out if q not in self.broken_qubits]

    def has_coupler(self, q1: int, q2: int) -> bool:
        """Whether a working coupler joins ``q1`` and ``q2``."""
        if not (self.is_working(q1) and self.is_working(q2)) or q1 == q2:
            return False
        c1, c2 = self.coord(q1), self.coord(q2)
        if c1.row == c2.row and c1.col == c2.col:
            return c1.side != c2.side
        if c1.side != c2.side:
            return False
        if c1.side == 0:
            return c1.col == c2.col and c1.unit == c2.unit and abs(c1.row - c2.row) == 1
        return c1.row == c2.row and c1.unit == c2.unit and abs(c1.col - c2.col) == 1

    def couplers(self) -> Iterator[Tuple[int, int]]:
        """All working couplers, each yielded once with q1 < q2."""
        for qubit in range(self.num_qubits):
            if qubit in self.broken_qubits:
                continue
            for other in self.neighbors(qubit):
                if qubit < other:
                    yield (qubit, other)

    @property
    def num_couplers(self) -> int:
        """Count of working couplers."""
        return sum(1 for _ in self.couplers())

    @cached_property
    def coupler_array(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every working coupler as ``(q1, q2)`` id arrays, ``q1 < q2``,
        in :meth:`couplers` order; built from :meth:`neighbors` on first
        use, so subclass couplers and broken qubits are covered."""
        adjacency = [self.neighbors(q) for q in range(self.num_qubits)]
        first = np.repeat(np.arange(self.num_qubits), [len(n) for n in adjacency])
        second = np.array([q for n in adjacency for q in n], dtype=np.int64)
        ordered = first < second
        return first[ordered], second[ordered]

    @cached_property
    def coupler_rows(self) -> np.ndarray:
        """Where each qubit's rows of :attr:`coupler_array` (those with
        it as the lower end) start, then the row count."""
        first, _ = self.coupler_array
        return np.searchsorted(first, np.arange(self.num_qubits + 1))

    # ------------------------------------------------------------------
    # Line abstraction (HyQSAT embedding, Section IV-B)
    # ------------------------------------------------------------------

    @property
    def num_vertical_lines(self) -> int:
        """``cols * shore`` full-height vertical lines."""
        return self.cols * self.shore

    @property
    def num_horizontal_lines(self) -> int:
        """``rows * shore`` full-width horizontal lines."""
        return self.rows * self.shore

    def vertical_lines(self) -> List[VerticalLine]:
        """All vertical lines, ordered left-to-right then by unit."""
        return [
            VerticalLine(col=col, unit=unit)
            for col in range(self.cols)
            for unit in range(self.shore)
        ]

    def horizontal_lines_bottom_up(self) -> List[HorizontalLine]:
        """All horizontal lines, bottom row first (the step-2 order)."""
        return [
            HorizontalLine(row=row, unit=unit)
            for row in range(self.rows - 1, -1, -1)
            for unit in range(self.shore)
        ]

    @cached_property
    def line_qubits(self) -> Tuple[List[List[int]], List[List[int]]]:
        """``(vertical, horizontal)`` qubit ids of every line, built on
        first use: ``vertical[col * shore + unit]`` runs top row to
        bottom row, ``horizontal[row * shore + unit]`` left to right."""
        shore, cols = self.shore, self.cols
        vertical = [
            [(row * cols + col) * 2 * shore + unit for row in range(self.rows)]
            for col in range(cols)
            for unit in range(shore)
        ]
        horizontal = [
            [((row * cols + col) * 2 + 1) * shore + unit for col in range(cols)]
            for row in range(self.rows)
            for unit in range(shore)
        ]
        return vertical, horizontal

    def vertical_line_qubits(self, line: VerticalLine) -> List[int]:
        """Qubit ids of a vertical line, top row to bottom row."""
        return list(self.line_qubits[0][self.vertical_line_index(line)])

    def horizontal_line_qubits(self, line: HorizontalLine) -> List[int]:
        """Qubit ids of a horizontal line, left to right."""
        return list(self.line_qubits[1][line.row * self.shore + line.unit])

    def vertical_line_of(self, qubit: int) -> Optional[VerticalLine]:
        """The vertical line containing ``qubit`` (None for horizontal)."""
        c = self.coord(qubit)
        if not c.is_vertical:
            return None
        return VerticalLine(col=c.col, unit=c.unit)

    def vertical_line_index(self, line: VerticalLine) -> int:
        """Dense index of a vertical line in left-to-right order."""
        return line.col * self.shore + line.unit

    def crossing_qubits(
        self, vline: VerticalLine, hline: HorizontalLine
    ) -> Tuple[int, int]:
        """The (vertical, horizontal) qubit pair where two lines cross.

        The pair is intra-cell adjacent, so a coupler joins them.
        """
        vq = self.qubit_id(QubitCoord(hline.row, vline.col, 0, vline.unit))
        hq = self.qubit_id(QubitCoord(hline.row, vline.col, 1, hline.unit))
        return vq, hq

    def __repr__(self) -> str:
        return (
            f"ChimeraGraph(rows={self.rows}, cols={self.cols}, shore={self.shore}, "
            f"qubits={self.num_working_qubits})"
        )
