"""Tests for the Chimera hardware graph."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.topology.chimera import ChimeraGraph, HorizontalLine, QubitCoord, VerticalLine


class TestGeometry:
    def test_2000q_size(self, c16_hardware):
        assert c16_hardware.num_qubits == 2048
        assert c16_hardware.num_vertical_lines == 64
        assert c16_hardware.num_horizontal_lines == 64

    def test_coupler_count_c16(self, c16_hardware):
        # Intra-cell: 256 cells * 16; inter-cell vertical: 15*16*4;
        # inter-cell horizontal: 16*15*4.
        expected = 256 * 16 + 15 * 16 * 4 + 16 * 15 * 4
        assert c16_hardware.num_couplers == expected

    def test_id_coord_roundtrip(self, small_hardware):
        for qubit in range(small_hardware.num_qubits):
            coord = small_hardware.coord(qubit)
            assert small_hardware.qubit_id(coord) == qubit

    def test_coord_validation(self, small_hardware):
        with pytest.raises(ValueError):
            small_hardware.qubit_id(QubitCoord(99, 0, 0, 0))
        with pytest.raises(ValueError):
            small_hardware.qubit_id(QubitCoord(0, 0, 0, 9))
        with pytest.raises(ValueError):
            small_hardware.coord(-1)
        with pytest.raises(ValueError):
            QubitCoord(0, 0, 2, 0)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ChimeraGraph(0)
        with pytest.raises(ValueError):
            ChimeraGraph(2, cols=0)
        with pytest.raises(ValueError):
            ChimeraGraph(2, shore=0)
        with pytest.raises(ValueError):
            ChimeraGraph(2, broken_qubits=[9999])

    def test_rectangular_grid(self):
        hw = ChimeraGraph(2, cols=3, shore=4)
        assert hw.num_qubits == 2 * 3 * 8
        assert hw.num_vertical_lines == 12
        assert hw.num_horizontal_lines == 8


class TestAdjacency:
    def test_intra_cell_k44(self, small_hardware):
        vq = small_hardware.qubit_id(QubitCoord(1, 1, 0, 2))
        horizontals = [
            small_hardware.qubit_id(QubitCoord(1, 1, 1, u)) for u in range(4)
        ]
        neighbors = small_hardware.neighbors(vq)
        assert all(h in neighbors for h in horizontals)

    def test_vertical_qubits_not_coupled_in_cell(self, small_hardware):
        q1 = small_hardware.qubit_id(QubitCoord(0, 0, 0, 0))
        q2 = small_hardware.qubit_id(QubitCoord(0, 0, 0, 1))
        assert not small_hardware.has_coupler(q1, q2)

    def test_inter_cell_vertical(self, small_hardware):
        q1 = small_hardware.qubit_id(QubitCoord(0, 2, 0, 3))
        q2 = small_hardware.qubit_id(QubitCoord(1, 2, 0, 3))
        assert small_hardware.has_coupler(q1, q2)

    def test_inter_cell_horizontal(self, small_hardware):
        q1 = small_hardware.qubit_id(QubitCoord(2, 0, 1, 1))
        q2 = small_hardware.qubit_id(QubitCoord(2, 1, 1, 1))
        assert small_hardware.has_coupler(q1, q2)

    def test_no_diagonal_cell_coupling(self, small_hardware):
        q1 = small_hardware.qubit_id(QubitCoord(0, 0, 0, 0))
        q2 = small_hardware.qubit_id(QubitCoord(1, 1, 0, 0))
        assert not small_hardware.has_coupler(q1, q2)

    def test_adjacency_symmetric(self, small_hardware):
        for qubit in range(small_hardware.num_qubits):
            for other in small_hardware.neighbors(qubit):
                assert qubit in small_hardware.neighbors(other)

    def test_no_self_coupling(self, small_hardware):
        assert not small_hardware.has_coupler(3, 3)

    def test_working_graph_connected(self, small_hardware):
        """A BFS over ``neighbors()`` reaches every qubit, and the
        adjacency holds each coupler once per end."""
        reached = {0}
        frontier = [0]
        while frontier:
            qubit = frontier.pop()
            for other in small_hardware.neighbors(qubit):
                if other not in reached:
                    reached.add(other)
                    frontier.append(other)
        assert reached == set(range(small_hardware.num_qubits))
        ends = sum(
            len(small_hardware.neighbors(q))
            for q in range(small_hardware.num_qubits)
        )
        assert ends == 2 * small_hardware.num_couplers

    def test_degree_bounds(self, small_hardware):
        # Chimera degree is at most shore + 2.
        for qubit in range(small_hardware.num_qubits):
            assert len(small_hardware.neighbors(qubit)) <= small_hardware.shore + 2


class TestBrokenQubits:
    def test_broken_qubit_isolated(self):
        hw = ChimeraGraph(2, 2, 4, broken_qubits=[5])
        assert not hw.is_working(5)
        assert hw.neighbors(5) == []
        assert all(5 not in hw.neighbors(q) for q in range(hw.num_qubits))

    def test_working_count(self):
        hw = ChimeraGraph(2, 2, 4, broken_qubits=[0, 1])
        assert hw.num_working_qubits == hw.num_qubits - 2

    def test_couplers_skip_broken(self):
        full = ChimeraGraph(2, 2, 4)
        broken = ChimeraGraph(2, 2, 4, broken_qubits=[0])
        assert broken.num_couplers < full.num_couplers


class TestLines:
    def test_vertical_lines_cover_columns(self, small_hardware):
        lines = small_hardware.vertical_lines()
        assert len(lines) == small_hardware.num_vertical_lines
        assert lines[0] == VerticalLine(0, 0)

    def test_vertical_line_qubits_are_a_chain(self, small_hardware):
        line = VerticalLine(col=2, unit=1)
        qubits = small_hardware.vertical_line_qubits(line)
        assert len(qubits) == small_hardware.rows
        for a, b in zip(qubits, qubits[1:]):
            assert small_hardware.has_coupler(a, b)

    def test_horizontal_line_qubits_are_a_chain(self, small_hardware):
        line = HorizontalLine(row=1, unit=3)
        qubits = small_hardware.horizontal_line_qubits(line)
        assert len(qubits) == small_hardware.cols
        for a, b in zip(qubits, qubits[1:]):
            assert small_hardware.has_coupler(a, b)

    def test_bottom_up_order(self, small_hardware):
        lines = small_hardware.horizontal_lines_bottom_up()
        assert lines[0].row == small_hardware.rows - 1
        assert lines[-1].row == 0

    def test_crossing_qubits_coupled(self, small_hardware):
        vline = VerticalLine(col=1, unit=2)
        hline = HorizontalLine(row=3, unit=0)
        vq, hq = small_hardware.crossing_qubits(vline, hline)
        assert small_hardware.has_coupler(vq, hq)
        assert small_hardware.coord(vq).is_vertical
        assert small_hardware.coord(hq).is_horizontal
        assert vq in small_hardware.vertical_line_qubits(vline)
        assert hq in small_hardware.horizontal_line_qubits(hline)

    def test_vertical_line_of(self, small_hardware):
        vq = small_hardware.qubit_id(QubitCoord(2, 1, 0, 3))
        assert small_hardware.vertical_line_of(vq) == VerticalLine(1, 3)
        hq = small_hardware.qubit_id(QubitCoord(2, 1, 1, 3))
        assert small_hardware.vertical_line_of(hq) is None

    def test_vertical_line_index_dense(self, small_hardware):
        indices = [
            small_hardware.vertical_line_index(l)
            for l in small_hardware.vertical_lines()
        ]
        assert indices == list(range(small_hardware.num_vertical_lines))


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=4),
)
def test_property_counts(rows, cols, shore):
    hw = ChimeraGraph(rows, cols, shore)
    assert hw.num_qubits == rows * cols * 2 * shore
    # Handshake: sum of degrees = 2 * couplers.
    degrees = sum(len(hw.neighbors(q)) for q in range(hw.num_qubits))
    assert degrees == 2 * hw.num_couplers
