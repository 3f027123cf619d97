"""Circuit model: text format, simulation kernels, output split."""
import numpy as np
import pytest

from eigensample import (
    BasisLabel,
    Circuit,
    DimensionMismatch,
    Gate,
    GATE_MATRICES,
    ParseError,
    StateVector,
    TooLarge,
    apply_circuit,
    apply_gate,
    circuit_diagonal,
    circuit_unitary,
    gate_unitary,
    invert_circuit,
    named_gate,
    output_split,
    parse_circuit,
    serialize_circuit,
)
from eigensample.circuits import DIAGONAL_BLOCK_AMPLITUDES, MAX_STATEVECTOR_QUBITS
from eigensample.linalg import is_unitary
from _gate_level import apply_gate_controlled
from _helpers import haar_unitary, random_circuit, random_state

EXACT_TOL = 1e-12
UNITARY_TOL = 1e-9
SQ2 = 1.0 / np.sqrt(2.0)

BELL_TEXT = "qubits 2\nh 0\ncnot 0 1\n"


NINE_DIGIT_HADAMARD = "u1 0 0.707106781 0 0.707106781 0 0.707106781 0 -0.707106781 0"


class TestParse:
    def test_bell(self):
        c = parse_circuit(BELL_TEXT)
        assert c.qubit_count == 2
        assert [g.name for g in c.gates] == ["h", "cnot"]
        assert c.gates[1].support == (0, 1)

    def test_unknown_gate_reports_line(self):
        with pytest.raises(ParseError, match="foo") as info:
            parse_circuit("qubits 1\nfoo 0\n")
        assert info.value.line == 2

    def test_u1_identity(self):
        c = parse_circuit("qubits 1\nu1 0 1 0 0 0 0 0 1 0\n")
        assert np.array_equal(c.gates[0].matrix, np.eye(2))

    def test_u1_rejects_non_unitary(self):
        with pytest.raises(ParseError, match="not unitary"):
            parse_circuit("qubits 1\nu1 0 1 0 0 0 0 0 2 0\n")

    def test_u1_parses_what_the_eigensolver_accepts(self):
        # a 9-digit Hadamard is 1.6e-9 from unitary and fails the
        # eigensolver's check (1e-10), so parsing refuses it, naming the line
        with pytest.raises(ParseError, match="not unitary") as info:
            parse_circuit(f"qubits 1\nx 0\n{NINE_DIGIT_HADAMARD}\n")
        assert info.value.line == 3
        r = format(1.0 / np.sqrt(2.0), ".17g")
        c = parse_circuit(f"qubits 1\nu1 0 {r} 0 {r} 0 {r} 0 -{r} 0\n")
        assert is_unitary(c.gates[0].matrix)

    def test_u2(self):
        entries = " ".join(["1 0 0 0 0 0 0 0",
                            "0 0 1 0 0 0 0 0",
                            "0 0 0 0 0 0 1 0",
                            "0 0 0 0 1 0 0 0"])
        c = parse_circuit(f"qubits 2\nu2 0 1 {entries}\n")
        assert np.array_equal(c.gates[0].matrix, GATE_MATRICES["cnot"])

    def test_comments_and_blanks(self):
        c = parse_circuit("# header\n\nqubits 1\nx 0  # flip\n")
        assert len(c.gates) == 1

    def test_qubits_must_come_first(self):
        with pytest.raises(ParseError) as info:
            parse_circuit("h 0\nqubits 1\n")
        assert info.value.line == 1

    def test_duplicate_qubits_directive(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_circuit("qubits 1\nqubits 2\n")

    def test_qubit_out_of_range(self):
        with pytest.raises(ParseError, match="out of range"):
            parse_circuit("qubits 2\nh 2\n")

    def test_two_qubit_gate_needs_distinct_qubits(self):
        with pytest.raises(ParseError, match="repeated"):
            parse_circuit("qubits 2\ncnot 1 1\n")

    def test_wrong_argument_count(self):
        with pytest.raises(ParseError, match="argument"):
            parse_circuit("qubits 2\ncnot 0\n")

    def test_missing_qubits_directive(self):
        with pytest.raises(ParseError):
            parse_circuit("# nothing here\n")

    def test_round_trip(self):
        rng = np.random.default_rng(11)
        c = random_circuit(3, 12, rng)
        assert parse_circuit(serialize_circuit(c)) == c


class TestInvert:
    def test_self_adjoint_names(self):
        c = Circuit(1, [named_gate("h", 0)])
        assert invert_circuit(c).gates[0].name == "h"

    def test_adjoint_renames(self):
        c = Circuit(1, [named_gate("s", 0), named_gate("t", 0)])
        assert [g.name for g in invert_circuit(c).gates] == ["tdg", "sdg"]

    def test_composition_is_identity(self):
        rng = np.random.default_rng(12)
        c = random_circuit(4, 20, rng)
        psi = random_state(4, rng)
        back = apply_circuit(invert_circuit(c), apply_circuit(c, psi))
        assert np.max(np.abs(back.amplitudes - psi.amplitudes)) < EXACT_TOL

    def test_matrix_is_adjoint(self):
        rng = np.random.default_rng(13)
        c = random_circuit(3, 10, rng)
        u = circuit_unitary(c)
        v = circuit_unitary(invert_circuit(c))
        assert np.max(np.abs(v - u.conj().T)) < EXACT_TOL


class TestApply:
    def test_hadamard(self):
        out = apply_gate(StateVector.basis(1), named_gate("h", 0))
        assert np.allclose(out.amplitudes, [SQ2, SQ2])

    def test_bell_preparation(self):
        out = apply_circuit(parse_circuit(BELL_TEXT), StateVector.basis(2))
        assert np.allclose(out.amplitudes, [SQ2, 0.0, 0.0, SQ2])

    def test_empty_circuit_is_identity(self):
        assert np.max(np.abs(circuit_unitary(Circuit(2)) - np.eye(4))) < EXACT_TOL

    def test_x_unitary(self):
        u = circuit_unitary(Circuit(1, [named_gate("x", 0)]))
        assert np.array_equal(u, [[0, 1], [1, 0]])

    def test_random_circuit_unitarity(self):
        rng = np.random.default_rng(14)
        u = circuit_unitary(random_circuit(6, 40, rng))
        assert np.max(np.abs(u.conj().T @ u - np.eye(64))) < UNITARY_TOL

    def test_simulation_matches_unitary(self):
        rng = np.random.default_rng(15)
        c = random_circuit(3, 15, rng)
        u = circuit_unitary(c)
        psi = random_state(3, rng)
        out = apply_circuit(c, psi)
        assert np.max(np.abs(out.amplitudes - u @ psi.amplitudes)) < 1e-10

    def test_clock_register_untouched(self):
        # gates act identically on every clock sector
        rng = np.random.default_rng(16)
        sys = random_state(2, rng)
        clock = np.array([0.6, 0.8j, 0.0])
        psi = StateVector(2, 3, np.kron(sys.amplitudes, clock))
        out = apply_gate(psi, named_gate("h", 1))
        sys_out = apply_gate(sys, named_gate("h", 1))
        assert np.max(np.abs(out.amplitudes - np.kron(sys_out.amplitudes, clock))) < EXACT_TOL

    def test_gate_beyond_register(self):
        with pytest.raises(DimensionMismatch):
            apply_gate(StateVector.basis(1), named_gate("x", 1))

    def test_circuit_state_mismatch(self):
        with pytest.raises(DimensionMismatch):
            apply_circuit(Circuit(2), StateVector.basis(3))

    def test_dense_unitary_size_cap(self):
        with pytest.raises(TooLarge):
            circuit_unitary(Circuit(13))
        with pytest.raises(TooLarge):
            gate_unitary(named_gate("x", 0), 13)


class TestDiagonal:
    def test_matches_dense_diagonal(self):
        n = 12
        circ = random_circuit(n, 6, np.random.default_rng(17))
        idx = np.random.default_rng(18).choice(2**n, 200, replace=False)
        # more indices than three column blocks hold
        assert idx.size > 3 * (DIAGONAL_BLOCK_AMPLITUDES >> n)
        expected = np.diag(circuit_unitary(circ))[idx]
        assert np.max(np.abs(circuit_diagonal(circ, idx) - expected)) <= 1e-12

    def test_repeated_unsorted_and_empty_indices(self):
        circ = random_circuit(3, 10, np.random.default_rng(19))
        idx = [5, 0, 5, 7, 2]
        expected = np.diag(circuit_unitary(circ))[idx]
        assert np.max(np.abs(circuit_diagonal(circ, idx) - expected)) <= 1e-12
        assert circuit_diagonal(circ, []).shape == (0,)

    def test_width_cap_before_allocation(self):
        # 25 qubits would be a 512 MiB column: refused before it is allocated
        assert MAX_STATEVECTOR_QUBITS == 24
        wide = Circuit(MAX_STATEVECTOR_QUBITS + 1, [named_gate("h", 0)])
        with pytest.raises(TooLarge, match="24 qubits"):
            circuit_diagonal(wide, [0])


class TestControlled:
    def dense_controlled(self, gate, control, n):
        dim = 2**n
        idx = np.arange(dim)
        ctrl_bit = (idx >> (n - 1 - control)) & 1
        p0 = np.diag((ctrl_bit == 0).astype(complex))
        p1 = np.diag((ctrl_bit == 1).astype(complex))
        return p0 + gate_unitary(gate, n) @ p1

    def test_matches_block_matrix(self):
        rng = np.random.default_rng(17)
        for control, support in ((0, (1, 2)), (2, (0, 1)), (1, (2,))):
            gate = Gate("u%d" % len(support), support, haar_unitary(2 ** len(support), rng))
            dense = self.dense_controlled(gate, control, 3)
            psi = random_state(3, rng)
            out = apply_gate_controlled(psi, gate, control)
            assert np.max(np.abs(out.amplitudes - dense @ psi.amplitudes)) < EXACT_TOL

    def test_control_zero_branch_unchanged(self):
        psi = StateVector.from_label(BasisLabel("01"))
        out = apply_gate_controlled(psi, named_gate("x", 1), 0)
        assert np.array_equal(out.amplitudes, psi.amplitudes)

    def test_control_overlapping_support_rejected(self):
        with pytest.raises(ValueError):
            apply_gate_controlled(StateVector.basis(2), named_gate("x", 0), 0)


class TestOutputSplit:
    def test_x_is_deterministic_accept(self):
        split = output_split(Circuit(2, [named_gate("x", 0)]), BasisLabel("00"))
        assert abs(split.alpha0) < EXACT_TOL
        assert abs(split.alpha1 - 1.0) < EXACT_TOL
        assert split.psi0 is None
        assert np.allclose(split.psi1.amplitudes, [1.0, 0.0])

    def test_hadamard_splits_evenly(self):
        split = output_split(Circuit(2, [named_gate("h", 0)]), BasisLabel("00"))
        assert abs(abs(split.alpha0) ** 2 - 0.5) < EXACT_TOL
        assert abs(abs(split.alpha1) ** 2 - 0.5) < EXACT_TOL

    def test_branch_weight_is_top_half_mass(self):
        rng = np.random.default_rng(21)
        c = random_circuit(3, 12, rng)
        out = apply_circuit(c, StateVector.basis(3))
        split = output_split(c, BasisLabel("000"))
        top = np.sum(np.abs(out.amplitudes[:4]) ** 2)
        assert abs(abs(split.alpha0) ** 2 - top) < EXACT_TOL

    def test_reconstruction_and_phase_convention(self):
        rng = np.random.default_rng(22)
        c = random_circuit(3, 12, rng)
        split = output_split(c, BasisLabel("010"))
        rebuilt = np.concatenate([
            split.alpha0 * split.psi0.amplitudes,
            split.alpha1 * split.psi1.amplitudes,
        ])
        out = apply_circuit(c, StateVector.from_label(BasisLabel("010")))
        assert np.max(np.abs(rebuilt - out.amplitudes)) < EXACT_TOL
        for psi in (split.psi0, split.psi1):
            lead = psi.amplitudes[np.flatnonzero(np.abs(psi.amplitudes) > 1e-12)[0]]
            assert abs(lead.imag) < EXACT_TOL and lead.real > 0.0

    def test_label_size_checked(self):
        with pytest.raises(DimensionMismatch):
            output_split(Circuit(2), BasisLabel("0"))


class TestStateVector:
    def test_norm_enforced(self):
        with pytest.raises(ValueError, match="normalized"):
            StateVector(1, 1, np.array([1.0, 1.0]))

    def test_from_label_with_clock(self):
        psi = StateVector.from_label(BasisLabel("10", 2), clock_dim=3)
        # flat index = basis * clock_dim + clock = 2 * 3 + 2
        assert psi.amplitudes[8] == 1.0
        assert np.sum(np.abs(psi.amplitudes)) == 1.0

    def test_label_validation(self):
        with pytest.raises(ValueError):
            BasisLabel("012")
        with pytest.raises(DimensionMismatch):
            StateVector.from_label(BasisLabel("0", 4), clock_dim=2)


def test_gate_validation():
    with pytest.raises(ValueError, match="repeated"):
        Gate("swap", (1, 1), GATE_MATRICES["swap"])
    with pytest.raises(DimensionMismatch):
        Gate("u1", (0,), np.eye(4))


def test_gate_unitary_embedding():
    # cnot on (0, 1) of a 2-qubit register is the matrix itself
    assert np.array_equal(gate_unitary(named_gate("cnot", 0, 1), 2), GATE_MATRICES["cnot"])
    # z on qubit 1 of 2 = I (x) Z
    assert np.allclose(gate_unitary(named_gate("z", 1), 2), np.kron(np.eye(2), GATE_MATRICES["z"]))
    # reversed support permutes the gate basis
    swapped = gate_unitary(named_gate("cnot", 1, 0), 2)
    expected = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex)
    assert np.array_equal(swapped, expected)
