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
    TooLarge,
    circuit_diagonal,
    circuit_unitary,
    invert_circuit,
    named_gate,
    output_split,
    parse_circuit,
)
from eigensample import circuits
from eigensample.circuits import (
    BLOCK_AMPLITUDES,
    apply_columns,
    circuit_components,
    FUSED_QUBITS,
    MAX_STATEVECTOR_QUBITS,
    _fuse,
    operator_line,
    read_operator,
    read_register,
)
from eigensample.linalg import is_unitary
from _gate_level import apply_gate_controlled
from _helpers import (
    basis_state,
    gate_by_gate_columns,
    grouped_circuit,
    haar_unitary,
    random_circuit,
    random_state,
    same_circuit,
    serialize_circuit,
)

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
        assert same_circuit(parse_circuit(serialize_circuit(c)), c)


class TestReader:
    """circuits.read_register and its operator decoder and writer, which
    parse_circuit and parse_hamiltonian share."""

    def test_lines_after_the_header_go_to_the_directive(self):
        seen = []
        text = "# lead\n\n  qubits 3 # three\nfoo 1  2\n\t# only a comment\nbar#x\n"
        assert read_register(text, lambda tokens, n: seen.append((tokens, n))) == 3
        assert seen == [(["foo", "1", "2"], 3), (["bar"], 3)]

    def test_directive_errors_name_their_line(self):
        def directive(tokens, n):
            raise ValueError(f"no {tokens[0]}")

        with pytest.raises(ParseError, match="line 3: no foo") as info:
            read_register("qubits 1\n\nfoo\n", directive)
        assert info.value.line == 3

    @pytest.mark.parametrize("text, message, line", [
        ("foo\nqubits 1\n", "must come first", 1),
        ("qubits x\n", "expected integer qubit count", 1),
        ("qubits 0\n", "n >= 1", 1),
        ("qubits 1 2\n", "n >= 1", 1),
    ])
    def test_header(self, text, message, line):
        with pytest.raises(ParseError, match=message) as info:
            read_register(text, lambda tokens, n: None)
        assert info.value.line == line

    def test_operator_line_round_trip(self):
        # 17 significant digits give every double back exactly
        matrix = np.array([[1 / 3, -1e-300 + 2j], [np.pi * 1j, -np.e + 5e-324j]])
        line = operator_line(["u1", 0], matrix)
        assert line.split()[:4] == ["u1", "0", "0.33333333333333331", "0"]
        support, again = read_operator(line.split()[1:], 1, 1, "u1")
        assert support == (0,)
        assert again.tobytes() == matrix.tobytes()
        assert operator_line(["x"], np.array([[-0.0]])) == "x -0 0"
        # signed zeros too, in either part of an entry
        zeros = np.array([[complex(-0.0, 0.0), complex(0.0, -0.0)],
                          [complex(-0.0, -0.0), complex(-0.0, 1.0)]])
        line = operator_line(["u1", 0], zeros)
        assert line.split()[2:] == ["-0", "0", "0", "-0", "-0", "-0", "-0", "1"]
        _, again = read_operator(line.split()[1:], 1, 1, "u1")
        assert again.tobytes() == zeros.tobytes()

    def test_operator_entry_count(self):
        with pytest.raises(ParseError, match="u2 takes 2 qubits then 32 reals"):
            read_operator(["0", "1", "1", "0"], 2, 2, "u2")

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
        psi = random_state(4, rng)[:, None]
        back = apply_columns(invert_circuit(c), apply_columns(c, psi))
        assert np.max(np.abs(back - psi)) < EXACT_TOL

    def test_matrix_is_adjoint(self):
        rng = np.random.default_rng(13)
        c = random_circuit(3, 10, rng)
        u = circuit_unitary(c)
        v = circuit_unitary(invert_circuit(c))
        assert np.max(np.abs(v - u.conj().T)) < EXACT_TOL


class TestApply:
    def test_hadamard(self):
        out = apply_columns(Circuit(1, [named_gate("h", 0)]), basis_state(1)[:, None])
        assert np.allclose(out[:, 0], [SQ2, SQ2])

    def test_bell_preparation(self):
        out = apply_columns(parse_circuit(BELL_TEXT), basis_state(2)[:, None])
        assert np.allclose(out[:, 0], [SQ2, 0.0, 0.0, SQ2])

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
        psi = random_state(3, rng)[:, None]
        out = apply_columns(c, psi)
        assert np.max(np.abs(out - u @ psi)) < 1e-10

    def test_columns_of_the_wrong_height_are_refused(self):
        bell = parse_circuit(BELL_TEXT)
        with pytest.raises(DimensionMismatch, match="columns are 8 tall, 2 qubits need 4"):
            apply_columns(bell, np.zeros((8, 1), dtype=complex))

    def test_dense_unitary_size_cap(self):
        with pytest.raises(TooLarge):
            circuit_unitary(Circuit(13))
        with pytest.raises(TooLarge):
            circuit_unitary(Circuit(13, [named_gate("x", 0)]))


class TestDiagonal:
    def test_matches_dense_diagonal(self):
        n = 12
        # a cnot chain joins every qubit, so the whole register is one pass
        chain = [named_gate("cnot", q, q + 1) for q in range(n - 1)]
        circ = Circuit(n, random_circuit(n, 6, np.random.default_rng(17)).gates + chain)
        assert len(circuit_components(circ)) == 1
        idx = np.random.default_rng(18).choice(2**n, 200, replace=False)
        # more indices than three column blocks hold
        assert idx.size > 3 * (BLOCK_AMPLITUDES >> n)
        expected = np.diag(circuit_unitary(circ))[idx]
        assert np.max(np.abs(circuit_diagonal(circ, idx) - expected)) <= 1e-12

    def test_repeated_unsorted_and_empty_indices(self):
        circ = random_circuit(3, 10, np.random.default_rng(19))
        idx = [5, 0, 5, 7, 2]
        expected = np.diag(circuit_unitary(circ))[idx]
        assert np.max(np.abs(circuit_diagonal(circ, idx) - expected)) <= 1e-12
        assert circuit_diagonal(circ, []).shape == (0,)

    @pytest.mark.parametrize("gates", [[("h", 0)], [("h", 0), ("cnot", 0, 1)]])
    @pytest.mark.parametrize("index", [-1, 4, 5])
    def test_index_outside_the_register_is_refused(self, gates, index):
        # on a grouped and on a connected 2-qubit circuit alike
        circ = Circuit(2, [named_gate(*g) for g in gates])
        with pytest.raises(DimensionMismatch, match=r"\[0, 4\)"):
            circuit_diagonal(circ, [0, index])

    def test_width_cap_before_allocation(self):
        # 25 qubits would be a 512 MiB column: refused before it is allocated
        assert MAX_STATEVECTOR_QUBITS == 24
        wide = Circuit(MAX_STATEVECTOR_QUBITS + 1, [named_gate("h", 0)])
        with pytest.raises(TooLarge, match="24 qubits"):
            circuit_diagonal(wide, [0])


def mixed_circuit(n, gate_count, rng):
    """random_circuit with reversed-support gates (cnot 3 1, u2 2 0, cz 1 0)
    spliced in at random places, where the register is wide enough."""
    gates = random_circuit(n, gate_count, rng).gates
    extra = [named_gate("cnot", 3, 1), Gate("u2", (2, 0), haar_unitary(4, rng)),
             named_gate("cz", 1, 0)]
    for gate in extra:
        if max(gate.support) < n:
            gates.insert(int(rng.integers(len(gates) + 1)), gate)
    return Circuit(n, gates)


def reference_diagonal(circ, idx):
    cols = np.eye(2**circ.qubit_count, dtype=complex)[:, idx]
    return gate_by_gate_columns(circ, cols)[idx, np.arange(len(idx))]


class TestFusedPass:
    """The fused, column-blocked pass against the gate-by-gate reference."""

    REF_TOL = 1e-13

    def assert_matches_reference(self, circ, rng, columns=3):
        n = circ.qubit_count
        if n <= 8:
            expected = gate_by_gate_columns(circ, np.eye(2**n))
            assert np.max(np.abs(circuit_unitary(circ) - expected)) <= self.REF_TOL
        idx = rng.choice(2**n, min(2**n, 37), replace=False)
        got = circuit_diagonal(circ, idx)
        assert np.max(np.abs(got - reference_diagonal(circ, idx))) <= self.REF_TOL
        psi = random_state(n, rng)[:, None]
        ref = gate_by_gate_columns(circ, psi)
        assert np.max(np.abs(apply_columns(circ, psi) - ref)) <= self.REF_TOL
        cols = np.stack([random_state(n, rng) for _ in range(columns)], axis=1)
        ref = gate_by_gate_columns(circ, cols)
        assert np.max(np.abs(apply_columns(circ, cols) - ref)) <= self.REF_TOL

    def test_random_circuits_match_gate_by_gate(self):
        rng = np.random.default_rng(41)
        for n in range(1, 13):
            self.assert_matches_reference(mixed_circuit(n, 3 * n + 2, rng), rng)

    def test_fused_and_unfused_runs(self):
        rng = np.random.default_rng(42)
        # every consecutive pair spans four qubits: nothing fuses
        unfused = Circuit(5, [
            named_gate("cnot", 3, 1), Gate("u2", (2, 0), haar_unitary(4, rng)),
            named_gate("swap", 1, 4), named_gate("cz", 0, 2), named_gate("cnot", 4, 3),
        ])
        # reversed supports inside one three-qubit run
        fused = Circuit(5, [
            named_gate("h", 3), named_gate("cnot", 3, 1), Gate("u2", (1, 3), haar_unitary(4, rng)),
            Gate("u2", (4, 1), haar_unitary(4, rng)), named_gate("t", 4), named_gate("cz", 3, 4),
            named_gate("x", 0),
        ])
        assert len(_fuse(unfused.gates)) == len(unfused.gates)
        assert [support for support, _ in _fuse(fused.gates)] == [(1, 3, 4), (0,)]
        for circ in (unfused, fused):
            self.assert_matches_reference(circ, rng)

    def test_blocks_respect_the_width(self):
        rng = np.random.default_rng(43)
        for n in (2, 3, 5, 8):
            gates = mixed_circuit(n, 40, rng).gates
            blocks = _fuse(gates)
            assert all(len(support) <= FUSED_QUBITS for support, _ in blocks)
            assert len(blocks) < len(gates)
        # a gate wider than the fusion width is a block of its own
        wide = Gate("u4", (3, 0, 2, 1), haar_unitary(16, rng))
        circ = Circuit(4, [named_gate("h", 0), wide, named_gate("x", 2)])
        assert [support for support, _ in _fuse(circ.gates)] == [(0,), (3, 0, 2, 1), (2,)]
        self.assert_matches_reference(circ, rng)

    @pytest.mark.parametrize("columns_per_block", [1, 3])
    def test_split_column_blocks(self, monkeypatch, columns_per_block):
        # 32 basis columns, 37 indices and 7 given columns all end in a partial block
        n = 5
        monkeypatch.setattr(circuits, "BLOCK_AMPLITUDES", columns_per_block * 2**n)
        rng = np.random.default_rng(44)
        self.assert_matches_reference(mixed_circuit(n, 20, rng), rng, columns=7)

    def test_one_column_matches_the_state_pass_bit_for_bit(self):
        rng = np.random.default_rng(45)
        circ = mixed_circuit(6, 20, rng)
        for b in (0, 17, 63):
            state = apply_columns(circ, basis_state(6, b)[:, None])
            assert circuit_diagonal(circ, [b])[0] == state[b, 0]


def tensor_of_components(circuit):
    """The circuit's unitary rebuilt as the tensor product of its
    components' unitaries and the identity on idle qubits."""
    n = circuit.qubit_count
    components = circuit_components(circuit)
    active = [q for qubits, _ in components for q in qubits]
    idle = [q for q in range(n) if q not in active]
    u = np.eye(2 ** len(idle), dtype=complex)
    for _, sub in reversed(components):
        u = np.kron(circuit_unitary(sub), u)
    # axes of u are the qubits in active + idle order, outputs then inputs
    order = active + idle
    perm = [order.index(q) for q in range(n)]
    u = u.reshape((2,) * (2 * n)).transpose(perm + [n + p for p in perm])
    return u.reshape(2**n, 2**n)


class TestComponents:
    def test_groups_are_split_and_relabelled(self):
        rng = np.random.default_rng(80)
        circuit = grouped_circuit(8, ((7, 0), (5, 3), (1, 2, 6)), 30, rng)
        components = circuit_components(circuit)
        assert [qubits for qubits, _ in components] == [(0, 7), (1, 2, 6), (3, 5)]
        for qubits, sub in components:
            mine = [g for g in circuit.gates if set(g.support) <= set(qubits)]
            assert sub.qubit_count == len(qubits)
            assert [g.name for g in sub.gates] == [g.name for g in mine]
            assert [tuple(qubits[i] for i in g.support) for g in sub.gates] == [
                g.support for g in mine
            ]
            assert all(a.matrix is b.matrix for a, b in zip(sub.gates, mine))

    @pytest.mark.parametrize("seed", range(5))
    def test_tensor_product_is_the_unitary(self, seed):
        rng = np.random.default_rng(90 + seed)
        n = int(rng.integers(4, 8))
        cuts = np.sort(rng.choice(np.arange(1, n), size=2, replace=False))
        groups = [tuple(map(int, g)) for g in np.split(rng.permutation(n), cuts)]
        # the last group stays idle
        circuit = grouped_circuit(n, groups[:-1], 4 * n, rng)
        assert len(circuit_components(circuit)) == 2
        assert np.max(np.abs(tensor_of_components(circuit) - circuit_unitary(circuit))) <= 1e-13

    def test_connected_circuit_is_its_own_component(self):
        circuit = parse_circuit("qubits 3\nh 0\ncnot 2 1\ncz 0 1\n")
        [(qubits, sub)] = circuit_components(circuit)
        assert qubits == (0, 1, 2) and same_circuit(sub, circuit)

    def test_idle_qubits_and_empty_circuits(self):
        circuit = parse_circuit("qubits 4\nh 2\nt 2\n")
        [(qubits, sub)] = circuit_components(circuit)
        assert qubits == (2,) and same_circuit(sub, parse_circuit("qubits 1\nh 0\nt 0\n"))
        assert circuit_components(Circuit(3)) == []

    def test_a_global_phase_joins_qubit_zero(self):
        phase = Gate("g", (), np.array([[1j]]))
        circuit = Circuit(3, [named_gate("h", 2), phase, named_gate("x", 0)])
        [(low, first), (high, second)] = circuit_components(circuit)
        assert (low, high) == ((0,), (2,))
        assert same_circuit(first, Circuit(1, [phase, named_gate("x", 0)]))
        assert same_circuit(second, Circuit(1, [named_gate("h", 0)]))
        assert np.allclose(tensor_of_components(circuit), circuit_unitary(circuit), atol=1e-15)


class TestControlled:
    def dense_controlled(self, gate, control, n):
        dim = 2**n
        idx = np.arange(dim)
        ctrl_bit = (idx >> (n - 1 - control)) & 1
        p0 = np.diag((ctrl_bit == 0).astype(complex))
        p1 = np.diag((ctrl_bit == 1).astype(complex))
        return p0 + circuit_unitary(Circuit(n, [gate])) @ p1

    def test_matches_block_matrix(self):
        rng = np.random.default_rng(17)
        for control, support in ((0, (1, 2)), (2, (0, 1)), (1, (2,))):
            gate = Gate("u%d" % len(support), support, haar_unitary(2 ** len(support), rng))
            dense = self.dense_controlled(gate, control, 3)
            psi = random_state(3, rng)
            out = apply_gate_controlled(psi, gate, control)
            assert np.max(np.abs(out - dense @ psi)) < EXACT_TOL

    def test_control_zero_branch_unchanged(self):
        psi = basis_state(2, 0b01)
        out = apply_gate_controlled(psi, named_gate("x", 1), 0)
        assert np.array_equal(out, psi)

    def test_control_overlapping_support_rejected(self):
        with pytest.raises(ValueError):
            apply_gate_controlled(basis_state(2), named_gate("x", 0), 0)


class TestOutputSplit:
    def test_x_is_deterministic_accept(self):
        split = output_split(Circuit(2, [named_gate("x", 0)]), BasisLabel("00"))
        assert abs(split.alpha0) < EXACT_TOL
        assert abs(split.alpha1 - 1.0) < EXACT_TOL

    def test_hadamard_splits_evenly(self):
        split = output_split(Circuit(2, [named_gate("h", 0)]), BasisLabel("00"))
        assert abs(abs(split.alpha0) ** 2 - 0.5) < EXACT_TOL
        assert abs(abs(split.alpha1) ** 2 - 0.5) < EXACT_TOL

    def test_branch_weight_is_top_half_mass(self):
        rng = np.random.default_rng(21)
        c = random_circuit(3, 12, rng)
        out = apply_columns(c, basis_state(3)[:, None])
        split = output_split(c, BasisLabel("000"))
        top = np.sum(np.abs(out[:4]) ** 2)
        assert abs(abs(split.alpha0) ** 2 - top) < EXACT_TOL

    def test_alphas_carry_the_branch_norms_and_lead_phases(self):
        rng = np.random.default_rng(22)
        c = random_circuit(3, 12, rng)
        split = output_split(c, BasisLabel("010"))
        out = apply_columns(c, basis_state(3, 0b010)[:, None])[:, 0]
        for alpha, block in ((split.alpha0, out[:4]), (split.alpha1, out[4:])):
            lead = block[np.flatnonzero(np.abs(block) > 1e-12)[0]]
            assert abs(alpha - np.linalg.norm(block) * lead / abs(lead)) < EXACT_TOL

    def test_label_size_checked(self):
        with pytest.raises(DimensionMismatch):
            output_split(Circuit(2), BasisLabel("0"))


class TestBasisLabel:
    def test_label_validation(self):
        with pytest.raises(ValueError):
            BasisLabel("012")
        BasisLabel("01").check_width(2, "circuit")
        for bits in ("0", "011"):
            with pytest.raises(DimensionMismatch) as info:
                BasisLabel(bits).check_width(2, "Hamiltonian", "x")
            assert str(info.value) == f"x has {len(bits)} bits, Hamiltonian acts on 2"


def test_gate_validation():
    with pytest.raises(ValueError, match="repeated"):
        Gate("swap", (1, 1), GATE_MATRICES["swap"])
    with pytest.raises(DimensionMismatch):
        Gate("u1", (0,), np.eye(4))


def test_gate_unitary_embedding():
    def embed(gate, n):
        return circuit_unitary(Circuit(n, [gate]))

    # cnot on (0, 1) of a 2-qubit register is the matrix itself
    assert np.array_equal(embed(named_gate("cnot", 0, 1), 2), GATE_MATRICES["cnot"])
    # z on qubit 1 of 2 = I (x) Z
    assert np.allclose(embed(named_gate("z", 1), 2), np.kron(np.eye(2), GATE_MATRICES["z"]))
    # reversed support permutes the gate basis
    swapped = embed(named_gate("cnot", 1, 0), 2)
    expected = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex)
    assert np.array_equal(swapped, expected)
