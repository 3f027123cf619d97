"""Circuit-to-spectrum reductions: clock walks, encodings, and deciders."""
import time

import numpy as np
import pytest

import eigensample.reductions as red_module
from eigensample import (
    BasisLabel,
    Circuit,
    DimensionMismatch,
    EmptyCircuit,
    Gate,
    OracleFailure,
    SamplingRequest,
    TooLarge,
    analyze_history,
    build_clock_hamiltonian,
    build_clock_propagator,
    build_unary_clock,
    circuit_unitary,
    decide_via_lhes,
    decide_via_luae,
    decide_via_pes,
    dense_hamiltonian,
    eigenvalue_grids,
    exact_distribution,
    exact_lhes_oracle,
    exact_luae_oracle,
    exact_pes_oracle,
    history_start_label,
    invert_circuit,
    luae_estimate,
    make_distribution,
    mark_circuit,
    marked_law,
    named_gate,
    prepare_pes,
    quantum_lhes_oracle,
    quantum_luae_oracle,
    quantum_pes_oracle,
    reduction_report,
    unary_embedding_isometry,
)
from eigensample import circuits, distributions, hamiltonians, phase_estimation
from eigensample.circuits import apply_columns, circuit_components, group_index
from eigensample.phase_estimation import ancilla_bits
from eigensample.reductions import LHES_DELTA, lhes_epsilon
from _gate_level import ancilla_law
from _helpers import (
    dense_clock_law,
    dense_marked_law,
    dense_unary_sampler,
    haar_unitary,
    history_families,
    kron_clock_propagator,
    per_draw_sample,
    random_circuit,
    same_circuit,
    seam_base,
)

STATE_TOL = 1e-10
OVERLAP_TOL = 1e-9
WEIGHT_TOL = 1e-8
ENCODING_TOL = 1e-10

ACCEPT_BASE = Circuit(1, [named_gate("x", 0)])
REJECT_BASE = Circuit(1, [Gate("u1", (0,), np.eye(2, dtype=complex))])
X0 = BasisLabel("0")


def haar_base(seed, gate_count=1):
    rng = np.random.default_rng(seed)
    gates = [Gate("u2", (0, 1), haar_unitary(4, rng)) for _ in range(gate_count)]
    return Circuit(2, gates)


def rotation_base(one_probability):
    c = np.sqrt(1.0 - one_probability)
    s = np.sqrt(one_probability)
    return Circuit(1, [Gate("u1", (0,), np.array([[c, -s], [s, c]]))])


def lhes_request(marked, bits):
    """The LHES decider's request for |0 bits>: flag first, precision 1/(4N)."""
    return SamplingRequest(lhes_epsilon(marked), LHES_DELTA, BasisLabel("0" + bits))


def basis_column(index, dim):
    col = np.zeros(dim)
    col[index] = 1.0
    return col


class TestMarking:
    def test_copy_marking_structure(self):
        base = Circuit(2, [named_gate("h", 0), named_gate("s", 1)])
        marked = mark_circuit(base, "lhes-copy")
        assert marked.kind == "lhes-copy"
        assert marked.r_qubit == 0
        assert marked.full.qubit_count == 3
        names = [(g.name, g.support) for g in marked.full.gates]
        assert names == [
            ("h", (1,)),
            ("s", (2,)),
            ("cnot", (1, 0)),
            ("sdg", (2,)),
            ("h", (1,)),
        ]

    def test_copy_marking_fixes_reject_inputs(self):
        marked = mark_circuit(REJECT_BASE, "lhes-copy")
        u = circuit_unitary(marked.full)
        start = basis_column(0, 4)
        assert np.allclose(u @ start, start, atol=STATE_TOL)

    def test_reflect_is_conjugated_z(self):
        rng = np.random.default_rng(81)
        base = haar_base(82)
        marked = mark_circuit(base, "pe-reflect")
        assert marked.r_qubit is None
        u = circuit_unitary(base)
        z0 = np.kron(np.diag([1.0, -1.0]), np.eye(2))
        expected = u.conj().T @ z0 @ u
        assert np.max(np.abs(circuit_unitary(marked.full) - expected)) < 1e-9

    def test_reflect_of_x_is_minus_z(self):
        marked = mark_circuit(ACCEPT_BASE, "pe-reflect")
        assert np.allclose(
            circuit_unitary(marked.full), -np.diag([1.0, -1.0]), atol=STATE_TOL
        )

    def test_empty_base_rejected(self):
        with pytest.raises(EmptyCircuit):
            mark_circuit(Circuit(1, []), "lhes-copy")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            mark_circuit(ACCEPT_BASE, "copy")


class TestPropagator:
    def test_propagator_is_unitary(self):
        marked = mark_circuit(haar_base(83), "lhes-copy")
        f = build_clock_propagator(marked)
        assert np.max(np.abs(f.conj().T @ f - np.eye(f.shape[0]))) < STATE_TOL

    def test_full_cycle_applies_the_circuit(self):
        marked = mark_circuit(haar_base(84), "lhes-copy")
        n = len(marked.full.gates)
        cycle = np.linalg.matrix_power(build_clock_propagator(marked), n)
        psi = np.kron(
            circuit_unitary(marked.full) @ basis_column(2, 8), basis_column(0, n)
        )
        start = np.kron(basis_column(2, 8), basis_column(0, n))
        assert np.max(np.abs(cycle @ start - psi)) < 1e-9

    def test_term_view_records_transitions(self):
        # gate j moves clock j - 1 to j mod N: the nonzero clock blocks of F
        marked = mark_circuit(ACCEPT_BASE, "lhes-copy")
        blocks = build_clock_propagator(marked).reshape(4, 3, 4, 3)
        moves = [(src, dst) for src in range(3) for dst in range(3)
                 if np.any(blocks[:, dst, :, src])]
        assert moves == [(0, 1), (1, 2), (2, 0)]

    def test_one_gate_base_matches_kron_reference(self):
        # N = 3, the smallest clock a marked circuit has
        marked = mark_circuit(Circuit(1, [named_gate("h", 0)]), "lhes-copy")
        f = build_clock_propagator(marked)
        assert np.array_equal(f.view(np.uint64), kron_clock_propagator(marked).view(np.uint64))

    def test_wide_base_matches_kron_reference(self):
        # 6 system qubits x a 41-step clock: 2624 dimensions
        marked = mark_circuit(random_circuit(5, 20, np.random.default_rng(86)), "lhes-copy")
        start = time.perf_counter()
        f = build_clock_propagator(marked)
        elapsed = time.perf_counter() - start
        assert f.shape == (2624, 2624)
        assert np.array_equal(f.view(np.uint64), kron_clock_propagator(marked).view(np.uint64))
        assert elapsed < 0.5

    def test_size_guard(self):
        # 11 system qubits x a 5-step clock: 10240 dimensions
        wide = mark_circuit(Circuit(10, [named_gate("h", 0), named_gate("h", 9)]), "lhes-copy")
        with pytest.raises(TooLarge):
            build_clock_propagator(wide)


class TestHistoryWalk:
    """The walk from the start label, checked against closed forms that
    never touch the propagator: circuit prefixes for the first lap, and
    the branch split of the base output for the second."""

    def closed_forms(self, marked, x):
        inv = invert_circuit(marked.base)
        nb = marked.base.qubit_count
        out = apply_columns(marked.base, basis_column(x.basis_index(), 2**nb)[:, None])
        full = marked.full
        n = len(full.gates)

        def branch(bit, block):
            amps = np.kron(basis_column(bit, 2), block)
            return apply_columns(inv, amps[:, None])[:, 0]

        # the branches of U's output, each run back through U^-1 behind its
        # copied flag bit
        deviation = sum(np.kron(basis_column(bit, 2), branch(bit, block))
                        for bit, block in enumerate(out[:, 0].reshape(2, -1)))

        start = np.kron(basis_column(0, 2), basis_column(x.basis_index(), 2**nb))
        states = []
        for j in range(n):
            prefix = circuit_unitary(Circuit(full.qubit_count, full.gates[:j]))
            states.append(np.kron(prefix @ start, basis_column(j, n)))
        for i in range(n):
            prefix = circuit_unitary(Circuit(full.qubit_count, full.gates[:i]))
            states.append(np.kron(prefix @ deviation, basis_column(i, n)))
        return states

    def test_walk_matches_piecewise_forms(self):
        marked = mark_circuit(haar_base(21, gate_count=2), "lhes-copy")
        x = BasisLabel("10")
        hist = analyze_history(marked, x)
        expected = self.closed_forms(marked, x)
        assert hist.clock_dim == 5
        assert len(hist.phi_states) == 10
        for got, want in zip(hist.phi_states, expected):
            assert np.max(np.abs(got - want)) < STATE_TOL

    def test_walk_needs_no_propagator(self, monkeypatch):
        # phi_j = F^j phi_0, with F's powers taken from the dense propagator
        # before it is barred
        marked = mark_circuit(haar_base(22), "lhes-copy")
        f = build_clock_propagator(marked)

        def never(*args, **kwargs):
            raise AssertionError("dense clock propagator built")

        monkeypatch.setattr(red_module, "build_clock_propagator", never)
        hist = analyze_history(marked, BasisLabel("01"))
        want = hist.phi_states[0]
        for got in hist.phi_states:
            assert np.max(np.abs(got - want)) < STATE_TOL
            want = f @ want

    def test_overlap_table(self):
        for seed in (20, 21, 22):
            marked = mark_circuit(haar_base(seed), "lhes-copy")
            hist = analyze_history(marked, BasisLabel("10"))
            n = hist.clock_dim
            a0sq = abs(hist.alpha0) ** 2
            for a in range(2 * n):
                for b in range(2 * n):
                    if a == b:
                        want = 1.0
                    elif abs(a - b) == n:
                        want = a0sq
                    else:
                        want = 0.0
                    assert abs(hist.overlaps[a, b] - want) < OVERLAP_TOL

    def test_deterministic_reject_collapses_the_minus_family(self):
        marked = mark_circuit(REJECT_BASE, "lhes-copy")
        hist = analyze_history(marked, X0)
        plus, minus = history_families(hist)
        assert len(plus) == 3 and len(minus) == 0
        assert abs(hist.alpha0) == pytest.approx(1.0, abs=1e-12)
        assert abs(hist.alpha1) == pytest.approx(0.0, abs=1e-12)
        dist = exact_distribution(
            build_clock_hamiltonian(build_clock_propagator(marked)),
            history_start_label(marked, X0),
            "hermitian",
        )
        assert np.allclose(dist.values(), [-1.0, 2.0], atol=WEIGHT_TOL)
        assert np.allclose(dist.weights(), [2.0 / 3.0, 1.0 / 3.0], atol=WEIGHT_TOL)

    def test_generic_weights_match_exact_distribution(self):
        for seed in (20, 21, 22, 23, 24):
            marked = mark_circuit(haar_base(seed), "lhes-copy")
            x = BasisLabel("10")
            hist = analyze_history(marked, x)
            n = hist.clock_dim
            a0sq = abs(hist.alpha0) ** 2
            values, weights = [], []
            for k in range(n):
                values.append(2.0 * np.cos(2.0 * np.pi * k / n))
                weights.append((1.0 + a0sq) / (2.0 * n))
                values.append(2.0 * np.cos(2.0 * np.pi * (k + 0.5) / n))
                weights.append((1.0 - a0sq) / (2.0 * n))
            model = make_distribution(values, weights, "absolute")
            dist = exact_distribution(
                build_clock_hamiltonian(build_clock_propagator(marked)),
                history_start_label(marked, x),
                "hermitian",
            )
            assert np.allclose(dist.values(), model.values(), atol=WEIGHT_TOL)
            assert np.allclose(dist.weights(), model.weights(), atol=WEIGHT_TOL)

    def test_single_hadamard_masses(self):
        # alpha0^2 = 1/2: integer grid carries 1/4 per point, half grid 1/12
        marked = mark_circuit(Circuit(1, [named_gate("h", 0)]), "lhes-copy")
        dist = exact_distribution(
            build_clock_hamiltonian(build_clock_propagator(marked)),
            history_start_label(marked, X0),
            "hermitian",
        )
        expected = {-2.0: 1.0 / 12.0, -1.0: 0.5, 1.0: 1.0 / 6.0, 2.0: 0.25}
        assert len(dist.points) == 4
        for value, weight in dist.points:
            match = min(expected, key=lambda v: abs(v - value))
            assert abs(value - match) < WEIGHT_TOL
            assert abs(weight - expected[match]) < WEIGHT_TOL

    def test_fourier_families_are_eigenvectors(self):
        marked = mark_circuit(haar_base(22), "lhes-copy")
        hist = analyze_history(marked, BasisLabel("01"))
        f = build_clock_propagator(marked)
        n = hist.clock_dim
        plus, minus = history_families(hist)
        assert len(plus) == len(minus) == n
        for k, vec in enumerate(plus):
            lam = np.exp(2j * np.pi * k / n)
            assert np.linalg.norm(f @ vec - lam * vec) < 1e-8
        for k, vec in enumerate(minus):
            lam = np.exp(2j * np.pi * (k + 0.5) / n)
            assert np.linalg.norm(f @ vec - lam * vec) < 1e-8

    def test_families_are_orthonormal(self):
        marked = mark_circuit(haar_base(23), "lhes-copy")
        hist = analyze_history(marked, BasisLabel("11"))
        vecs = np.concatenate(history_families(hist))
        gram = vecs.conj() @ vecs.T
        assert np.max(np.abs(gram - np.eye(2 * hist.clock_dim))) < STATE_TOL

    def test_start_state_minus_mass(self):
        marked = mark_circuit(haar_base(24), "lhes-copy")
        hist = analyze_history(marked, BasisLabel("10"))
        phi0 = hist.phi_states[0]
        mass = np.sum(np.abs(history_families(hist)[1].conj() @ phi0) ** 2)
        assert abs(mass - (1.0 - abs(hist.alpha0) ** 2) / 2.0) < STATE_TOL

    def test_start_label_validation(self):
        reflect = mark_circuit(ACCEPT_BASE, "pe-reflect")
        with pytest.raises(ValueError):
            history_start_label(reflect, X0)
        copy = mark_circuit(ACCEPT_BASE, "lhes-copy")
        with pytest.raises(DimensionMismatch):
            history_start_label(copy, BasisLabel("00"))
        assert history_start_label(copy, X0) == BasisLabel("00")


class TestUnaryClock:
    def test_terms_are_at_most_four_local(self):
        marked = mark_circuit(haar_base(25), "lhes-copy")
        unary = build_unary_clock(marked)
        assert all(len(t.support) <= 4 for t in unary.hamiltonian.terms)
        # a gate's term touches its qubits plus the two clock qubits
        gate_term = unary.hamiltonian.terms[0]
        assert gate_term.support == (1, 2, 3, 4)

    def test_legal_states_are_one_hot(self):
        marked = mark_circuit(ACCEPT_BASE, "lhes-copy")
        unary = build_unary_clock(marked)
        assert unary.legal_clock_states == ("100", "010", "001")

    def test_restriction_equals_compact_hamiltonian(self):
        marked = mark_circuit(Circuit(1, [named_gate("h", 0)]), "lhes-copy")
        compact = build_clock_hamiltonian(build_clock_propagator(marked))
        unary = build_unary_clock(marked)
        iso = unary_embedding_isometry(unary.system_qubits, unary.clock_dim)
        dense = dense_hamiltonian(unary.hamiltonian)
        assert np.max(np.abs(iso.conj().T @ dense @ iso - compact)) < ENCODING_TOL

    def test_one_hot_subspace_is_invariant(self):
        marked = mark_circuit(ACCEPT_BASE, "lhes-copy")
        unary = build_unary_clock(marked)
        iso = unary_embedding_isometry(unary.system_qubits, unary.clock_dim)
        dense = dense_hamiltonian(unary.hamiltonian)
        proj = iso @ iso.conj().T
        assert np.max(np.abs(dense @ proj - proj @ dense)) < ENCODING_TOL


class TestInstances:
    def test_grids(self):
        integer, half = eigenvalue_grids(4)
        assert np.allclose(integer, [2.0, 0.0, -2.0, 0.0], atol=1e-12)
        root2 = np.sqrt(2.0)
        assert np.allclose(half, [root2, -root2, -root2, root2], atol=1e-12)

    def test_instance_layout(self, monkeypatch):
        seen = []

        def spy(circuit, req):
            seen.append((circuit, req))
            return exact_lhes_oracle(circuit, req)

        base = haar_base(26)
        monkeypatch.setattr(red_module, "LHES_VOTES", 1)
        decide_via_lhes(base, BasisLabel("1"), spy, np.random.default_rng(84))
        (circuit, req), = seen
        assert same_circuit(circuit, mark_circuit(base, "lhes-copy").full)
        assert req.epsilon == 1.0 / 12.0
        # input padded with zeros behind the given bits, flag in front
        assert req.b == BasisLabel("010")
        # on the one-hot clock that start is |010>|100>
        iso = unary_embedding_isometry(3, 3)
        compact = np.kron(basis_column(req.b.basis_index(), 8), np.eye(3)[0])
        assert np.array_equal(iso @ compact, basis_column(0b010100, 64))
        assert build_clock_propagator(mark_circuit(base, "lhes-copy")).shape == (24, 24)

    def test_overlong_input_rejected(self):
        with pytest.raises(DimensionMismatch):
            decide_via_lhes(ACCEPT_BASE, BasisLabel("01"), exact_lhes_oracle, np.random.default_rng(0))


class TestDeciders:
    def test_exact_routes_decide_the_definite_instances(self):
        rng = np.random.default_rng(85)
        assert decide_via_lhes(ACCEPT_BASE, X0, exact_lhes_oracle, rng)
        assert not decide_via_lhes(REJECT_BASE, X0, exact_lhes_oracle, rng)
        assert decide_via_pes(ACCEPT_BASE, X0, exact_pes_oracle, rng)
        assert not decide_via_pes(REJECT_BASE, X0, exact_pes_oracle, rng)
        assert decide_via_luae(ACCEPT_BASE, X0, exact_luae_oracle, rng)
        assert not decide_via_luae(REJECT_BASE, X0, exact_luae_oracle, rng)

    def test_grouped_base_runs_no_pass_wider_than_its_widest_group(self, monkeypatch):
        # qubits 0-1 read 11, two two-qubit blocks, qubit 6 idle: the marked
        # circuits split too, so each route reads <b|W|b> group by group
        gates = [named_gate("x", 0), named_gate("cnot", 0, 1)]
        for q in (2, 4):
            gates += [named_gate("h", q), named_gate("cnot", q, q + 1),
                      named_gate("t", q + 1), named_gate("h", q + 1)]
        base = Circuit(7, gates)
        widths = []
        original = circuits._circuit_pass

        def spy(circuit, count, load):
            widths.append(circuit.qubit_count)
            return original(circuit, count, load)

        monkeypatch.setattr(circuits, "_circuit_pass", spy)

        def widest(circuit):
            return max(len(qubits) for qubits, _ in circuit_components(circuit))

        rng = np.random.default_rng(93)
        for decide, oracle, kind in ((decide_via_lhes, exact_lhes_oracle, "lhes-copy"),
                                     (decide_via_pes, exact_pes_oracle, "pe-reflect"),
                                     (decide_via_luae, exact_luae_oracle, "pe-reflect")):
            widths.clear()
            assert decide(base, X0, oracle, rng)
            assert widths and max(widths) <= widest(mark_circuit(base, kind).full) < 7
        widths.clear()
        luae_estimate(base, SamplingRequest(0.25, 0.1, BasisLabel("1011001")), rng)
        assert widths and max(widths) == widest(base) == 2

    def test_quantum_routes_decide_the_definite_instances(self, monkeypatch):
        rng = np.random.default_rng(86)
        monkeypatch.setattr(red_module, "LHES_VOTES", 60)
        assert decide_via_lhes(ACCEPT_BASE, X0, quantum_lhes_oracle, rng)
        assert not decide_via_lhes(REJECT_BASE, X0, quantum_lhes_oracle, rng)
        assert decide_via_pes(ACCEPT_BASE, X0, quantum_pes_oracle, rng)
        assert not decide_via_pes(REJECT_BASE, X0, quantum_pes_oracle, rng)
        assert decide_via_luae(ACCEPT_BASE, X0, quantum_luae_oracle, rng)
        assert not decide_via_luae(REJECT_BASE, X0, quantum_luae_oracle, rng)

    def test_survivor_fraction_tracks_the_acceptance_probability(self):
        # the in-band mass splits (1+a)/2 integer vs (1-a)/2 half, so the
        # vote threshold 1/4 separates acceptance probability 1/2
        for p_one, expected in ((0.1, 0.05), (0.9, 0.45)):
            marked = mark_circuit(rotation_base(p_one), "lhes-copy")
            dist = dense_clock_law(marked, BasisLabel("00"))
            integer_grid, half_grid = eigenvalue_grids(len(marked.full.gates))
            in_band = [(v, w) for v, w in dist.points if abs(v) <= 1.0 + 1e-9]
            half_mass = sum(
                w
                for v, w in in_band
                if np.min(np.abs(half_grid - v)) < np.min(np.abs(integer_grid - v))
            )
            total = sum(w for _, w in in_band)
            assert abs(half_mass / total - expected) < WEIGHT_TOL

    def test_rotation_instances_decide_by_majority(self):
        rng = np.random.default_rng(87)
        assert not decide_via_pes(rotation_base(0.1), X0, exact_pes_oracle, rng)
        assert decide_via_pes(rotation_base(0.9), X0, exact_pes_oracle, rng)
        assert not decide_via_lhes(rotation_base(0.1), X0, exact_lhes_oracle, rng)
        assert decide_via_lhes(rotation_base(0.9), X0, exact_lhes_oracle, rng)

    def test_reflect_spectrum_is_sharp_at_the_circuit_error(self):
        # V = U-dagger Z U squares to one, so the eigenphase law is exactly
        # {0: 1-p, 1/2: p} and a single draw errs with probability p
        p_one = 0.1
        marked = mark_circuit(rotation_base(p_one), "pe-reflect")
        dist = exact_distribution(
            circuit_unitary(marked.full), BasisLabel("0"), "unitary"
        )
        assert np.allclose(dist.values(), [0.0, 0.5], atol=1e-12)
        assert np.allclose(dist.weights(), [1.0 - p_one, p_one], atol=1e-12)

        req = SamplingRequest(red_module.PES_EPSILON, red_module.PES_DELTA, BasisLabel("0"))
        prep = prepare_pes(marked.full, req)
        grid = np.arange(2**prep.t) / 2**prep.t
        window = (grid >= red_module.PES_WINDOW[0]) & (grid <= red_module.PES_WINDOW[1])
        assert abs(prep.raw_probabilities[window].sum() - p_one) < OVERLAP_TOL

    def test_exact_oracles_draw_like_the_per_draw_sampler(self):
        # one uniform per draw from the same stream: the same 500 points
        def paired_draws(draw, dist):
            assert len(dist.points) >= 2
            rng, ref_rng = np.random.default_rng(91), np.random.default_rng(91)
            return (
                [float(draw(rng)) for _ in range(500)],
                [per_draw_sample(dist, ref_rng) for _ in range(500)],
            )

        # the LHES law is built from the marked circuit's, not from the dense
        # clock matrix, so its points match the reference's to rounding;
        # the reference's points are more than 1e-9 apart, so a draw within
        # 1e-12 is the same-rank point
        marked = mark_circuit(rotation_base(0.3), "lhes-copy")
        req = lhes_request(marked, "0")
        draws, expected = paired_draws(
            exact_lhes_oracle(marked.full, req), dense_clock_law(marked, req.b)
        )
        assert np.max(np.abs(np.subtract(draws, expected))) < 1e-12

        circuit = mark_circuit(haar_base(90, gate_count=2), "pe-reflect").full
        req = SamplingRequest(1.0 / 8.0, 0.01, BasisLabel("01"))
        draws, expected = paired_draws(
            exact_pes_oracle(circuit, req), dense_marked_law(circuit, req.b)
        )
        assert np.max(np.abs(np.subtract(draws, expected))) < 1e-12


    def test_exact_luae_oracle_reads_the_simulated_amplitude(self):
        # bit for bit the product of each qubit group's one-column state
        # pass, taken in component order from 1; within 1e-15 of the pass
        # over the whole register
        rng = np.random.default_rng(92)
        for n in (1, 2, 3, 4):
            for _ in range(5):
                circuit = random_circuit(n, 3 * n, rng)
                b = BasisLabel("".join(str(v) for v in rng.integers(0, 2, size=n)))
                index = b.basis_index()
                lam = exact_luae_oracle(circuit, SamplingRequest(0.25, 0.01, b))(None)
                product = complex(1.0)
                for qubits, sub in circuit_components(circuit):
                    local = group_index(index, qubits, n)
                    column = basis_column(local, 2 ** len(qubits))[:, None]
                    product *= complex(apply_columns(sub, column)[local, 0])
                assert lam == product
                state = apply_columns(circuit, basis_column(index, 2**n)[:, None])
                assert abs(lam - state[index, 0]) <= 1e-15
        with pytest.raises(DimensionMismatch):
            exact_luae_oracle(circuit, SamplingRequest(0.25, 0.01, BasisLabel("0")))

    def test_luae_tie_rejects(self):
        # Re <x|W|x> = 1 - 2p: a rounding residue of either sign at the tie
        # p = 1/2 rejects, and p = 2/3 accepts
        for value, expected in ((-1e-17, False), (1e-17, False), (-1.0 / 3.0, True)):
            def oracle(circuit, req, value=value):
                return lambda rng: complex(value, 0.0)

            assert decide_via_luae(ACCEPT_BASE, X0, oracle, np.random.default_rng(0)) is expected

    def test_broken_oracle_raises(self, monkeypatch):
        def broken(circuit, req):
            return lambda rng: 5.0

        monkeypatch.setattr(red_module, "LHES_VOTES", 3)
        with pytest.raises(OracleFailure):
            decide_via_lhes(ACCEPT_BASE, X0, broken, np.random.default_rng(88))

    def test_quantum_oracle_prepares_once(self, monkeypatch):
        # the oracle holds its law; draws never build it again
        calls = []
        original = phase_estimation.fejer_law

        def spy(phases, weights, t):
            calls.append(t)
            return original(phases, weights, t)

        monkeypatch.setattr(phase_estimation, "fejer_law", spy)
        marked = mark_circuit(rotation_base(0.3), "lhes-copy")
        req = lhes_request(marked, "0")
        draw = quantum_lhes_oracle(marked.full, req)
        rng = np.random.default_rng(89)
        draws = [float(draw(rng)) for _ in range(20)]
        assert calls == [draw.__self__.t]
        assert all(abs(a) <= 2.0 + req.epsilon for a in draws)


def two_point_weights(dist):
    """Weights at phases 0 and 1/2 of a law whose points all lie within
    1e-12 of one of them on the circle."""
    weights = [0.0, 0.0]
    for v, w in dist.points:
        near_half = abs(v - 0.5) < 0.25
        assert min(abs(v - 0.5), v % 1.0, 1.0 - v % 1.0) < 1e-12
        weights[near_half] += w
    return weights


class TestMarkedLaw:
    """The two-point law read off <b|W|b> against dense eigensolves of W."""

    def random_marked(self, rng):
        base = random_circuit(
            int(rng.integers(1, 6)), int(rng.integers(1, 9)), rng,
            named_only=bool(rng.random() < 0.5),
        )
        kind = ("pe-reflect", "lhes-copy")[rng.integers(2)]
        full = mark_circuit(base, kind).full
        bits = "".join(str(v) for v in rng.integers(0, 2, size=full.qubit_count))
        return full, BasisLabel(bits)

    def test_matches_the_dense_law(self):
        # named-only bases put eigenangles on the 0/1 seam; seam_base's W
        # listed a phase of exactly 1.0 before phases() mapped it to 0
        rng = np.random.default_rng(120)
        cases = [self.random_marked(rng) for _ in range(60)]
        seam = mark_circuit(seam_base(), "pe-reflect").full
        cases += [(seam, BasisLabel("0")), (seam, BasisLabel("1"))]
        for full, b in cases:
            law = marked_law(full, b)
            assert law.metric == "circular"
            assert set(law.values()) <= {0.0, 0.5}
            ours = two_point_weights(law)
            ref = two_point_weights(dense_marked_law(full, b))
            assert 0.5 * (abs(ours[0] - ref[0]) + abs(ours[1] - ref[1])) <= 1e-12

    def test_b_must_name_every_qubit(self):
        full = mark_circuit(ACCEPT_BASE, "lhes-copy").full
        with pytest.raises(DimensionMismatch):
            marked_law(full, BasisLabel("0"))

    def test_no_oracle_builds_a_dense_matrix(self, monkeypatch):
        # the quantum LHES oracle diagonalizes only its N x N clock rings
        def never(*args, **kwargs):
            raise AssertionError("dense unitary built")

        monkeypatch.setattr(distributions, "circuit_unitary", never)
        monkeypatch.setattr(distributions, "unitary_eig_in_place", never)
        rng = np.random.default_rng(121)
        base = random_circuit(4, 10, rng)
        x = BasisLabel("0110")
        for decide, oracle in (
            (decide_via_lhes, exact_lhes_oracle),
            (decide_via_lhes, quantum_lhes_oracle),
            (decide_via_pes, exact_pes_oracle),
            (decide_via_pes, quantum_pes_oracle),
            (decide_via_luae, exact_luae_oracle),
            (decide_via_luae, quantum_luae_oracle),
        ):
            decide(base, x, oracle, rng)

    def test_quantum_pes_law_matches_the_gate_level_estimator(self):
        rng = np.random.default_rng(122)
        for epsilon, delta in ((0.5, 0.25), (0.25, 0.1), (0.125, 0.1)):
            t = ancilla_bits(epsilon, delta)
            assert t <= 6
            for _ in range(3):
                base = random_circuit(int(rng.integers(1, 3)), int(rng.integers(1, 4)), rng)
                full = mark_circuit(base, "pe-reflect").full
                bits = "".join(str(v) for v in rng.integers(0, 2, size=full.qubit_count))
                b = BasisLabel(bits)
                prep = quantum_pes_oracle(full, SamplingRequest(epsilon, delta, b)).__self__
                assert prep.t == t
                ref = ancilla_law(full, basis_column(b.basis_index(), 2**full.qubit_count), t)
                assert 0.5 * np.abs(prep.raw_probabilities - ref).sum() < 1e-12
                # all mass on outcomes 0 and 2^(t-1)
                off = np.delete(prep.raw_probabilities, [0, 2 ** (t - 1)])
                assert not off.any()

    def test_wide_marked_circuit(self):
        # a connected 16-qubit base: 17 qubits of W for lhes-copy, far
        # beyond a dense eigensolve, in one statevector pass
        gates = [named_gate("h", q) for q in range(1, 16)]
        gates += [named_gate("cnot", q, q + 1) for q in range(15)]
        base = Circuit(16, [named_gate("x", 0)] + gates)
        start = time.perf_counter()
        copy = marked_law(mark_circuit(base, "lhes-copy").full, BasisLabel("0" * 17))
        reflect = marked_law(mark_circuit(base, "pe-reflect").full, BasisLabel("0" * 16))
        assert time.perf_counter() - start < 2.0
        # qubit 0 reads 1: the copy always flips the flag, so <0x|W|0x> = 0,
        # and the reflection always flips the sign, so <x|W|x> = -1
        assert copy.values() == [0.0, 0.5]
        assert np.allclose(copy.weights(), [0.5, 0.5], atol=1e-12)
        assert reflect.values() == [0.5]


class TestClockLaw:
    """The exact LHES oracle's law, split from the marked circuit's
    two-point law, against one dense eigensolve of the compact clock matrix."""

    def oracle_law(self, marked, req, monkeypatch):
        laws = []

        def keep(*args):
            laws.append(make_distribution(*args))
            return laws[-1]

        monkeypatch.setattr(red_module, "make_distribution", keep)
        exact_lhes_oracle(marked.full, req)
        return laws[-1]

    def test_matches_the_dense_clock_law(self, monkeypatch):
        rng = np.random.default_rng(95)
        for _ in range(12):
            qubits = int(rng.integers(1, 5))
            base = random_circuit(qubits, int(rng.integers(1, 11)), rng)
            random_bits = "".join(str(b) for b in rng.integers(0, 2, size=qubits))
            for bits in ("0" * qubits, random_bits):
                marked = mark_circuit(base, "lhes-copy")
                req = lhes_request(marked, bits)
                law = self.oracle_law(marked, req, monkeypatch)
                ref = dense_clock_law(marked, req.b)
                assert len(law.points) == len(ref.points)
                assert np.max(np.abs(np.subtract(law.values(), ref.values()))) < 1e-12
                assert np.max(np.abs(np.subtract(law.weights(), ref.weights()))) < 1e-12

    def test_builds_no_dense_clock_matrix(self, monkeypatch):
        # neither the compact propagator nor a Hermitian eigensolve
        def never(*args, **kwargs):
            raise AssertionError("dense clock matrix built or diagonalized")

        monkeypatch.setattr(red_module, "build_clock_propagator", never)
        monkeypatch.setattr(distributions, "hermitian_eig", never)
        base = random_circuit(3, 6, np.random.default_rng(96))
        marked = mark_circuit(base, "lhes-copy")
        draw = exact_lhes_oracle(marked.full, lhes_request(marked, "101"))
        assert abs(float(draw(np.random.default_rng(97)))) <= 2.0
        assert decide_via_lhes(ACCEPT_BASE, X0, exact_lhes_oracle, np.random.default_rng(97))

    def test_wide_base_law_is_fast(self, monkeypatch):
        # 6 system qubits x a 41-step clock: a 2624-dim compact matrix
        base = random_circuit(5, 20, np.random.default_rng(98))
        marked = mark_circuit(base, "lhes-copy")
        req = lhes_request(marked, "00000")
        start = time.perf_counter()
        law = self.oracle_law(marked, req, monkeypatch)
        assert time.perf_counter() - start < 1.0
        assert abs(sum(law.weights()) - 1.0) < 1e-12


def circular_offsets(a, b):
    """Signed circular differences a - b in [-1/2, 1/2), all pairs."""
    return (np.subtract.outer(a, b) + 0.5) % 1.0 - 0.5


def clustered_tv(p, q, tol):
    """TV between two weighted phase lists (phases, weights) after joining
    phases that lie within tol of their neighbour, from -1/2 upwards."""
    tagged = sorted(
        [((v + 0.5) % 1.0 - 0.5, w, 0.0) for v, w in zip(*p)]
        + [((v + 0.5) % 1.0 - 0.5, 0.0, w) for v, w in zip(*q)]
    )
    gaps = [0.0]
    for (prev, _, _), (v, wp, wq) in zip([tagged[0]] + tagged, tagged):
        if v - prev > tol:
            gaps.append(0.0)
        gaps[-1] += wp - wq
    return 0.5 * sum(abs(g) for g in gaps)


class TestClockRings:
    """The quantum LHES oracle's law on two clock rings against
    prepare_lhes on the whole one-hot clock Hamiltonian."""

    def test_matches_the_dense_unary_law(self, monkeypatch):
        def spying(module, laws):
            original = module.spectral_weights

            def spy(*args):
                laws.append(original(*args))
                return laws[-1]

            monkeypatch.setattr(module, "spectral_weights", spy)

        rng = np.random.default_rng(99)
        for qubits, gate_count in ((1, 1), (1, 2), (1, 2), (2, 1), (2, 2), (3, 1)):
            base = random_circuit(qubits, gate_count, rng)
            bits = "".join(str(v) for v in rng.integers(0, 2, size=qubits))
            marked = mark_circuit(base, "lhes-copy")
            req = lhes_request(marked, bits)
            ring_laws, dense_laws = [], []
            spying(red_module, ring_laws)
            spying(hamiltonians, dense_laws)
            ring = quantum_lhes_oracle(marked.full, req).__self__
            dense = dense_unary_sampler(marked, req)
            assert (ring.t, ring.trotter_steps) == (dense.t, dense.trotter_steps)
            assert ring.lambda_cap == pytest.approx(dense.lambda_cap, rel=1e-15)
            # the slice law before the power: each ring holds its phase's
            # share of marked_law
            shares = marked_law(marked.full, req.b).weights()
            ring_law = (np.concatenate([phases for phases, _ in ring_laws]),
                        np.concatenate([w * weights for w, (_, weights) in zip(shares, ring_laws)]))
            (dense_law,) = dense_laws
            held = dense_law[0][dense_law[1] > 1e-9]
            assert np.max(np.min(np.abs(circular_offsets(held, ring_law[0])), axis=1)) < 1e-12
            assert clustered_tv(ring_law, dense_law, 1e-12) <= 1e-8
            tv = 0.5 * np.abs(ring.prepared.raw_probabilities - dense.prepared.raw_probabilities).sum()
            assert tv <= 1e-4


class TestGridSeparation:
    def test_cosine_gap_beats_root_three_inside_the_arcs(self):
        # |d(2cos)/d theta| = 2|sin theta| >= sqrt(3) wherever |2cos| <= 1
        for n in range(3, 65, 2):
            phases = sorted(
                [k / n for k in range(n)] + [(k + 0.5) / n for k in range(n)]
            )
            for p1, p2 in zip(phases, phases[1:]):
                t1, t2 = 2.0 * np.pi * p1, 2.0 * np.pi * p2
                in_arc = all(
                    np.pi / 3 <= t <= 2 * np.pi / 3 or 4 * np.pi / 3 <= t <= 5 * np.pi / 3
                    for t in (t1, t2)
                )
                if in_arc:
                    gap = abs(2.0 * np.cos(t1) - 2.0 * np.cos(t2))
                    assert gap >= np.sqrt(3.0) * (t2 - t1) - 1e-9


class TestReport:
    def test_report_contents(self):
        marked = mark_circuit(ACCEPT_BASE, "lhes-copy")
        report = reduction_report(marked)
        assert report["kind"] == "lhes-copy"
        assert report["clock_dim"] == 3
        assert report["system_qubits"] == 2
        assert report["flag_qubit"] == 0
        assert report["phase_grids"]["integer"] == [0.0, 1.0 / 3.0, 2.0 / 3.0]
        assert np.allclose(report["eigenvalue_grids"]["half"], [1.0, -2.0, 1.0])
        model = report["weight_model"]
        assert model["integer_grid"]["alpha0_sq_coefficient"] == 1.0 / 6.0
        assert model["half_grid"]["alpha0_sq_coefficient"] == -1.0 / 6.0

    def test_reflect_report_has_no_flag(self):
        report = reduction_report(mark_circuit(ACCEPT_BASE, "pe-reflect"))
        assert "flag_qubit" not in report
        assert report["system_qubits"] == 1
