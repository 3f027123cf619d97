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
    StateVector,
    TooLarge,
    analyze_history,
    apply_circuit,
    build_clock_hamiltonian,
    build_clock_propagator,
    build_lhes_instance,
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
    make_distribution,
    mark_circuit,
    named_gate,
    output_split,
    prepare_pes,
    quantum_lhes_oracle,
    quantum_luae_oracle,
    quantum_pes_oracle,
    reduction_report,
    unary_embedding_isometry,
)
from _helpers import (
    haar_unitary,
    history_families,
    kron_clock_propagator,
    per_draw_sample,
    random_circuit,
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
        f = build_clock_propagator(marked).assembled
        assert np.max(np.abs(f.conj().T @ f - np.eye(f.shape[0]))) < STATE_TOL

    def test_full_cycle_applies_the_circuit(self):
        marked = mark_circuit(haar_base(84), "lhes-copy")
        prop = build_clock_propagator(marked)
        n = prop.clock_dim
        cycle = np.linalg.matrix_power(prop.assembled, n)
        psi = np.kron(
            circuit_unitary(marked.full) @ basis_column(2, 8), basis_column(0, n)
        )
        start = np.kron(basis_column(2, 8), basis_column(0, n))
        assert np.max(np.abs(cycle @ start - psi)) < 1e-9

    def test_term_view_records_transitions(self):
        # gate j moves clock j - 1 to j mod N: the nonzero clock blocks of F
        marked = mark_circuit(ACCEPT_BASE, "lhes-copy")
        blocks = build_clock_propagator(marked).assembled.reshape(4, 3, 4, 3)
        moves = [(src, dst) for src in range(3) for dst in range(3)
                 if np.any(blocks[:, dst, :, src])]
        assert moves == [(0, 1), (1, 2), (2, 0)]

    def test_one_gate_base_matches_kron_reference(self):
        # N = 3, the smallest clock a marked circuit has
        marked = mark_circuit(Circuit(1, [named_gate("h", 0)]), "lhes-copy")
        f = build_clock_propagator(marked).assembled
        assert np.array_equal(f.view(np.uint64), kron_clock_propagator(marked).view(np.uint64))

    def test_wide_base_matches_kron_reference(self):
        # 6 system qubits x a 41-step clock: 2624 dimensions
        marked = mark_circuit(random_circuit(5, 20, np.random.default_rng(86)), "lhes-copy")
        start = time.perf_counter()
        f = build_clock_propagator(marked).assembled
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
        split = output_split(marked.base, x)
        inv = invert_circuit(marked.base)
        nb = marked.base.qubit_count
        full = marked.full
        n = len(full.gates)

        def branch(bit, psi):
            amps = np.kron(basis_column(bit, 2), psi.amplitudes)
            return apply_circuit(inv, StateVector(nb, 1, amps)).amplitudes

        deviation = np.zeros(2 ** (nb + 1), dtype=complex)
        if split.psi0 is not None:
            deviation += split.alpha0 * np.kron(basis_column(0, 2), branch(0, split.psi0))
        if split.psi1 is not None:
            deviation += split.alpha1 * np.kron(basis_column(1, 2), branch(1, split.psi1))

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
            assert np.max(np.abs(got.amplitudes - want)) < STATE_TOL

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
        f = build_clock_propagator(marked).assembled
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
        phi0 = hist.phi_states[0].amplitudes
        mass = np.sum(np.abs(history_families(hist)[1].conj() @ phi0) ** 2)
        assert abs(mass - (1.0 - abs(hist.alpha0) ** 2) / 2.0) < STATE_TOL

    def test_start_label_validation(self):
        reflect = mark_circuit(ACCEPT_BASE, "pe-reflect")
        with pytest.raises(ValueError):
            history_start_label(reflect, X0)
        copy = mark_circuit(ACCEPT_BASE, "lhes-copy")
        with pytest.raises(DimensionMismatch):
            history_start_label(copy, BasisLabel("00"))
        assert history_start_label(copy, X0) == BasisLabel("00", 0)


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

    def test_instance_layout(self):
        inst = build_lhes_instance(haar_base(26), BasisLabel("1"))
        assert inst.clock_dim == 3
        assert inst.compact_request.epsilon == 1.0 / 12.0
        # input padded with zeros behind the given bits, flag in front
        assert inst.compact_request.b == BasisLabel("010", 0)
        assert inst.unary_request.b == BasisLabel("010" + "100", 0)
        assert inst.compact_matrix().shape == (8 * 3, 8 * 3)

    def test_overlong_input_rejected(self):
        with pytest.raises(DimensionMismatch):
            build_lhes_instance(ACCEPT_BASE, BasisLabel("01"))


class TestDeciders:
    def test_exact_routes_decide_the_definite_instances(self):
        rng = np.random.default_rng(85)
        assert decide_via_lhes(ACCEPT_BASE, X0, exact_lhes_oracle, rng)
        assert not decide_via_lhes(REJECT_BASE, X0, exact_lhes_oracle, rng)
        assert decide_via_pes(ACCEPT_BASE, X0, exact_pes_oracle, rng)
        assert not decide_via_pes(REJECT_BASE, X0, exact_pes_oracle, rng)
        assert decide_via_luae(ACCEPT_BASE, X0, exact_luae_oracle, rng)
        assert not decide_via_luae(REJECT_BASE, X0, exact_luae_oracle, rng)

    def test_quantum_routes_decide_the_definite_instances(self):
        rng = np.random.default_rng(86)
        assert decide_via_lhes(ACCEPT_BASE, X0, quantum_lhes_oracle, rng, votes=60)
        assert not decide_via_lhes(REJECT_BASE, X0, quantum_lhes_oracle, rng, votes=60)
        assert decide_via_pes(ACCEPT_BASE, X0, quantum_pes_oracle, rng)
        assert not decide_via_pes(REJECT_BASE, X0, quantum_pes_oracle, rng)
        assert decide_via_luae(ACCEPT_BASE, X0, quantum_luae_oracle, rng)
        assert not decide_via_luae(REJECT_BASE, X0, quantum_luae_oracle, rng)

    def test_survivor_fraction_tracks_the_acceptance_probability(self):
        # the in-band mass splits (1+a)/2 integer vs (1-a)/2 half, so the
        # vote threshold 1/4 separates acceptance probability 1/2
        for p_one, expected in ((0.1, 0.05), (0.9, 0.45)):
            inst = build_lhes_instance(rotation_base(p_one), X0)
            dist = exact_distribution(
                inst.compact_matrix(), inst.compact_request.b, "hermitian"
            )
            integer_grid, half_grid = eigenvalue_grids(inst.clock_dim)
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
        # one uniform per draw from the same stream: the same 500 values
        inst = build_lhes_instance(rotation_base(0.3), X0)
        laws = [
            (
                exact_lhes_oracle(inst),
                exact_distribution(inst.compact_matrix(), inst.compact_request.b, "hermitian"),
            )
        ]
        circuit = haar_base(90, gate_count=2)
        req = SamplingRequest(1.0 / 8.0, 0.01, BasisLabel("01"))
        laws.append(
            (
                exact_pes_oracle(circuit, req),
                exact_distribution(circuit_unitary(circuit), req.b, "unitary"),
            )
        )
        for draw, dist in laws:
            assert len(dist.points) >= 4
            rng, ref_rng = np.random.default_rng(91), np.random.default_rng(91)
            draws = [float(draw(rng)) for _ in range(500)]
            assert draws == [per_draw_sample(dist, ref_rng) for _ in range(500)]

    def test_exact_luae_oracle_reads_the_simulated_amplitude(self):
        rng = np.random.default_rng(92)
        for n in (1, 2, 3, 4):
            for _ in range(5):
                circuit = random_circuit(n, 3 * n, rng)
                b = BasisLabel("".join(str(v) for v in rng.integers(0, 2, size=n)))
                state = apply_circuit(circuit, StateVector.from_label(b))
                lam = exact_luae_oracle(circuit, SamplingRequest(0.25, 0.01, b))(None)
                assert lam == complex(state.amplitudes[b.basis_index()])
        with pytest.raises(DimensionMismatch):
            exact_luae_oracle(circuit, SamplingRequest(0.25, 0.01, BasisLabel("0")))

    def test_broken_oracle_raises(self):
        def broken(instance):
            return lambda rng: 5.0

        with pytest.raises(OracleFailure):
            decide_via_lhes(ACCEPT_BASE, X0, broken, np.random.default_rng(88), votes=3)

    def test_quantum_oracle_prepares_once(self, monkeypatch):
        # the oracle holds its preparation; draws never prepare again
        calls = []
        original = red_module.prepare_lhes

        def spy(h, req):
            calls.append(req)
            return original(h, req)

        monkeypatch.setattr(red_module, "prepare_lhes", spy)
        inst = build_lhes_instance(rotation_base(0.3), X0)
        draw = quantum_lhes_oracle(inst)
        rng = np.random.default_rng(89)
        draws = [float(draw(rng)) for _ in range(20)]
        assert calls == [inst.unary_request]
        assert all(abs(a) <= 2.0 + inst.compact_request.epsilon for a in draws)


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
