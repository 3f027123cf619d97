"""Phase-estimation law and sampling, checked against closed forms and the
gate-level reference estimator (Fourier transform, controlled powers)."""
import math
import tracemalloc

import numpy as np
import pytest

import _gate_level as gate_level
import eigensample.distributions as distributions
from eigensample import (
    BasisLabel,
    Circuit,
    DimensionMismatch,
    LocalHamiltonian,
    LocalTerm,
    SamplingRequest,
    TooLarge,
    ancilla_bits,
    ceil_log2,
    circuit_unitary,
    named_gate,
    prepare_lhes,
    prepare_pes,
)
from eigensample.phase_estimation import (
    MAX_ESTIMATOR_BITS,
    MAX_KERNEL_WORK,
    check_kernel_work,
    fejer_law,
)
from _gate_level import ancilla_law, controlled_power_apply, qft_apply
from _helpers import (
    basis_state,
    circular_distance,
    geometric_phase_law,
    phase_circuit,
    prepare_from_state,
    random_circuit,
    random_state,
    two_sine_law,
)

STATE_TOL = 1e-10
LAW_TOL = 1e-10
PROB_TOL = 1e-12


class TestCeilLog2:
    def test_powers_of_two_are_knife_edges(self):
        assert ceil_log2(1) == 0
        assert ceil_log2(2) == 1
        assert ceil_log2(2.0000001) == 2
        assert ceil_log2(32) == 5
        assert ceil_log2(33) == 6

    def test_small_arguments_clamp_to_zero(self):
        assert ceil_log2(0.3) == 0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ceil_log2(0.0)
        with pytest.raises(ValueError):
            ceil_log2(-1.0)

    def test_matches_doubling_loop(self):
        def doubling(x):
            t = 0
            while 2**t < x:
                t += 1
            return t

        rng = np.random.default_rng(3)
        edges = [2.0**k * f for k in range(-3, 70) for f in (1.0, 1 + 2**-52, 1 - 2**-53)]
        for x in edges + list(rng.uniform(0.0, 1e6, 1000)):
            assert ceil_log2(x) == doubling(x)

    def test_rejects_infinity(self):
        # 1 / epsilon overflows for epsilon below about 5.6e-309
        with pytest.raises(ValueError):
            ceil_log2(1.0 / 1e-310)


class TestRequestAndConfig:
    def test_ancilla_budget(self):
        # ceil_log2(32) + ceil_log2(2 + 1/0.2) = 5 + 3
        assert ancilla_bits(1.0 / 32.0, 0.1) == 8

    def test_epsilon_above_one_is_legal(self):
        # eigenvalue sampling rescales by the spectral cap, so the raw
        # accuracy target can exceed 1
        req = SamplingRequest(2.5, 0.1, BasisLabel("01"))
        assert req.epsilon == 2.5
        assert ancilla_bits(2.5, 0.1) == ceil_log2(2 + 1.0 / 0.2)
        # no precision bits from 1 up, also where lhes's epsilon / lambda_cap
        # overflows to inf
        for epsilon in (1.0, 1e308, math.inf):
            assert ancilla_bits(epsilon, 0.1) == ceil_log2(2 + 1.0 / 0.2)

    def test_ancilla_cap(self):
        # 2^-21 and delta 0.1 give 21 + 3 = 24 bits, the cap; 2^-22 gives 25
        assert ancilla_bits(2.0**-21, 0.1) == MAX_ESTIMATOR_BITS
        with pytest.raises(TooLarge):
            ancilla_bits(2.0**-22, 0.1)

    @pytest.mark.parametrize(
        "epsilon, delta", [(1e-320, 0.1), (0.1, 5e-324), (0.0, 0.1), (2.0**-24.5, 0.5)]
    )
    def test_tiny_precision_is_refused_by_size(self, epsilon, delta):
        # 1 / epsilon or 1 / (2 delta) overflowed to inf (ValueError), or
        # divided by an underflowed zero (ZeroDivisionError)
        with pytest.raises(TooLarge, match="ancilla bits"):
            ancilla_bits(epsilon, delta)

    def test_early_refusal_keeps_the_formula(self):
        # around 2^-24, where the early refusal begins, ancilla_bits agrees
        # with the formula: the same t, or TooLarge where t passes the cap
        for epsilon in np.geomspace(2.0**-25, 2.0**-20, 301).tolist() + [4.0, 2.0**-24]:
            for delta in np.geomspace(2.0**-27, 0.9, 61).tolist() + [2.0**-25]:
                t = ceil_log2(1.0 / epsilon) + ceil_log2(2.0 + 1.0 / (2.0 * delta))
                if t > MAX_ESTIMATOR_BITS:
                    with pytest.raises(TooLarge):
                        ancilla_bits(epsilon, delta)
                else:
                    assert ancilla_bits(epsilon, delta) == t

    def test_phase_estimate_shares_the_cap(self, monkeypatch):
        # pes and lhes both take t from ancilla_bits, and the cap fires
        # before any dense matrix is built
        def unreachable(*args):
            raise AssertionError("dense work before the size check")

        # both laws build their dense unitary in spectral_weights
        monkeypatch.setattr(distributions, "circuit_unitary", unreachable)
        circ = Circuit(1, [named_gate("z", 0)])
        with pytest.raises(TooLarge, match="ancilla bits"):
            prepare_pes(circ, SamplingRequest(2.0**-22, 0.1, BasisLabel("1")))
        # lhes asks for precision 2^-21 / lambda_cap at delta 0.05: 25+ bits
        h = LocalHamiltonian(1, [LocalTerm((0,), np.diag([1.0, -1.0]))])
        with pytest.raises(TooLarge, match="ancilla bits"):
            prepare_lhes(h, SamplingRequest(2.0**-21, 0.1, BasisLabel("1")))

    def test_phase_estimate_at_the_cap(self):
        # 2^-21 and delta 0.1 give t = 24; Z's phase 1/2 on |1> sits on the
        # grid, so the draw is exact
        t = ancilla_bits(2.0**-21, 0.1)
        assert t == MAX_ESTIMATOR_BITS
        prep = prepare_from_state(np.diag([1.0, -1.0]), basis_state(1, 1), t)
        assert prep.sample(np.random.default_rng(0)) == 0.5

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            SamplingRequest(0.0, 0.1, BasisLabel("0"))
        with pytest.raises(ValueError):
            SamplingRequest(0.1, 0.0, BasisLabel("0"))
        with pytest.raises(ValueError):
            SamplingRequest(0.1, 1.0, BasisLabel("0"))

    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_epsilon_is_refused(self, epsilon):
        # NaN compares false with everything, so a plain epsilon <= 0 test
        # let it through to ceil_log2
        with pytest.raises(ValueError, match="epsilon"):
            SamplingRequest(epsilon, 0.1, BasisLabel("0"))


class TestQft:
    def test_single_qubit_is_hadamard(self):
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        for k in range(2):
            state = basis_state(1, k)
            out = qft_apply(state, (0,))
            assert np.allclose(out, h[:, k], atol=STATE_TOL)

    def test_zero_state_goes_uniform(self):
        out = qft_apply(basis_state(3, 0), (0, 1, 2))
        assert np.allclose(out, np.full(8, 1 / np.sqrt(8)), atol=STATE_TOL)

    def test_two_qubit_matrix(self):
        w = np.exp(2j * np.pi / 4)
        expected = np.array(
            [[w ** (j * k) for k in range(4)] for j in range(4)]
        ) / 2.0
        cols = []
        for k in range(4):
            cols.append(qft_apply(basis_state(2, k), (0, 1)))
        assert np.allclose(np.array(cols).T, expected, atol=STATE_TOL)

    def test_inverse_composes_to_identity(self):
        rng = np.random.default_rng(40)
        state = random_state(4, rng)
        back = qft_apply(qft_apply(state, (0, 2)), (0, 2), inverse=True)
        assert np.allclose(back, state, atol=STATE_TOL)

    def test_untouched_qubit_factors_out(self):
        rng = np.random.default_rng(41)
        left = random_state(2, rng)
        spectator = random_state(1, rng)
        joint = np.kron(left, spectator)
        out = qft_apply(joint, (0, 1))
        expected = np.kron(qft_apply(left, (0, 1)), spectator)
        assert np.allclose(out, expected, atol=STATE_TOL)

    def test_register_validation(self):
        state = basis_state(2, 0)
        with pytest.raises(ValueError):
            qft_apply(state, (0, 0))
        with pytest.raises(DimensionMismatch):
            qft_apply(state, (0, 2))


class TestControlledPower:
    def test_control_zero_branch_is_identity(self):
        circ = Circuit(1, [named_gate("x", 0)])
        state = basis_state(2, 0)
        out = controlled_power_apply(circ, 0, 3, state)
        assert np.allclose(out, state, atol=STATE_TOL)

    def test_z_squared_is_identity_on_one_branch(self):
        circ = Circuit(1, [named_gate("z", 0)])
        # control set, target |1>: Z^2 leaves the amplitude alone
        state = basis_state(2, 3)
        out = controlled_power_apply(circ, 0, 2, state)
        assert np.allclose(out, state, atol=STATE_TOL)
        flipped = controlled_power_apply(circ, 0, 1, state)
        assert np.allclose(flipped, -state, atol=STATE_TOL)

    def test_matches_dense_block_unitary(self):
        rng = np.random.default_rng(42)
        circ = random_circuit(2, 6, rng)
        u = circuit_unitary(circ)
        for power in (1, 2, 5):
            block = np.linalg.matrix_power(u, power)
            # control on qubit 1 of 4, target window is qubits 2..3
            full = np.kron(
                np.eye(2),
                np.kron(np.diag([1.0, 0.0]), np.eye(4))
                + np.kron(np.diag([0.0, 1.0]), block),
            )
            state = random_state(4, rng)
            out = controlled_power_apply(circ, 1, power, state)
            assert np.allclose(out, full @ state, atol=1e-9)

    def test_control_inside_target_window_rejected(self):
        circ = Circuit(2, [named_gate("h", 0)])
        state = basis_state(3, 0)
        with pytest.raises(ValueError):
            controlled_power_apply(circ, 1, 1, state)
        with pytest.raises(ValueError):
            controlled_power_apply(circ, 0, 0, state)


def prepare(circuit, system_state, t):
    return prepare_from_state(circuit_unitary(circuit), system_state, t)


class TestPreparedDistribution:
    def test_gate_level_reference_matches_core(self):
        rng = np.random.default_rng(43)
        for qubits in (2, 3):
            for t in (3, 5, 6):
                circ = random_circuit(qubits, 6, rng)
                system = random_state(qubits, rng)
                law = prepare(circ, system, t).raw_probabilities
                reference = ancilla_law(circ, system, t)
                assert np.max(np.abs(law - reference)) <= LAW_TOL

    def test_isolated_phase_follows_geometric_law(self):
        eigvec = np.array([0.0, 1.0], dtype=complex)
        prep = prepare(phase_circuit(0.3), eigvec, 6)
        law = geometric_phase_law(6, [0.3], [1.0])
        assert np.max(np.abs(prep.raw_probabilities - law)) < LAW_TOL

    def test_mixture_weights_add_linearly(self):
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        circ = phase_circuit(0.3, 0.55)
        mixed = prepare(circ, plus, 6).raw_probabilities
        law = geometric_phase_law(6, [0.3, 0.55], [0.5, 0.5])
        assert np.max(np.abs(mixed - law)) < LAW_TOL
        # same thing computed from the two eigenvector runs directly
        e0 = basis_state(1, 0)
        e1 = basis_state(1, 1)
        per_phase = (
            prepare(circ, e0, 6).raw_probabilities
            + prepare(circ, e1, 6).raw_probabilities
        ) / 2.0
        assert np.max(np.abs(mixed - per_phase)) < PROB_TOL

    def test_exactly_representable_phases_are_sharp(self):
        circ = Circuit(2, [named_gate("x", 0), named_gate("x", 1)])
        zero = basis_state(2, 0)
        prep = prepare(circ, zero, 4)
        probs = prep.raw_probabilities
        # X(x)X from |00>: phases 0 and 1/2, each with weight 1/2
        assert abs(probs[0] - 0.5) < PROB_TOL
        assert abs(probs[8] - 0.5) < PROB_TOL
        assert np.sum(np.abs(probs) > PROB_TOL) == 2

    def test_phases_near_the_seam_keep_full_precision(self):
        # phi and 1 - phi give mirrored laws, P_phi(x) = P_(1-phi)(-x); the
        # law for a phase just below 1 must not lose digits to the wrap
        t = 16
        one = basis_state(1, 1)
        below = prepare(phase_circuit(-1e-7), one, t).raw_probabilities
        above = prepare(phase_circuit(1e-7), one, t).raw_probabilities
        mirrored = above[(-np.arange(2**t)) % 2**t]
        assert np.max(np.abs(below - mirrored)) < 1e-11

    def test_conditioning_recovers_the_eigenvector(self):
        # post-measurement system state of the gate-level reference
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        final = gate_level.final_state(phase_circuit(0.3, 0.7), plus, 6)
        block = final.reshape(2**6, -1)[19]
        cond = block / np.linalg.norm(block)
        # raw 19 sits nearest 0.3; the competing kernel at 0.7 is tiny
        k_near = geometric_phase_law(6, [0.3], [1.0])[19]
        k_far = geometric_phase_law(6, [0.7], [1.0])[19]
        predicted = k_near / (k_near + k_far)
        fidelity = abs(cond[0]) ** 2
        assert abs(fidelity - predicted) < 1e-12
        assert fidelity > 0.999

    def test_work_is_two_to_t_minus_one(self, monkeypatch):
        # the reference is the literal estimator: one controlled power per
        # ancilla, 1 + 2 + ... + 2^(t-1) circuit passes in all
        calls = []
        original = gate_level.controlled_power_apply

        def spy(circuit, control, power, state):
            calls.append(power)
            return original(circuit, control, power, state)

        monkeypatch.setattr(gate_level, "controlled_power_apply", spy)
        eigvec = basis_state(1, 0)
        gate_level.final_state(phase_circuit(0.3), eigvec, 6)
        assert sorted(calls) == [2**k for k in range(6)]
        assert sum(calls) == 2**6 - 1

    def test_batch_matches_sequential_stream(self):
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        prep = prepare(phase_circuit(0.3), plus, 6)
        batch = prep.sample_raw_batch(7, np.random.default_rng(5))
        rng = np.random.default_rng(5)
        sequential = [prep.sample(rng) for _ in range(7)]
        assert np.array_equal(batch / 2**6, sequential)


def max_relative_gap(law, reference):
    """Largest |law - reference| / reference; entries where the reference is
    exactly 0 must be exactly 0 in the law too."""
    zero = reference == 0.0
    assert np.array_equal(law[zero], reference[zero])
    return float(np.max(np.abs(law[~zero] - reference[~zero]) / reference[~zero]))


class TestFejerLaw:
    """The table kernel against the two-sine loop it replaced."""

    KERNEL_REL_TOL = 1e-14

    def phase_grid(self, t, rng):
        """Random phases plus phases within 1e-12 of 0, of 1 and of the
        bin midpoints, on either side."""
        dim = 2**t
        near = [0.0, 1.0] + [(k + 0.5) / dim for k in rng.choice(dim, min(dim, 4), replace=False)]
        close = [p + d for p in near for d in (-1e-12, -3e-13, 3e-13, 1e-12)]
        return np.array([p % 1.0 for p in close] + list(rng.random(12)))

    @pytest.mark.parametrize("t", [1, 2, 3, 8, 16])
    def test_matches_the_two_sine_reference(self, t):
        rng = np.random.default_rng(100 + t)
        phases = self.phase_grid(t, rng)
        weights = rng.random(len(phases))
        weights[::5] = 0.0
        weights /= weights.sum()
        for power in (1, 3, 977, 3 * 10**7):
            powered = phases * power % 1.0
            law = fejer_law(powered, weights, t)
            reference = two_sine_law(powered, weights, t)
            assert max_relative_gap(law, reference) <= self.KERNEL_REL_TOL

    @pytest.mark.parametrize("t", [1, 2, 3, 8, 16])
    def test_single_phases_match_one_by_one(self, t):
        # one eigenphase at a time, so no term hides under a larger one
        rng = np.random.default_rng(200 + t)
        for phi in self.phase_grid(t, rng):
            law = fejer_law([phi], [1.0], t)
            assert max_relative_gap(law, two_sine_law([phi], [1.0], t)) <= self.KERNEL_REL_TOL
            assert abs(law.sum() - 1.0) < 1e-12

    def test_zero_weights_add_nothing(self):
        rng = np.random.default_rng(7)
        phases, weights = rng.random(6), rng.random(6)
        padded_phases = np.insert(phases, [0, 3, 6], [0.25, 0.6, 0.9])
        padded_weights = np.insert(weights, [0, 3, 6], 0.0)
        assert np.array_equal(
            fejer_law(padded_phases, padded_weights, 10), fejer_law(phases, weights, 10)
        )

    def test_sharp_phases_land_on_one_outcome(self):
        law = fejer_law([0.0, 0.75, 0.5], [0.5, 0.25, 0.25], 3)
        assert np.array_equal(law, [0.5, 0, 0, 0, 0.25, 0, 0.25, 0])

    def test_cos_table_reuses_the_angle_buffer(self, monkeypatch):
        # at t = 20 the peak holds the law and den (8 MiB each), tmp and the
        # sin and cos tables (4 MiB each): 28 MiB, where a separate angle
        # table made it 32 MiB; the law is the one separate tables give
        rng = np.random.default_rng(9)
        phases, weights = rng.random(5), np.full(5, 0.2)
        tracemalloc.start()
        try:
            law = fejer_law(phases, weights, 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 29 * 2**20
        cos = np.cos
        monkeypatch.setattr(np, "cos", lambda x, out=None: cos(x))
        assert np.array_equal(fejer_law(phases, weights, 20), law)


class TestKernelWorkCap:
    def test_cap_boundary(self):
        # 2^8 eigenphases x 2^24 outcomes is the cap itself
        check_kernel_work(8, 24)
        with pytest.raises(TooLarge, match="2\\^9 eigenphases x 2\\^24 outcomes"):
            check_kernel_work(9, 24)
        assert MAX_KERNEL_WORK == 2**32

    def test_prepare_pes_refuses_before_dense_work(self, monkeypatch):
        def unreachable(circuit):
            raise AssertionError("dense work before the work check")

        monkeypatch.setattr(distributions, "circuit_unitary", unreachable)
        # 12 qubits at t = 24: 2^36 element updates
        circ = Circuit(12, [named_gate("h", 0)])
        req = SamplingRequest(2.0**-21, 0.1, BasisLabel("0" * 12))
        with pytest.raises(TooLarge, match="kernel work"):
            prepare_pes(circ, req)


class TestPhaseEstimate:
    """Draws from an eigenvector: each lands on the grid point of its phase,
    or within the precision of it up to the failure budget."""

    def eigen_draws(self, circ, precision, delta, count, rng):
        t = ancilla_bits(precision, delta)
        prep = prepare_from_state(circuit_unitary(circ), basis_state(1, 1), t)
        return [prep.sample(rng) for _ in range(count)]

    def test_z_eigenvector_is_exact(self):
        circ = Circuit(1, [named_gate("z", 0)])
        draws = self.eigen_draws(circ, 2.0**-3, 0.1, 20, np.random.default_rng(44))
        assert draws == [0.5] * 20

    def test_s_eigenvector_is_exact_at_two_bits(self):
        circ = Circuit(1, [named_gate("s", 0)])
        draws = self.eigen_draws(circ, 2.0**-2, 0.2, 1, np.random.default_rng(45))
        assert draws == [0.25]

    def test_failure_rate_within_budget(self):
        # precision 2^-4 at delta 0.05 allocates t = 8; the geometric law
        # puts 0.00432 of mass outside the 1/16 window, far under the budget
        assert ancilla_bits(2.0**-4, 0.05) == 8
        law = geometric_phase_law(8, [0.3], [1.0])
        grid = np.arange(2**8) / 2**8
        outside = np.array([circular_distance(g, 0.3) > 2.0**-4 for g in grid])
        assert law[outside].sum() < 0.05

        rng = np.random.default_rng(46)
        draws = self.eigen_draws(phase_circuit(0.3), 2.0**-4, 0.05, 2000, rng)
        misses = sum(circular_distance(phi, 0.3) > 2.0**-4 for phi in draws)
        # mean 8.6 misses, allow 5 sigma of headroom
        assert misses / 2000 < 0.0043 + 5.0 * np.sqrt(0.0043 / 2000)


class TestPesInterface:
    def test_b_length_must_match(self):
        circ = Circuit(2, [named_gate("h", 0)])
        with pytest.raises(DimensionMismatch):
            prepare_pes(circ, SamplingRequest(0.1, 0.1, BasisLabel("0")))

    def test_sample_lands_near_a_true_phase(self):
        rng = np.random.default_rng(49)
        circ = random_circuit(2, 6, rng)
        phases = np.angle(np.linalg.eigvals(circuit_unitary(circ))) / (2 * np.pi) % 1.0
        prep = prepare_pes(circ, SamplingRequest(1.0 / 32.0, 0.05, BasisLabel("00")))
        hits = 0
        for _ in range(50):
            phi = prep.sample(rng)
            if min(circular_distance(phi, p) for p in phases) <= 1.0 / 32.0:
                hits += 1
        # failure budget 0.05: 50 draws miss more than 9 times with
        # probability under 1e-4
        assert hits >= 41
