"""Hadamard-test estimation of <b|U|b> and normalized traces."""
import math

import numpy as np
import pytest

from eigensample import (
    BasisLabel,
    Circuit,
    DimensionMismatch,
    Gate,
    SamplingRequest,
    TooLarge,
    circuit_unitary,
    hadamard_test_probabilities,
    luae_estimate,
    luae_unguided,
    master_rng,
    named_gate,
    samples_per_component,
    substream_uniforms,
)
from eigensample import averages, circuits
from eigensample.circuits import _diagonal_pass, circuit_diagonal
from eigensample.seeding import MAX_SAMPLES
from _helpers import (
    basis_loader,
    grouped_circuit,
    phase_circuit,
    prepare_from_state,
    random_circuit,
    same_circuit,
)
from _per_b_luae import luae_estimate_per_b, luae_unguided_per_b

PROB_TOL = 1e-10

Z_CIRCUIT = Circuit(1, [named_gate("z", 0)])


def bracket(circuit, bits):
    """<b|U|b> computed densely."""
    u = circuit_unitary(circuit)
    idx = BasisLabel(bits).basis_index()
    return u[idx, idx]


class TestBudget:
    def test_frozen_sample_counts(self):
        # ceil((8 / eps^2) ln(4 / delta))
        assert samples_per_component(0.2, 0.1) == 738
        assert samples_per_component(0.05, 0.01) == 19173
        assert samples_per_component(0.1, 0.01) == 4794

    def test_domain(self):
        with pytest.raises(ValueError):
            samples_per_component(0.0, 0.1)
        with pytest.raises(ValueError):
            samples_per_component(2.1, 0.1)
        with pytest.raises(ValueError):
            samples_per_component(0.1, 1.0)
        assert samples_per_component(2.0, 0.5) == 5

    def test_cap_boundary(self):
        # (8 / eps^2) ln(4 / delta) equals MAX_SAMPLES at eps = edge; a
        # relative nudge of 1e-12 moves the budget by about 8e-6 pairs, far
        # more than the rounding of the formula
        delta = 0.1
        edge = math.sqrt(8.0 * math.log(4.0 / delta) / MAX_SAMPLES)
        assert samples_per_component(edge * (1 + 1e-12), delta) == MAX_SAMPLES
        with pytest.raises(TooLarge, match="exceed the cap"):
            samples_per_component(edge * (1 - 1e-12), delta)

    @pytest.mark.parametrize("epsilon", [1e-200, 1e-160, 1e-3])
    def test_tiny_epsilon_is_refused_by_size(self, epsilon):
        # epsilon^2 underflowed to zero (ZeroDivisionError) or 8 / epsilon^2
        # overflowed (OverflowError)
        with pytest.raises(TooLarge, match="cap"):
            samples_per_component(epsilon, 0.1)

    def test_subnormal_delta_keeps_its_budget(self):
        # 4 / delta overflows; ln 4 - ln delta does not, and the budget
        # is within the cap
        for delta in (1e-320, 5e-324):
            expected = math.ceil(32.0 * (math.log(4.0) - math.log(delta)))
            assert samples_per_component(0.5, delta) == expected

    def test_early_refusal_keeps_the_formula(self):
        # below epsilon = sqrt(8 / MAX_SAMPLES) the budget is over the cap
        # for every delta; above it the formula decides
        edge = math.sqrt(8.0 / MAX_SAMPLES)
        for epsilon in (edge * 0.999, edge, edge * 1.001, edge * 1.3):
            for delta in (0.9, 0.5, 0.1):
                m = math.ceil((8.0 / epsilon**2) * math.log(4.0 / delta))
                if m > MAX_SAMPLES:
                    with pytest.raises(TooLarge):
                        samples_per_component(epsilon, delta)
                else:
                    assert samples_per_component(epsilon, delta) == m

class TestLoader:
    def test_x_on_one_bits(self):
        circ = basis_loader(BasisLabel("101"))
        assert circ.qubit_count == 3
        assert [(g.name, g.support) for g in circ.gates] == [("x", (0,)), ("x", (2,))]
        out = circ and circuit_unitary(circ)[:, 0]
        assert abs(out[BasisLabel("101").basis_index()] - 1.0) < PROB_TOL

    def test_empty_label_rejected(self):
        with pytest.raises(ValueError):
            basis_loader(BasisLabel(""))


class TestProbabilities:
    def test_identity_circuit_is_certain(self):
        ident = Circuit(1, [])
        p_x0, p_y0 = hadamard_test_probabilities(ident, Circuit(1, []))
        assert abs(p_x0 - 1.0) < PROB_TOL
        assert abs(p_y0 - 0.5) < PROB_TOL

    def test_z_on_one_is_certainly_minus(self):
        p_x0, p_y0 = hadamard_test_probabilities(Z_CIRCUIT, basis_loader(BasisLabel("1")))
        assert abs(p_x0 - 0.0) < PROB_TOL
        assert abs(p_y0 - 0.5) < PROB_TOL

    def test_z_on_plus_is_balanced(self):
        plus_prep = Circuit(1, [named_gate("h", 0)])
        p_x0, p_y0 = hadamard_test_probabilities(Z_CIRCUIT, plus_prep)
        assert abs(p_x0 - 0.5) < PROB_TOL
        assert abs(p_y0 - 0.5) < PROB_TOL

    def test_matches_dense_bracket(self):
        rng = np.random.default_rng(64)
        for _ in range(5):
            circ = random_circuit(3, 8, rng)
            bits = "".join(str(b) for b in rng.integers(0, 2, size=3))
            amp = bracket(circ, bits)
            p_x0, p_y0 = hadamard_test_probabilities(circ, basis_loader(BasisLabel(bits)))
            assert abs((2.0 * p_x0 - 1.0) - amp.real) < PROB_TOL
            assert abs((2.0 * p_y0 - 1.0) - amp.imag) < PROB_TOL

    def test_prep_register_checked(self):
        with pytest.raises(DimensionMismatch):
            hadamard_test_probabilities(Z_CIRCUIT, Circuit(2, []))


class TestSampling:
    def test_x_mean_tracks_real_part(self):
        # <+|Z|+> = 0: 1e5 fair x draws within 5 sigma of zero
        plus_prep = Circuit(1, [named_gate("h", 0)])
        p_x0, _ = hadamard_test_probabilities(Z_CIRCUIT, plus_prep)
        n = 10**5
        draws = np.where(np.random.default_rng(66).random(n) < p_x0, 1.0, -1.0)
        assert abs(draws.mean()) < 5.0 / np.sqrt(n)


class TestGuidedEstimate:
    def test_definite_amplitude(self):
        req = SamplingRequest(0.2, 0.1, BasisLabel("1"))
        est = luae_estimate(Z_CIRCUIT, req, np.random.default_rng(68))
        assert est.m_samples == 738
        assert abs(est.lambda_hat - (-1.0)) <= 0.2

    def test_magnitude_never_exceeds_root_two(self):
        # each component is a mean of plus/minus ones
        rng = np.random.default_rng(69)
        for _ in range(10):
            circ = random_circuit(2, 6, rng)
            req = SamplingRequest(0.5, 0.2, BasisLabel("10"))
            est = luae_estimate(circ, req, rng)
            assert abs(est.lambda_hat.real) <= 1.0
            assert abs(est.lambda_hat.imag) <= 1.0
            assert abs(est.lambda_hat) <= np.sqrt(2.0)

    def test_hundred_seeded_trials(self):
        fails = 0
        for k in range(100):
            rng = np.random.default_rng(1000 + k)
            circ = random_circuit(3, 10, rng)
            amp = bracket(circ, "101")
            est = luae_estimate(circ, SamplingRequest(0.2, 0.1, BasisLabel("101")), rng)
            if abs(est.lambda_hat - amp) > 0.2:
                fails += 1
        # budget allows 10; the Hoeffding constant is loose enough that
        # more than 3 misses would signal a real defect
        assert fails <= 3

    def test_register_checked(self):
        with pytest.raises(DimensionMismatch):
            luae_estimate(Z_CIRCUIT, SamplingRequest(0.2, 0.1, BasisLabel("11")), None)

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_matches_hadamard_test_reference(self, n):
        # <b|U|b> from one diagonal column, the same x, y uniforms: the
        # estimate is bit-identical to a Hadamard test on basis_loader(b)
        for seed in (74, 75, 76):
            rng = np.random.default_rng(seed)
            circ = random_circuit(n, 4 * n, rng)
            bits = "".join(str(v) for v in rng.integers(0, 2, size=n))
            req = SamplingRequest(0.2, 0.05, BasisLabel(bits))
            est = luae_estimate(circ, req, np.random.default_rng(seed + 10))
            ref = luae_estimate_per_b(circ, req, np.random.default_rng(seed + 10))
            assert est.lambda_hat == ref.lambda_hat
            assert est.m_samples == ref.m_samples


class TestUnguided:
    def test_identity_trace(self):
        est = luae_unguided(Circuit(2, []), 0.1, 0.01, np.random.default_rng(70))
        assert abs(est.lambda_hat - 1.0) <= 0.1
        assert est.m_samples == 4794

    def test_traceless_circuit(self):
        est = luae_unguided(Z_CIRCUIT, 0.1, 0.01, np.random.default_rng(61))
        assert abs(est.lambda_hat) <= 0.1

    def test_random_four_qubit_trace(self):
        circ = random_circuit(4, 12, np.random.default_rng(62))
        normalized_trace = np.trace(circuit_unitary(circ)) / 16.0
        est = luae_unguided(circ, 0.1, 0.01, np.random.default_rng(63))
        assert abs(est.lambda_hat - normalized_trace) <= 0.1

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_matches_per_b_reference(self, n):
        # same draws in the same order, so the estimate is bit-identical
        for seed in (64, 65, 66):
            circ = random_circuit(n, 4 * n, np.random.default_rng(seed))
            est = luae_unguided(circ, 0.2, 0.05, np.random.default_rng(seed + 10))
            ref = luae_unguided_per_b(circ, 0.2, 0.05, np.random.default_rng(seed + 10))
            assert est.lambda_hat == ref.lambda_hat
            assert est.m_samples == ref.m_samples

    def test_command_stream_matches_per_b_reference(self):
        # master_rng's one batch call against the reference's scalar calls
        circ = random_circuit(3, 12, np.random.default_rng(67))
        est = luae_unguided(circ, 0.2, 0.05, master_rng(67))
        assert est.lambda_hat == luae_unguided_per_b(circ, 0.2, 0.05, master_rng(67)).lambda_hat

    @pytest.mark.parametrize("n", [1, 10, 24])
    def test_b_is_the_top_bits_of_its_uniform(self, n, monkeypatch):
        # b = floor(u * 2^n) = j >> (53 - n) for u = j * 2^-53: exact, and
        # uniform on [0, 2^n) for every n up to the 24-qubit cap
        seen = []

        def diagonal(circuit, indices):
            seen.append(indices)
            return np.ones(len(indices), dtype=complex)

        monkeypatch.setattr(averages, "circuit_diagonal", diagonal)
        est = luae_unguided(Circuit(n, []), 0.2, 0.05, master_rng(n))
        u = substream_uniforms(n, 3 * est.m_samples)[0::3]
        j = (u * 2**53).astype(np.int64)
        assert np.array_equal(j * 2.0**-53, u)
        assert np.array_equal(seen[0], np.unique(j >> (53 - n)))


def spy_on_diagonal(monkeypatch):
    """Record each circuit pass of circuits.circuit_diagonal, one per qubit
    group, as (circuit, indices)."""
    calls = []

    def spy(circuit, indices):
        calls.append((circuit, np.array(indices)))
        return _diagonal_pass(circuit, indices)

    monkeypatch.setattr(circuits, "_diagonal_pass", spy)
    return calls


def drawn_indices(n, m, seed):
    """The distinct basis indices luae_unguided draws: b, x, y per sample,
    b the top n of the 53 bits of its uniform."""
    rng = np.random.default_rng(seed)
    indices = []
    for _ in range(m):
        indices.append(int(rng.random() * 2**53) >> (53 - n))
        rng.random()
        rng.random()
    return np.unique(indices)


class TestGroupedUnguided:
    """luae_unguided reads <b|U|b> as the product of each qubit group's
    diagonal entry."""

    @pytest.mark.parametrize("n, groups", [
        (5, ((0, 3), (4,))),
        (7, ((6, 1), (2, 4, 5))),
        (8, ((0, 7), (3, 5), (6, 1, 2))),
    ])
    def test_matches_per_b_reference(self, n, groups):
        # idle qubits and groups of non-adjacent qubits
        for seed in (80, 81):
            circ = grouped_circuit(n, groups, 6 * n, np.random.default_rng(seed))
            est = luae_unguided(circ, 0.2, 0.05, np.random.default_rng(seed + 10))
            ref = luae_unguided_per_b(circ, 0.2, 0.05, np.random.default_rng(seed + 10))
            assert est.lambda_hat == ref.lambda_hat

    def test_no_diagonal_wider_than_the_widest_group(self, monkeypatch):
        circ = grouped_circuit(10, ((0, 9, 4), (1, 5), (2, 3, 6, 8)), 40, np.random.default_rng(82))
        calls = spy_on_diagonal(monkeypatch)
        luae_unguided(circ, 0.15, 0.01, np.random.default_rng(83))
        assert sorted(c.qubit_count for c, _ in calls) == [2, 3, 4]
        assert all(keys.size <= 2**c.qubit_count for c, keys in calls)

    def test_connected_circuit_makes_the_one_full_call(self, monkeypatch):
        circ = random_circuit(6, 30, np.random.default_rng(84))
        calls = spy_on_diagonal(monkeypatch)
        est = luae_unguided(circ, 0.2, 0.05, np.random.default_rng(85))
        [(called, keys)] = calls
        assert same_circuit(called, circ)
        assert np.array_equal(keys, drawn_indices(6, est.m_samples, 85))
        indices = np.arange(64)
        assert np.array_equal(circuit_diagonal(circ, indices), _diagonal_pass(circ, indices))

    def test_empty_circuit_reads_one_without_a_pass(self, monkeypatch):
        calls = spy_on_diagonal(monkeypatch)
        est = luae_unguided(Circuit(3, []), 0.2, 0.05, np.random.default_rng(86))
        assert calls == []
        assert est.lambda_hat == luae_unguided_per_b(
            Circuit(3, []), 0.2, 0.05, np.random.default_rng(86)
        ).lambda_hat

    def test_global_phase_joins_qubit_zero(self, monkeypatch):
        phase = Gate("g", (), np.array([[np.exp(0.7j)]]))
        circ = Circuit(3, [named_gate("h", 2), phase, named_gate("s", 0)])
        calls = spy_on_diagonal(monkeypatch)
        est = luae_unguided(circ, 0.2, 0.05, np.random.default_rng(87))
        assert [c.qubit_count for c, _ in calls] == [1, 1]
        assert est.lambda_hat == luae_unguided_per_b(
            circ, 0.2, 0.05, np.random.default_rng(87)
        ).lambda_hat
        indices = np.arange(8)
        assert np.allclose(
            circuit_diagonal(circ, indices), np.diag(circuit_unitary(circ)), atol=1e-15
        )


class TestPhaseAveragingPitfall:
    def test_qpe_mean_is_biased_where_the_direct_test_is_not(self):
        """Averaging e^{2 pi i phi} over phase-estimation draws does not
        estimate <b|U|b>: the finite-register law spreads mass across the
        whole grid and drags the mean toward the origin."""
        phase = 1.0 / 32.0
        circ = phase_circuit(phase)
        true = np.exp(2j * np.pi * phase)

        eigvec = np.array([0.0, 1.0], dtype=complex)
        prep = prepare_from_state(circuit_unitary(circ), eigvec, 4)
        grid = np.arange(16) / 16.0
        qpe_mean = np.sum(prep.raw_probabilities * np.exp(2j * np.pi * grid))
        # the kernel mean contracts by exactly 1/8 at this phase offset
        assert abs(abs(qpe_mean - true) - 0.125) < 1e-12

        req = SamplingRequest(0.05, 0.01, BasisLabel("1"))
        est = luae_estimate(circ, req, np.random.default_rng(60))
        assert abs(est.lambda_hat - true) <= 0.05
        assert abs(qpe_mean - true) > 0.05
