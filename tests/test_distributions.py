"""Spectral distributions, exact sampling, and transport feasibility."""
import itertools
import time

import mpmath
import numpy as np
import pytest

from eigensample import (
    ApproxCheckInstance,
    BasisLabel,
    Circuit,
    DimensionMismatch,
    Gate,
    FlowNetwork,
    MetricMismatch,
    NotUnitary,
    PreparedPhaseEstimation,
    SamplingRequest,
    SpectralDistribution,
    TooLarge,
    approx_check,
    circuit_unitary,
    empirical_approx_check,
    empirical_feasibility,
    exact_distribution,
    make_distribution,
    max_flow,
    named_gate,
    point_distance,
    prepare_pes,
    sample_values,
    total_variation,
)
from eigensample import distributions
from eigensample.circuits import apply_columns, circuit_components
from eigensample.distributions import EDGE_DISTANCE_TOL, spectral_weights
from eigensample.linalg import unitary_eig, unitary_eig_in_place
from eigensample.reductions import _ring_slice
from _helpers import (
    all_pairs_edges,
    circular_distance,
    clifford_circuit,
    former_make_distribution,
    former_spectral_weights,
    former_total_variation,
    grouped_circuit,
    haar_unitary,
    per_draw_sample,
    random_circuit,
    random_hermitian,
    reference_transport,
)

EXACT_TOL = 1e-12
WITNESS_TOL = 1e-9

Z = np.diag([1.0, -1.0]).astype(complex)
X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

# the two uniform ten-point combs at offset 0.01: total variation is maximal
# while every point only needs to move by 0.01
COMB_P = SpectralDistribution([(0.1 * k, 0.1) for k in range(1, 11)], "absolute")
COMB_Q = SpectralDistribution([(0.1 * k - 0.01, 0.1) for k in range(1, 11)], "absolute")


def brute_force_min_cut(net):
    """Max flow equals the minimum cut; enumerate all source/sink splits.

    The network is S -> source_i (cap supply_i) -> sink_j (cap supply_i on
    present edges) -> T (cap demand_j).  A cut keeps subsets A of sources
    and B of sinks on the S side.
    """
    m, n = len(net.supplies), len(net.demands)
    best = np.inf
    for a_mask in range(2**m):
        a = {i for i in range(m) if a_mask >> i & 1}
        for b_mask in range(2**n):
            b = {j for j in range(n) if b_mask >> j & 1}
            cut = sum(net.supplies[i] for i in range(m) if i not in a)
            cut += sum(net.supplies[i] for i, j in net.edges if i in a and j not in b)
            cut += sum(net.demands[j] for j in b)
            best = min(best, cut)
    return best


class TestPointDistance:
    def test_circular_wraps(self):
        assert abs(point_distance(0.95, 0.05, "circular") - 0.10) < EXACT_TOL
        assert abs(point_distance(0.0, 0.999, "circular") - 0.001) < 1e-10

    def test_absolute_does_not(self):
        assert abs(point_distance(0.95, 0.05, "absolute") - 0.90) < EXACT_TOL

    @pytest.mark.parametrize("metric", ["absolute", "circular"])
    def test_arrays_match_the_scalar_calls(self, metric):
        rng = np.random.default_rng(80)
        a = np.concatenate([rng.uniform(-3, 4, 500), rng.integers(-64, 128, 500) / 64,
                            1e6 + rng.random(500)])
        b = np.concatenate([rng.uniform(-3, 4, 500), rng.integers(-64, 128, 500) / 64,
                            rng.random(500)])
        expected = [point_distance(x, y, metric) for x, y in zip(a.tolist(), b.tolist())]
        assert point_distance(a, b, metric).tolist() == expected


class TestMakeDistribution:
    def test_merges_nearby_values(self):
        d = make_distribution([0.5, 0.5 + 1e-10], [0.3, 0.7], "absolute")
        assert len(d.points) == 1
        value, weight = d.points[0]
        assert abs(weight - 1.0) < EXACT_TOL
        assert abs(value - (0.3 * 0.5 + 0.7 * (0.5 + 1e-10))) < EXACT_TOL

    def test_circular_wrap_merge(self):
        d = make_distribution([1e-10, 1.0 - 1e-10], [0.4, 0.6], "circular")
        assert len(d.points) == 1
        assert circular_distance(d.points[0][0], 0.0) < 1e-9

    def test_wrapped_cluster_below_zero_sorts_last(self):
        d = make_distribution([0.125, 1e-10, 1.0 - 2e-10], [0.5, 0.2, 0.3], "circular")
        assert d.values() == sorted(d.values())
        assert d.values()[0] == 0.125
        assert circular_distance(d.values()[1], 0.0) < 1e-9

    def test_wrapped_mean_at_zero_stays_in_unit_interval(self):
        # the shifted mean is -1e-26 or so, which % 1.0 rounds to 1.0
        d = make_distribution([2e-10, 1.0 - 2e-10], [0.5, 0.5], "circular")
        assert 0.0 <= d.values()[0] < 1.0

    def test_drops_zero_weights(self):
        d = make_distribution([0.1, 0.9], [1.0, 0.0], "absolute")
        assert d.points == [(0.1, 1.0)]

    @pytest.mark.parametrize("metric", ["absolute", "circular"])
    def test_matches_the_former_merge_bit_for_bit(self, metric):
        # ties, zero weights, clusters on both sides of the seam and values
        # outside [0, 1): the same points, down to the sign of zero
        rng = np.random.default_rng(81)
        near_seam = np.array([0.0, 1e-13, 4e-10, 9e-10, 1.0 - 4e-10, 1.0 - 1e-13, 1.0, -1e-17])
        for _ in range(6000):
            count = int(rng.integers(1, 9))
            kind = rng.integers(4)
            if kind == 0:
                values = rng.choice(near_seam, count) + rng.choice([0.0, 0.5], count)
            elif kind == 1:
                values = rng.integers(0, 8, count) / 8 + rng.choice([0.0, 5e-10, -5e-10], count)
            elif kind == 2:
                values = rng.uniform(-2.0, 3.0, count)
            else:
                values = rng.random(count)
            weights = rng.random(count) * (rng.random(count) < 0.8)
            if not weights.any():
                continue
            weights /= weights.sum()
            got = make_distribution(values, weights, metric).points
            want = former_make_distribution(values, weights, metric).points
            assert [(v.hex(), w.hex()) for v, w in got] == \
                [(v.hex(), w.hex()) for v, w in want]

    def test_weight_sum_enforced(self):
        with pytest.raises(ValueError, match="sum"):
            SpectralDistribution([(0.0, 0.5)], "absolute")

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            SpectralDistribution([(0.0, 1.5), (1.0, -0.5)], "absolute")

    def test_metric_names(self):
        with pytest.raises(ValueError, match="metric"):
            SpectralDistribution([(0.0, 1.0)], "euclidean")


class TestExactDistribution:
    def test_z_from_zero(self):
        d = exact_distribution(Z, BasisLabel("0"), "hermitian")
        assert d.points == [(1.0, 1.0)]

    def test_x_from_zero(self):
        d = exact_distribution(X, BasisLabel("0"), "hermitian")
        assert len(d.points) == 2
        assert np.allclose(d.values(), [-1.0, 1.0])
        assert np.allclose(d.weights(), [0.5, 0.5])

    def test_unitary_kind_uses_phases(self):
        d = exact_distribution(X, BasisLabel("0"), "unitary")
        assert np.allclose(sorted(d.values()), [0.0, 0.5])
        assert np.allclose(d.weights(), [0.5, 0.5])
        assert d.metric == "circular"

    def test_degenerate_weights_merge(self):
        # X (x) X from |00>: eigenvalues +-1, each eigenspace carries half
        xx = np.kron(X, X)
        d = exact_distribution(xx, BasisLabel("00"), "hermitian")
        assert np.allclose(d.values(), [-1.0, 1.0])
        assert np.allclose(d.weights(), [0.5, 0.5])

    def test_clock_register_inference(self):
        # dim 6 = 2 qubits x clock 3 fails; dim 8 = 2 x clock 2 succeeds
        with pytest.raises(DimensionMismatch):
            exact_distribution(np.eye(6), BasisLabel("00"), "hermitian")
        d = exact_distribution(np.eye(8), BasisLabel("01"), "hermitian")
        assert d.points == [(1.0, 1.0)]

    def test_kind_checked(self):
        with pytest.raises(ValueError):
            exact_distribution(Z, BasisLabel("0"), "normal")


def assert_same_law(got, want):
    """Phases within 1e-14 on the circle, weights within 1e-13."""
    assert len(got.points) == len(want.points)
    for (v, w), (rv, rw) in zip(got.points, want.points):
        assert circular_distance(v, rv) <= 1e-14
        assert abs(w - rw) <= 1e-13


class TestCircuitPath:
    """A Circuit gives the law of its dense unitary through the matrix
    front door, though only its own buffer stays alive."""

    @pytest.mark.parametrize("qubits", range(1, 9))
    def test_random_circuit_matches_matrix(self, qubits):
        rng = np.random.default_rng(60 + qubits)
        circuit = random_circuit(qubits, 5 * qubits, rng)
        for b in ("0" * qubits, "".join(map(str, rng.integers(0, 2, qubits)))):
            assert_same_law(
                exact_distribution(circuit, BasisLabel(b), "unitary"),
                exact_distribution(circuit_unitary(circuit), BasisLabel(b), "unitary"),
            )

    @pytest.mark.parametrize("qubits", [2, 4, 6])
    def test_degenerate_clifford_matches_matrix(self, qubits):
        rng = np.random.default_rng(qubits)
        circuit = clifford_circuit(qubits, 6 * qubits, rng)
        for index in rng.integers(0, 2**qubits, 3):
            b = BasisLabel(format(index, f"0{qubits}b"))
            assert_same_law(
                exact_distribution(circuit, b, "unitary"),
                exact_distribution(circuit_unitary(circuit), b, "unitary"),
            )

    def test_non_unitary_gate_raises(self):
        # a programmatic Gate is not checked for unitarity; the law is
        circuit = Circuit(2, [Gate("u1", (1,), np.diag([1.0, 1.0 + 1e-9]))])
        with pytest.raises(NotUnitary):
            exact_distribution(circuit, BasisLabel("01"), "unitary")
        with pytest.raises(NotUnitary):
            prepare_pes(circuit, SamplingRequest(0.25, 0.1, BasisLabel("01")))


class TestSampler:
    def test_singleton(self):
        d = SpectralDistribution([(0.7, 1.0)], "absolute")
        rng = np.random.default_rng(23)
        assert all(sample_values(d, 1, rng)[0] == 0.7 for _ in range(50))

    def test_fair_coin(self):
        d = SpectralDistribution([(0.0, 0.5), (1.0, 0.5)], "absolute")
        rng = np.random.default_rng(24)
        n = 10**5
        ones = np.sum(sample_values(d, n, rng) == 1.0)
        assert abs(ones / n - 0.5) < 5.0 * np.sqrt(0.25 / n)

    def test_chi_square_ten_points(self):
        rng = np.random.default_rng(25)
        weights = rng.dirichlet(np.ones(10))
        d = SpectralDistribution(list(zip(np.arange(10) / 10.0, weights)), "circular")
        n = 10**5
        draws = sample_values(d, n, rng)
        observed = np.array([np.sum(draws == v) for v in d.values()])
        expected = np.array(d.weights()) * n
        chi2 = float(np.sum((observed - expected) ** 2 / expected))
        p = float(mpmath.gammainc(4.5, chi2 / 2.0, mpmath.inf, regularized=True))
        assert p > 1e-4

    def test_batch_matches_sequential(self):
        # one law on the 2-bit phase grid, four samplers, one seed
        weights = [0.2, 0.3, 0.0, 0.5]
        d = SpectralDistribution(list(zip(np.arange(4) / 4.0, weights)), "circular")
        batch = sample_values(d, 5, np.random.default_rng(26))
        rng = np.random.default_rng(26)
        single = [sample_values(d, 1, rng)[0] for _ in range(5)]
        rng = np.random.default_rng(26)
        per_draw = [per_draw_sample(d, rng) for _ in range(5)]
        # grid phases k/4 put each weight on its own outcome, bit for bit
        prepared = PreparedPhaseEstimation(2, np.arange(4) / 4.0, weights)
        raws = prepared.sample_raw_batch(5, np.random.default_rng(26))
        assert np.array_equal(batch, single)
        assert np.array_equal(batch, per_draw)
        assert np.array_equal(raws / 4.0, batch)


class TestTotalVariation:
    def test_comb_counterexample_is_maximal(self):
        assert total_variation(COMB_P, COMB_Q) == 1.0

    def test_identical_is_zero(self):
        assert total_variation(COMB_P, COMB_P) == 0.0

    def test_metric_mismatch(self):
        p = SpectralDistribution([(0.0, 1.0)], "absolute")
        q = SpectralDistribution([(0.0, 1.0)], "circular")
        with pytest.raises(MetricMismatch):
            total_variation(p, q)

    def test_circular_points_join_across_the_seam(self):
        # make_distribution merges these two points into one, so their
        # laws are the same; on the line they lie a whole unit apart
        for metric, tv in (("circular", 0.0), ("absolute", 1.0)):
            p = SpectralDistribution([(1e-13, 1.0)], metric)
            q = SpectralDistribution([(1.0 - 1e-13, 1.0)], metric)
            assert total_variation(p, q) == tv
        p = SpectralDistribution([(1e-13, 0.5), (0.5, 0.5)], "circular")
        q = SpectralDistribution([(0.5, 0.25), (1.0 - 1e-13, 0.75)], "circular")
        assert total_variation(p, q) == 0.25

    @pytest.mark.parametrize("metric", ["absolute", "circular"])
    def test_matches_the_former_merge_away_from_the_seam(self, metric):
        # circular laws inside [1/4, 3/4] have no seam to join across
        rng = np.random.default_rng(82)
        low, high = (-1.0, 2.0) if metric == "absolute" else (0.25, 0.75)
        for _ in range(2000):
            laws = []
            for count in rng.integers(1, 8, 2):
                values = np.round(rng.uniform(low, high, count) * 16) / 16
                values += rng.choice([0.0, 5e-10, 2e-9], count)
                laws.append(make_distribution(values, rng.dirichlet(np.ones(count)), metric))
            assert total_variation(*laws).hex() == former_total_variation(*laws).hex()


class TestApproxCheck:
    def check_witness(self, inst, witness):
        routed = {i: 0.0 for i in range(len(inst.candidate.points))}
        delivered = {j: 0.0 for j in range(len(inst.target.points))}
        for i, j, mass in witness:
            assert mass >= 0.0
            routed[i] += mass
            dist = point_distance(
                inst.candidate.points[i][0], inst.target.points[j][0], inst.target.metric
            )
            if dist <= inst.epsilon + 1e-12:
                delivered[j] += mass
        for i, (_, qw) in enumerate(inst.candidate.points):
            assert abs(routed[i] - qw) < WITNESS_TOL
        for j, (_, pw) in enumerate(inst.target.points):
            assert delivered[j] >= (1.0 - inst.delta) * pw - WITNESS_TOL

    def test_identity_plan(self):
        inst = ApproxCheckInstance(COMB_P, COMB_P, 0.0, 0.0)
        feasible, witness = approx_check(inst)
        assert feasible
        self.check_witness(inst, witness)

    def test_comb_feasible_at_its_shift(self):
        inst = ApproxCheckInstance(COMB_Q, COMB_P, 0.01, 0.0)
        feasible, witness = approx_check(inst)
        assert feasible
        self.check_witness(inst, witness)

    def test_comb_infeasible_below_its_shift(self):
        # every candidate point sits exactly 0.01 from its only nearby
        # target, so at 0.005 no mass can move at all
        feasible, witness = approx_check(ApproxCheckInstance(COMB_Q, COMB_P, 0.005, 0.0))
        assert not feasible
        assert witness is None

    def test_mass_may_sit_outside_every_ball(self):
        target = SpectralDistribution([(0.5, 1.0)], "absolute")
        candidate = SpectralDistribution([(0.5, 0.9), (0.9, 0.1)], "absolute")
        ok_loose, witness = approx_check(ApproxCheckInstance(candidate, target, 0.01, 0.1))
        assert ok_loose
        self.check_witness(ApproxCheckInstance(candidate, target, 0.01, 0.1), witness)
        ok_tight, _ = approx_check(ApproxCheckInstance(candidate, target, 0.01, 0.05))
        assert not ok_tight

    def test_circular_metric_crosses_wrap(self):
        target = SpectralDistribution([(0.0, 1.0)], "circular")
        candidate = SpectralDistribution([(0.95, 1.0)], "circular")
        ok, _ = approx_check(ApproxCheckInstance(candidate, target, 0.05, 0.0))
        assert ok

    def test_metric_mismatch(self):
        p = SpectralDistribution([(0.0, 1.0)], "absolute")
        q = SpectralDistribution([(0.0, 1.0)], "circular")
        with pytest.raises(MetricMismatch):
            approx_check(ApproxCheckInstance(q, p, 0.1, 0.0))

    def test_monotonicity(self):
        rng = np.random.default_rng(27)
        grid_eps = (0.0, 0.02, 0.05, 0.15)
        grid_delta = (0.0, 0.1, 0.3)
        for _ in range(5):
            p = SpectralDistribution(
                list(zip(rng.random(4), rng.dirichlet(np.ones(4)))), "absolute"
            )
            q = SpectralDistribution(
                list(zip(rng.random(5), rng.dirichlet(np.ones(5)))), "absolute"
            )
            table = {
                (e, d): approx_check(ApproxCheckInstance(q, p, e, d))[0]
                for e in grid_eps
                for d in grid_delta
            }
            for (e1, d1), ok1 in table.items():
                for (e2, d2), ok2 in table.items():
                    if ok1 and e2 >= e1 and d2 >= d1:
                        assert ok2

    def test_witness_on_random_perturbation(self):
        rng = np.random.default_rng(28)
        values = np.sort(rng.random(6))
        weights = rng.dirichlet(np.ones(6))
        p = SpectralDistribution(list(zip(values, weights)), "absolute")
        shifted = values + rng.uniform(-0.004, 0.004, size=6)
        q = SpectralDistribution(list(zip(shifted, weights)), "absolute")
        inst = ApproxCheckInstance(q, p, 0.005, 0.01)
        feasible, witness = approx_check(inst)
        assert feasible
        self.check_witness(inst, witness)


class TestMaxFlow:
    def test_single_edge(self):
        net = FlowNetwork([0.3], [0.3], [(0, 0)])
        assert abs(max_flow(net) - 0.3) < EXACT_TOL

    def test_two_parallel_paths(self):
        net = FlowNetwork([0.25, 0.5], [0.75], [(0, 0), (1, 0)])
        assert abs(max_flow(net) - 0.75) < EXACT_TOL

    def test_missing_edges_block_flow(self):
        net = FlowNetwork([0.5, 0.5], [0.5, 0.5], [(0, 0)])
        assert abs(max_flow(net) - 0.5) < EXACT_TOL

    def test_random_instances_match_min_cut(self):
        rng = np.random.default_rng(29)
        for _ in range(25):
            m = int(rng.integers(1, 5))
            n = int(rng.integers(1, 5))
            supplies = list(np.round(rng.random(m), 6))
            demands = list(np.round(rng.random(n), 6))
            edges = [
                (i, j) for i, j in itertools.product(range(m), range(n))
                if rng.random() < 0.5
            ]
            net = FlowNetwork(supplies, demands, edges)
            assert abs(max_flow(net) - brute_force_min_cut(net)) < 1e-9


class TestEmpirical:
    def test_sampling_own_target_passes(self):
        target = SpectralDistribution(
            [(0.05, 0.25), (0.25, 0.15), (0.45, 0.2), (0.65, 0.15), (0.85, 0.25)],
            "circular",
        )
        draws = sample_values(target, 10**4, np.random.default_rng(4))
        assert empirical_approx_check(draws, target, 0.0, 0.0)

    def test_biased_sampler_fails(self):
        # drop all mass at the weight-0.3 point, renormalize the rest
        target = SpectralDistribution([(0.2, 0.3), (0.5, 0.3), (0.8, 0.4)], "circular")
        biased = SpectralDistribution([(0.2, 0.3 / 0.7), (0.8, 0.4 / 0.7)], "circular")
        rng = np.random.default_rng(31)
        draws = sample_values(biased, 10**4, rng)
        assert not empirical_approx_check(draws, target, 0.01, 0.1)

    def test_minimum_sample_count(self):
        target = SpectralDistribution([(0.5, 1.0)], "circular")
        with pytest.raises(ValueError, match="samples"):
            empirical_feasibility([0.5] * 999, target, 0.1, 0.1)

    def test_default_slack_formula(self):
        target = SpectralDistribution([(0.3, 0.5), (0.7, 0.5)], "circular")
        samples = [0.3, 0.7] * 500
        feasible, slack, flow = empirical_feasibility(samples, target, 0.0, 0.0)
        assert feasible
        # 3 * sqrt(log(2) / 1000)
        assert abs(slack - 3.0 * np.sqrt(np.log(2.0) / 1000.0)) < EXACT_TOL
        assert flow > 0.9

    def test_slack_override(self, monkeypatch):
        target = SpectralDistribution([(0.3, 0.5), (0.7, 0.5)], "circular")
        samples = [0.3] * 530 + [0.7] * 470
        # the slack 3*sqrt(log 2 / 1000) = 0.079 absorbs a 0.03 dip; at
        # slack 0 the 0.7 sink is 30 draws short of its demanded 500
        feasible_default, _, _ = empirical_feasibility(samples, target, 0.0, 0.0)
        assert feasible_default
        monkeypatch.setattr(distributions, "EMPIRICAL_SLACK_FACTOR", 0.0)
        feasible_zero, slack, _ = empirical_feasibility(samples, target, 0.0, 0.0)
        assert slack == 0.0 and not feasible_zero


# the ball's edges: empty, dyadic, a quarter circle, half the circle reached
# exactly with the tolerance, and beyond half the circle
EDGE_EPSILONS = (0.0, 1 / 64, 3 / 64, 0.25, 0.5 - EDGE_DISTANCE_TOL, 0.5, 2.0)


def random_edge_law(rng, metric):
    """Unsorted values with repeats: on the 1/64 grid across [-1, 2), on
    that grid around 0 and around 10^6, or arbitrary floats."""
    count = int(rng.integers(1, 40))
    kind = rng.integers(3)
    if kind == 0:
        values = rng.integers(-64, 128, count) / 64
    elif kind == 1:
        values = rng.integers(-8, 9, count) / 64 + rng.choice([0.0, 1e6], count)
    else:
        values = rng.uniform(-1.5, 2.5, count)
    weights = rng.dirichlet(np.ones(count))
    return SpectralDistribution(list(zip(values.tolist(), weights.tolist())), metric)


class TestTransportEdges:
    """The windowed edge build and the per-phase push limit give exactly
    the all-pairs edges and the per-push flow."""

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_all_pairs_and_per_push_flow(self, seed):
        rng = np.random.default_rng(900 + seed)
        metric = ("absolute", "circular")[seed % 2]
        candidate, target = random_edge_law(rng, metric), random_edge_law(rng, metric)
        for epsilon in EDGE_EPSILONS:
            assert distributions._transport_edges(candidate, target, epsilon) == \
                all_pairs_edges(candidate, target, epsilon)
        epsilon = float(rng.choice(EDGE_EPSILONS))
        delta = float(rng.choice([0.0, 0.1, 0.5]))
        assert distributions._transport(candidate, target, epsilon, delta) == \
            reference_transport(candidate, target, epsilon, delta)

    @pytest.mark.parametrize("metric", ["absolute", "circular"])
    def test_unsorted_targets_with_repeated_values(self, metric):
        candidate = SpectralDistribution([(0.0, 1.0)], metric)
        target = SpectralDistribution([(0.0, 0.0), (0.125, 0.0), (0.0, 1.0)], metric)
        for epsilon in (0.0, 0.1, 0.125):
            edges = distributions._transport_edges(candidate, target, epsilon)
            assert edges == all_pairs_edges(candidate, target, epsilon)
        assert distributions._transport_edges(candidate, target, 0.0) == [(0, 0), (0, 2)]

    def test_distance_of_exactly_epsilon_is_an_edge(self):
        # across the wrap, below 0, above 1 and around 10^6 on the 1/16 grid
        candidate = SpectralDistribution([(0.0, 0.5), (1e6 + 0.5, 0.5)], "circular")
        target = SpectralDistribution(
            [(v, 0.2) for v in (0.9375, -0.0625, 1.0625, 0.4375, 1e6 - 0.0625)], "circular"
        )
        assert distributions._transport_edges(candidate, target, 0.0625) == [
            (0, 0), (0, 1), (0, 2), (0, 4), (1, 3)
        ]
        assert distributions._transport_edges(candidate, target, 0.0625 - 2e-12) == []

    @pytest.mark.parametrize("metric, q, p, epsilon", [
        # q + epsilon rounds below p, whose rounded distance is the radius
        ("absolute", -0.2788050722086668, 0.05452826112566651, 1 / 3),
        # p - q rounds to 10^6 + 0.0999999999767 while p mod 1 lies
        # 0.1000000000069 above q, beyond the radius
        ("circular", 0.5757220912190522, 1000000.6757220912, 0.1),
    ])
    def test_rounding_margin_keeps_edges_at_the_ball_edge(self, metric, q, p, epsilon):
        candidate = SpectralDistribution([(q, 1.0)], metric)
        target = SpectralDistribution([(p, 1.0)], metric)
        assert all_pairs_edges(candidate, target, epsilon) == [(0, 0)]
        assert distributions._transport_edges(candidate, target, epsilon) == [(0, 0)]

    @pytest.mark.parametrize("metric", ["absolute", "circular"])
    def test_epsilon_zero_joins_equal_values_only(self, metric):
        candidate = SpectralDistribution([(0.25, 0.5), (0.75, 0.5)], metric)
        target = SpectralDistribution([(0.75, 0.5), (0.25 + 1e-11, 0.25), (0.25, 0.25)], metric)
        assert distributions._transport_edges(candidate, target, 0.0) == [(0, 2), (1, 0)]

    def test_no_edge_twice_just_below_half_the_circle(self, monkeypatch):
        # as epsilon falls ulp by ulp from 1/2 - EDGE_DISTANCE_TOL, the
        # rounding margin takes the ball below half the circle.  A run on
        # three turns then holds no target on two of them: even with every
        # run member kept, no edge appears twice.  Opposite 3/4, targets a
        # few ulps above 1/4 lie at both ends of a run just under one turn.
        rng = np.random.default_rng(942)
        values = [0.75, 0.25, 0.0, 0.5, 1.0 - 2.0**-53, -0.25]
        values += [0.25 + j * 2.0**-54 for j in range(1, 5)]
        values += (rng.integers(0, 64, 20) / 64).tolist()
        law = SpectralDistribution([(v, 1.0 / len(values)) for v in values], "circular")
        epsilon = 0.5 - EDGE_DISTANCE_TOL
        for _ in range(200):
            epsilon = np.nextafter(epsilon, 0.0)
            assert distributions._transport_edges(law, law, epsilon) == \
                all_pairs_edges(law, law, epsilon)
            with monkeypatch.context() as keep_all:
                keep_all.setattr(distributions, "point_distance",
                                 lambda a, b, metric: np.zeros(a.shape))
                edges = distributions._transport_edges(law, law, epsilon)
            assert len(set(edges)) == len(edges)

    def test_half_the_circle_holds_every_target(self):
        rng = np.random.default_rng(940)
        candidate, target = random_edge_law(rng, "circular"), random_edge_law(rng, "circular")
        every = list(itertools.product(range(len(candidate.points)), range(len(target.points))))
        assert distributions._transport_edges(candidate, target, 0.5 - EDGE_DISTANCE_TOL) == every

    def test_thousands_of_targets_in_well_under_a_second(self):
        # 10^5 in-law draws on a 2^-12 grid: the all-pairs build took 7.2 s
        rng = np.random.default_rng(941)
        k = 4096
        target = SpectralDistribution(
            list(zip((np.arange(k) / k).tolist(), rng.dirichlet(np.ones(k)).tolist())),
            "circular",
        )
        draws = sample_values(target, 10**5, rng)
        assert np.unique(draws).size > 3900
        start = time.perf_counter()
        _, _, flow = empirical_feasibility(draws, target, 2.0**-12, 0.05)
        assert time.perf_counter() - start < 1.0
        assert flow > 0.9


def random_groups(n, rng):
    """2-4 disjoint qubit groups in random order, leaving 0-2 qubits idle."""
    k = int(rng.integers(2, min(4, n - 1) + 1))
    used = rng.permutation(n)[: n - int(rng.integers(0, min(2, n - k) + 1))]
    cuts = np.sort(rng.choice(np.arange(1, used.size), size=k - 1, replace=False))
    return [tuple(map(int, g)) for g in np.split(used, cuts)]


def assert_law_within(got, want, tol):
    assert len(got.points) == len(want.points)
    for (v, w), (rv, rw) in zip(got.points, want.points):
        assert circular_distance(v, rv) <= tol
        assert abs(w - rw) <= tol


class TestFactoredLaw:
    """A circuit's law is combined from its components' laws, and equals
    the law of the matrix front door unitary_eig(circuit_unitary(c))."""

    def test_non_adjacent_pairs_and_an_idle_qubit(self):
        rng = np.random.default_rng(70)
        circuit = grouped_circuit(8, ((0, 7), (3, 5), (6, 1, 2)), 30, rng)
        assert [q for q, _ in circuit_components(circuit)] == [(0, 7), (1, 2, 6), (3, 5)]
        for b in ("00000000", "10110101", "01001110"):
            assert_law_within(
                exact_distribution(circuit, BasisLabel(b), "unitary"),
                exact_distribution(circuit_unitary(circuit), BasisLabel(b), "unitary"),
                EXACT_TOL,
            )

    @pytest.mark.parametrize("seed", range(12))
    def test_random_components_match_matrix(self, seed):
        rng = np.random.default_rng(700 + seed)
        n = int(rng.integers(4, 10))
        groups = random_groups(n, rng)
        circuit = grouped_circuit(n, groups, 5 * n, rng)
        assert len(circuit_components(circuit)) == len(groups)
        for index in rng.integers(0, 2**n, 2):
            b = BasisLabel(format(index, f"0{n}b"))
            assert_law_within(
                exact_distribution(circuit, b, "unitary"),
                exact_distribution(circuit_unitary(circuit), b, "unitary"),
                EXACT_TOL,
            )

    def test_every_b_with_idle_qubits(self):
        # qubits 5 and 6 are idle: spectators, whatever their bits
        rng = np.random.default_rng(71)
        circuit = grouped_circuit(6, ((4, 1), (2,), (0, 3)), 20, rng)
        circuit = Circuit(7, circuit.gates)
        dense = unitary_eig(circuit_unitary(circuit))
        for b in range(2**7):
            phases, weights = spectral_weights(circuit, b, "unitary")
            # one eigenphase per product of the components' eigenvectors, sorted
            assert phases.size == 2**5 and np.all(np.diff(phases) >= 0)
            assert_law_within(
                make_distribution(phases, weights, "circular"),
                make_distribution(dense.phases(), np.abs(dense.eigenvectors[b]) ** 2, "circular"),
                EXACT_TOL,
            )

    def test_dense_cap_counts_the_whole_register(self):
        circuit = Circuit(13, [named_gate("h", 0)])
        with pytest.raises(TooLarge):
            spectral_weights(circuit, 0, "unitary")

    def test_connected_circuit_is_one_full_eigensolve(self, monkeypatch):
        rng = np.random.default_rng(72)
        circuit = random_circuit(6, 30, rng)
        assert [q for q, _ in circuit_components(circuit)] == [tuple(range(6))]
        shapes = []

        def spy(u, product):
            shapes.append(u.shape)
            return unitary_eig_in_place(u, product)

        monkeypatch.setattr(distributions, "unitary_eig_in_place", spy)
        b = int(rng.integers(64))
        phases, weights = spectral_weights(circuit, b, "unitary")
        assert shapes == [(64, 64)]
        # bit for bit the law of one dense eigensolve: row b of its basis
        dec = unitary_eig_in_place(circuit_unitary(circuit), lambda v: apply_columns(circuit, v))
        assert np.array_equal(phases, dec.phases())
        assert np.array_equal(weights, np.abs(dec.eigenvectors[b]) ** 2)

    def test_no_matrix_wider_than_the_largest_component(self, monkeypatch):
        rng = np.random.default_rng(73)
        circuit = grouped_circuit(10, ((0, 9, 4), (1, 5), (2, 3, 6, 8)), 40, rng)
        widths = []

        def spy(name):
            real = getattr(distributions, name)

            def wrapped(first, *rest):
                widths.append((name, first.qubit_count if name != "unitary_eig_in_place"
                               else first.shape[0].bit_length() - 1))
                return real(first, *rest)

            monkeypatch.setattr(distributions, name, wrapped)

        for name in ("circuit_unitary", "apply_columns", "unitary_eig_in_place"):
            spy(name)
        exact_distribution(circuit, BasisLabel("1011001110"), "unitary")
        assert sorted(widths) == sorted(
            [(name, k) for k in (2, 3, 4)
             for name in ("circuit_unitary", "apply_columns", "unitary_eig_in_place")]
        )



class TestBasisProbe:
    """spectral_weights reads row b of a dense eigenvector matrix, or
    contracts a one-hot |b> with a circuit's groups: bit for bit the numbers
    of the state contraction it replaced (_helpers.former_spectral_weights)."""

    def operators(self, rng):
        """(operator, kind, dimension) from every family, 2 to 64 dimensions."""
        for _ in range(30):
            dim = int(rng.integers(2, 33))
            yield haar_unitary(dim, rng), "unitary", dim
            yield random_hermitian(dim, rng), "hermitian", dim
            n = int(rng.integers(3, 41))
            yield _ring_slice(n, rng.uniform(0.0, 0.5), rng.random()), "unitary", n
            n = int(rng.integers(1, 7))
            yield random_circuit(n, 4 * n, rng), "unitary", 2**n
            n = int(rng.integers(4, 7))
            yield grouped_circuit(n, random_groups(n, rng), 3 * n, rng), "unitary", 2**n

    def test_matches_the_state_contraction_bit_for_bit(self):
        rng = np.random.default_rng(2727)
        pairs = 0
        for operator, kind, dim in self.operators(rng):
            for b in rng.choice(dim, size=min(dim, 8), replace=False).tolist():
                state = np.zeros(dim, dtype=complex)
                state[b] = 1.0
                values, weights = spectral_weights(operator, b, kind)
                want_values, want_weights = former_spectral_weights(operator, state, kind)
                assert np.array_equal(values, want_values)
                assert np.array_equal(weights, want_weights)
                pairs += 1
        assert pairs >= 1000
