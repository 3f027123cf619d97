"""Property tests on small generated instances: the transport solver and
approx_check against Hall's condition, the merge invariants of
make_distribution, and the text round trips of circuits and Hamiltonians.

Runs are derandomized, so the suite stays deterministic."""
import itertools
from fractions import Fraction

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from eigensample import (
    GATE_MATRICES,
    ApproxCheckInstance,
    Circuit,
    FlowNetwork,
    Gate,
    LocalHamiltonian,
    LocalTerm,
    SpectralDistribution,
    approx_check,
    make_distribution,
    max_flow,
    parse_circuit,
    parse_hamiltonian,
    point_distance,
    serialize_hamiltonian,
)
from eigensample.circuits import GATE_ARITY
from eigensample import distributions
from eigensample.distributions import DEDUP_TOL, EDGE_DISTANCE_TOL
from _helpers import (
    all_pairs_edges,
    haar_unitary,
    random_hermitian,
    reference_transport,
    same_circuit,
    serialize_circuit,
)

# Capacities are integers over this denominator, exact at the solver's scale.
UNIT = 16
MASS_TOL = 1e-12

SETTINGS = settings(derandomize=True, max_examples=60, deadline=None)


@st.composite
def networks(draw):
    n_src = draw(st.integers(1, 5))
    n_dst = draw(st.integers(1, 4))
    supplies = draw(st.lists(st.integers(0, 12), min_size=n_src, max_size=n_src))
    demands = draw(st.lists(st.integers(0, 12), min_size=n_dst, max_size=n_dst))
    pairs = list(itertools.product(range(n_src), range(n_dst)))
    edges = [p for p, keep in zip(pairs, draw(st.lists(
        st.booleans(), min_size=len(pairs), max_size=len(pairs)))) if keep]
    return supplies, demands, edges


def largest_hall_deficit(supplies, demands, edges) -> int:
    """max over target sets S of D(S) - Q(N(S)), the empty set included."""
    best = 0
    for size in range(1, len(demands) + 1):
        for targets in itertools.combinations(range(len(demands)), size):
            neighbours = {i for i, j in edges if j in targets}
            deficit = sum(demands[j] for j in targets) - sum(supplies[i] for i in neighbours)
            best = max(best, deficit)
    return best


@SETTINGS
@given(networks())
def test_max_flow_is_demand_minus_largest_hall_deficit(instance):
    supplies, demands, edges = instance
    net = FlowNetwork([s / UNIT for s in supplies], [d / UNIT for d in demands], edges)
    expected = (sum(demands) - largest_hall_deficit(supplies, demands, edges)) / UNIT
    assert abs(max_flow(net) - expected) <= MASS_TOL


# Values sit on eight sites k/8, each moved by at most 4 * 2e-10 in total
# spread, so every site is one cluster under DEDUP_TOL; site 0 straddles the
# wrap point when its offsets have both signs.
SITES = 8
OFFSET = 2e-10


@st.composite
def clustered_points(draw):
    count = draw(st.integers(1, 12))
    sites = draw(st.lists(st.integers(0, SITES - 1), min_size=count, max_size=count))
    offsets = draw(st.lists(st.integers(-2, 2), min_size=count, max_size=count))
    masses = draw(st.lists(st.integers(1, 9), min_size=count, max_size=count))
    values = [(k / SITES + j * OFFSET) % 1.0 for k, j in zip(sites, offsets)]
    weights = [w / sum(masses) for w in masses]
    return values, weights, sites


def assert_merge_invariants(dist, weights):
    values = dist.values()
    assert abs(sum(dist.weights()) - sum(weights)) <= MASS_TOL
    assert values == sorted(values)
    assert all(b - a > DEDUP_TOL for a, b in zip(values, values[1:]))


@SETTINGS
@given(clustered_points())
def test_make_distribution_circular_invariants(instance):
    values, weights, sites = instance
    dist = make_distribution(values, weights, "circular")
    assert_merge_invariants(dist, weights)
    out = dist.values()
    assert all(0.0 <= v < 1.0 for v in out)
    if len(out) > 1:
        assert out[0] + 1.0 - out[-1] > DEDUP_TOL
    # one point per occupied site: site 0 merges across the wrap
    assert len(out) == len(set(sites))


@SETTINGS
@given(clustered_points())
def test_make_distribution_absolute_invariants(instance):
    values, weights, _ = instance
    assert_merge_invariants(make_distribution(values, weights, "absolute"), weights)


# Gates and terms get their matrices from a drawn seed, so every matrix is
# a fixed function of the example.
seeds = st.integers(0, 2**32 - 1)
ARITY = {**GATE_ARITY, "u1": 1, "u2": 2}


@st.composite
def circuits(draw):
    n = draw(st.integers(1, 4))
    gates = []
    for _ in range(draw(st.integers(0, 6))):
        name = draw(st.sampled_from([m for m, k in sorted(ARITY.items()) if k <= n]))
        arity = ARITY[name]
        support = tuple(draw(st.permutations(range(n)))[:arity])
        if name in GATE_MATRICES:
            matrix = GATE_MATRICES[name]
        else:
            matrix = haar_unitary(2**arity, np.random.default_rng(draw(seeds)))
        gates.append(Gate(name, support, matrix))
    return Circuit(n, gates)


@SETTINGS
@given(circuits())
def test_circuit_text_round_trip(circuit):
    assert same_circuit(parse_circuit(serialize_circuit(circuit)), circuit)


@st.composite
def hamiltonians(draw):
    n = draw(st.integers(1, 5))
    terms = []
    for _ in range(draw(st.integers(0, 4))):
        k = draw(st.integers(1, min(n, 3)))
        support = tuple(draw(st.permutations(range(n)))[:k])
        matrix = random_hermitian(2**k, np.random.default_rng(draw(seeds)))
        terms.append(LocalTerm(support, matrix))
    return LocalHamiltonian(n, terms)


@SETTINGS
@given(hamiltonians())
def test_hamiltonian_text_round_trip(h):
    back = parse_hamiltonian(serialize_hamiltonian(h))
    assert back.qubit_count == h.qubit_count
    assert [t.support for t in back.terms] == [t.support for t in h.terms]
    assert all(np.array_equal(a.matrix, b.matrix) for a, b in zip(back.terms, h.terms))


# Points sit on the grid k/8 and masses are multiples of 1/16, so distances,
# demands and flows are exact and Hall's condition is decided in fractions.
GRID = 8
MASS_UNIT = 16


@st.composite
def spectral_laws(draw, max_points):
    count = draw(st.integers(1, max_points))
    cuts = sorted(draw(st.lists(st.integers(0, MASS_UNIT), min_size=count - 1,
                                max_size=count - 1)))
    masses = [b - a for a, b in zip([0] + cuts, cuts + [MASS_UNIT])]
    sites = draw(st.lists(st.integers(0, GRID - 1), min_size=count, max_size=count))
    return [(Fraction(k, GRID), Fraction(m, MASS_UNIT)) for k, m in zip(sites, masses)]


def hall_feasible(candidate, target, epsilon, delta, metric) -> bool:
    """Every target set's demand (1 - delta) p(S) fits the candidate mass
    within epsilon of S."""
    for size in range(1, len(target) + 1):
        for subset in itertools.combinations(range(len(target)), size):
            near = [q for qv, q in candidate
                    if any(point_distance(qv, target[j][0], metric) <= epsilon
                           for j in subset)]
            if (1 - delta) * sum(target[j][1] for j in subset) > sum(near):
                return False
    return True


@SETTINGS
@given(spectral_laws(4), spectral_laws(3), st.sampled_from(["absolute", "circular"]),
       st.integers(0, 2), st.sampled_from([Fraction(0), Fraction(1, 4), Fraction(1, 2)]))
def test_approx_check_matches_hall(candidate, target, metric, eps_steps, delta):
    epsilon = Fraction(eps_steps, GRID)
    inst = ApproxCheckInstance(
        SpectralDistribution([(float(v), float(w)) for v, w in candidate], metric),
        SpectralDistribution([(float(v), float(w)) for v, w in target], metric),
        float(epsilon),
        float(delta),
    )
    feasible, witness = approx_check(inst)
    assert feasible is hall_feasible(candidate, target, epsilon, delta, metric)
    if feasible:
        for i, (_, q) in enumerate(candidate):
            routed = sum(mass for row, _, mass in witness if row == i)
            assert abs(routed - float(q)) <= MASS_TOL


# Values on the grid k/8 (distances of exactly epsilon, values outside
# [0, 1)), the same grid offset by 10^6, and arbitrary floats.
EDGE_VALUES = st.one_of(
    st.integers(-16, 24).map(lambda k: k / GRID),
    st.integers(-16, 24).map(lambda k: 1e6 + k / GRID),
    st.floats(-2.0, 3.0, allow_nan=False),
)


@st.composite
def edge_laws(draw, metric):
    values = draw(st.lists(EDGE_VALUES, min_size=1, max_size=8))
    masses = draw(st.lists(st.integers(0, 9), min_size=len(values), max_size=len(values)))
    masses[0] += not any(masses)
    return SpectralDistribution([(v, m / sum(masses)) for v, m in zip(values, masses)], metric)


@SETTINGS
@given(st.sampled_from(["absolute", "circular"]).flatmap(
           lambda metric: st.tuples(edge_laws(metric), edge_laws(metric))),
       st.sampled_from([0.0, 1 / GRID, 3 / GRID, 0.5 - EDGE_DISTANCE_TOL, 0.75]),
       st.sampled_from([0.0, 0.25]))
def test_windowed_edges_match_all_pairs(laws, epsilon, delta):
    candidate, target = laws
    assert distributions._transport_edges(candidate, target, epsilon) == \
        all_pairs_edges(candidate, target, epsilon)
    assert distributions._transport(candidate, target, epsilon, delta) == \
        reference_transport(candidate, target, epsilon, delta)
