"""Property tests: the transport solver against Hall's condition, and the
merge invariants of make_distribution, on small generated instances.

Runs are derandomized, so the suite stays deterministic."""
import itertools

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from eigensample import FlowNetwork, make_distribution, max_flow
from eigensample.distributions import DEDUP_TOL

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
