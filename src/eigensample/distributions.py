"""Spectral distributions, exact sampling, and transport-feasibility checks.

spectral_weights is the one eigensolve-and-weights step, probed from one
basis index (exact_distribution merges its output, phase_estimation blurs
it); inverse_cdf draws for all.  Both take an operator as a dense matrix
or, for unitary laws, as a Circuit, whose law is combined from its
independent qubit groups' laws.

A distribution q (epsilon, delta)-approximates p when q's mass can be split
so that every target point x_j receives at least (1 - delta) p_j from within
distance epsilon.  That is a transportation feasibility question, decided
here exactly by max flow on integer-scaled capacities.  Total variation is
deliberately NOT the acceptance notion: two distributions can sit at TV
distance 1 while every point moved only epsilon.

Spectral values lie on the line (eigenvalues) or on the circle [0, 1)
(eigenphases), and each rule about them is written once:
- grouping, _group: values within DEDUP_TOL of a neighbour are one point,
  joined across the 0/1 seam on the circle (make_distribution,
  total_variation);
- distance, point_distance: |a - b|, or the shorter way round the circle,
  on scalars or element by element on arrays (_transport_edges);
- the ball, _transport_edges: a candidate's epsilon-ball is one
  searchsorted run of the sorted targets, over three turns on the circle.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .circuits import (
    BasisLabel,
    Circuit,
    apply_columns,
    check_dense_width,
    circuit_components,
    circuit_unitary,
    group_index,
)
from .errors import DimensionMismatch, MetricMismatch
from .linalg import hermitian_eig, unitary_eig, unitary_eig_in_place

if TYPE_CHECKING:
    from .seeding import UniformStream

DEDUP_TOL = 1e-9
WEIGHT_SUM_TOL = 1e-9
WEIGHT_FLOOR = 1e-12
# Capacities become 64-bit integers at this scale before the flow solve;
# one integer unit is therefore the 1e-12 feasibility slack.
FLOW_SCALE = 10**12
FEASIBILITY_SLACK_UNITS = 1
EDGE_DISTANCE_TOL = 1e-12
MIN_EMPIRICAL_SAMPLES = 1000
EMPIRICAL_SLACK_FACTOR = 3.0

METRICS = ("absolute", "circular")


def point_distance(a, b, metric: str):
    """|a - b| on the line, or the shorter way round the circle of
    circumference 1; element by element on arrays."""
    d = abs(a - b)
    if metric == "circular":
        d = d % 1.0
        d = np.minimum(d, 1.0 - d)
    return d


def _group(items: list[tuple], circular: bool) -> tuple[list[list[tuple]], bool]:
    """Sort tuples that lead with a spectral value and cut them into runs
    whose neighbouring values lie within DEDUP_TOL.  On the circle, a last
    run within DEDUP_TOL of the first across the 0/1 seam joins it at the
    front, its values shifted down by 1; the flag says whether it did."""
    items = sorted(items)
    runs = [[items[0]]]
    for item in items[1:]:
        if item[0] - runs[-1][-1][0] <= DEDUP_TOL:
            runs[-1].append(item)
        else:
            runs.append([item])
    joined = circular and len(runs) > 1 and (runs[0][0][0] + 1.0) - runs[-1][-1][0] <= DEDUP_TOL
    if joined:
        runs[0] = [(v - 1.0, *rest) for v, *rest in runs.pop()] + runs[0]
    return runs, joined


@dataclass
class SpectralDistribution:
    """Finitely supported distribution over spectral values.

    points is a list of (value, weight); metric is "absolute" for eigenvalue
    lines and "circular" for phases in [0, 1).
    """

    points: list[tuple[float, float]]
    metric: str

    def __post_init__(self):
        if self.metric not in METRICS:
            raise ValueError(f"metric must be one of {METRICS}")
        total = sum(w for _, w in self.points)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights sum to {total}, not 1")
        if any(w < -WEIGHT_FLOOR for _, w in self.points):
            raise ValueError("negative weight")

    def values(self) -> list[float]:
        return [v for v, _ in self.points]

    def weights(self) -> list[float]:
        return [w for _, w in self.points]


def make_distribution(values, weights, metric: str) -> SpectralDistribution:
    """Build a distribution with one point per run of _group, at the run's
    weighted mean, dropping zero-weight values first.  Under the circular
    metric a run joined across the seam has its mean taken back into
    [0, 1)."""
    pairs = [(float(v), float(w)) for v, w in zip(values, weights) if w > WEIGHT_FLOOR]
    if not pairs:
        raise ValueError("distribution has no mass")
    runs, joined = _group(pairs, metric == "circular")
    points = []
    for run in runs:
        mass = sum(w for _, w in run)
        points.append((sum(v * w for v, w in run) / mass, mass))
    if joined:
        # a mean just below 0 maps to the top of [0, 1), or rounds to 1
        value, mass = points[0]
        value %= 1.0
        points[0] = (0.0 if value == 1.0 else value, mass)
    # the joined run belongs last when its mean fell below 0
    points.sort()
    return SpectralDistribution(points, metric)


def spectral_weights(operator, index: int, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (kind "hermitian") or eigenphases in [0, 1) (kind
    "unitary") of `operator`, with the weights |<eta_k|b>|^2 of the basis
    state |b> of the given index: row b of the eigenvector matrix, squared
    in modulus.

    A unitary may be a matrix (linalg.unitary_eig) or a Circuit, whose law
    comes from its qubit-interaction components (_circuit_weights)."""
    if kind == "hermitian":
        dec = hermitian_eig(operator)
        values = dec.eigenvalues
    elif kind == "unitary":
        if isinstance(operator, Circuit):
            return _circuit_weights(operator, index)
        dec = unitary_eig(operator)
        values = dec.phases()
    else:
        raise ValueError("kind must be 'hermitian' or 'unitary'")
    return values, np.abs(dec.eigenvectors[index]) ** 2


def _circuit_weights(circuit: Circuit, index: int) -> tuple[np.ndarray, np.ndarray]:
    """spectral_weights of a circuit's unitary U = (x)_c U_c (x) I, one
    factor per component of circuits.circuit_components and the identity
    on qubits that no gate touches.

    Each U_c is built on its own and handed over to
    linalg.unitary_eig_in_place, which checks it for unitarity, turns it
    into its Hermitian part in place and reads U_c·V from one circuit pass,
    so the largest matrix alive is the widest component's (five of them at
    the peak, 16 MiB each for a 10-qubit component).  An eigenvector of U
    is a product of the factors' eigenvectors: its phase is the sum of
    theirs mod 1, and its overlaps come from contracting |b> with each
    factor's basis on that factor's qubits.  The untouched qubits are
    spectators: their phase is 0 and their weights are summed.  The phases
    are sorted stably, so a connected circuit on every qubit gives exactly
    the law of its one dense eigensolve.  The caps count the whole
    register: above circuits.MAX_DENSE_QUBITS qubits it raises TooLarge,
    however narrow the components, before |b> is allocated."""
    n = circuit.qubit_count
    check_dense_width(n, "circuit")
    components = circuit_components(circuit)
    # the one-hot |b>, one axis per component, then one for the idle qubits
    groups = [qubits for qubits, _ in components]
    groups.append(sorted(set(range(n)).difference(*groups)))
    overlaps = np.zeros([2 ** len(qubits) for qubits in groups], dtype=complex)
    overlaps[tuple(group_index(index, qubits, n) for qubits in groups)] = 1.0
    phases = np.zeros(1)
    for axis, (_, sub) in enumerate(components):
        dec = unitary_eig_in_place(
            circuit_unitary(sub), lambda vectors: apply_columns(sub, vectors)
        )
        moved = np.moveaxis(overlaps, axis, 0)
        shape = moved.shape
        moved = dec.eigenvectors.conj().T @ moved.reshape(shape[0], -1)
        overlaps = np.moveaxis(moved.reshape(shape), 0, axis)
        # a sum of two phases in [0, 1) reduces exactly to [0, 1)
        phases = np.add.outer(phases, dec.phases()).ravel() % 1.0
    weights = np.sum(np.abs(overlaps.reshape(phases.size, -1)) ** 2, axis=1)
    order = np.argsort(phases, kind="stable")
    return phases[order], weights[order]


def exact_distribution(operator, b: BasisLabel, kind: str) -> SpectralDistribution:
    """Ground-truth spectral law of measuring `operator` (a matrix, or a
    Circuit for kind "unitary") in state |b>.

    A matrix wider than b's register is read as b's register times a clock
    register at level 0.  A Circuit wider than circuits.MAX_DENSE_QUBITS
    raises TooLarge before 2^n is formed.  Eigenvalues are merged across
    degenerate eigenspaces, so each weight is the full projector
    expectation <b|P|b>.  kind "hermitian" yields values on the real line;
    kind "unitary" yields phases in [0, 1).
    """
    if isinstance(operator, Circuit):
        check_dense_width(operator.qubit_count, "circuit")
        dim = 2**operator.qubit_count
    else:
        dim = np.shape(operator)[0]
    clock_dim, extra = divmod(dim, 2**b.qubit_count)
    if extra:
        raise DimensionMismatch(
            f"matrix dimension {dim} does not contain a {b.qubit_count}-qubit register"
        )
    values, weights = spectral_weights(operator, b.basis_index() * clock_dim, kind)
    return make_distribution(values, weights, "absolute" if kind == "hermitian" else "circular")


def inverse_cdf(cumulative: np.ndarray, uniforms):
    """Outcome indices that uniforms in [0, 1) select under the running
    weight sums `cumulative` (need not end at exactly 1)."""
    idx = np.searchsorted(cumulative, uniforms * cumulative[-1], side="right")
    return np.minimum(idx, len(cumulative) - 1)


def sample_values(dist: SpectralDistribution, count: int, rng: UniformStream) -> np.ndarray:
    """`count` i.i.d. inverse-CDF draws, one uniform each in stream order:
    k calls with count 1 draw the same values as one call with count k."""
    return np.array(dist.values())[inverse_cdf(np.cumsum(dist.weights()), rng.random(count))]


def total_variation(p: SpectralDistribution, q: SpectralDistribution) -> float:
    if p.metric != q.metric:
        raise MetricMismatch("distributions use different metrics")
    tagged = [(v, w, 0.0) for v, w in p.points] + [(v, 0.0, w) for v, w in q.points]
    runs, _ = _group(tagged, p.metric == "circular")
    gaps = [abs(sum(pw for _, pw, _ in run) - sum(qw for _, _, qw in run)) for run in runs]
    # fsum keeps disjoint supports at exactly 1.0
    return math.fsum(gaps) / 2.0


# ---------------------------------------------------------------------------
# transport feasibility

@dataclass
class ApproxCheckInstance:
    """Does `candidate` (epsilon, delta)-approximate `target`?"""

    candidate: SpectralDistribution
    target: SpectralDistribution
    epsilon: float
    delta: float


@dataclass
class FlowNetwork:
    """Bipartite transport network: supplies feed demands along edges."""

    supplies: list[float]
    demands: list[float]
    edges: list[tuple[int, int]]


class _Dinic:
    """Max flow on integer capacities; exact with Python integers."""

    def __init__(self, node_count: int):
        self.adj: list[list[int]] = [[] for _ in range(node_count)]
        self.to: list[int] = []
        self.cap: list[int] = []

    def add_edge(self, u: int, v: int, capacity: int) -> int:
        edge_id = len(self.to)
        self.adj[u].append(edge_id)
        self.to.append(v)
        self.cap.append(capacity)
        self.adj[v].append(edge_id + 1)
        self.to.append(u)
        self.cap.append(0)
        return edge_id

    def _levels(self, source: int, sink: int) -> list[int] | None:
        level = [-1] * len(self.adj)
        level[source] = 0
        frontier = [source]
        while frontier:
            nxt = []
            for u in frontier:
                for eid in self.adj[u]:
                    v = self.to[eid]
                    if self.cap[eid] > 0 and level[v] < 0:
                        level[v] = level[u] + 1
                        nxt.append(v)
            frontier = nxt
        return level if level[sink] >= 0 else None

    def max_flow(self, source: int, sink: int) -> int:
        total = 0
        while True:
            level = self._levels(source, sink)
            if level is None:
                return total
            cursor = [0] * len(self.adj)

            def push(u: int, limit: int) -> int:
                if u == sink:
                    return limit
                while cursor[u] < len(self.adj[u]):
                    eid = self.adj[u][cursor[u]]
                    v = self.to[eid]
                    if self.cap[eid] > 0 and level[v] == level[u] + 1:
                        sent = push(v, min(limit, self.cap[eid]))
                        if sent > 0:
                            self.cap[eid] -= sent
                            self.cap[eid ^ 1] += sent
                            return sent
                    cursor[u] += 1
                return 0

            # a path's bottleneck never exceeds its first edge's residual,
            # which only falls within a phase: the phase's opening source
            # total bounds every push as tightly as a fresh sum would
            limit = sum(self.cap[eid] for eid in self.adj[source])
            while True:
                sent = push(source, limit)
                if sent == 0:
                    break
                total += sent


def _solve_network(net: FlowNetwork) -> tuple[int, int, dict[tuple[int, int], int]]:
    """Returns (flow, total demand, per-edge flow), all in integer units."""
    n_src, n_dst = len(net.supplies), len(net.demands)
    source = n_src + n_dst
    sink = source + 1
    dinic = _Dinic(n_src + n_dst + 2)
    supply_int = [round(s * FLOW_SCALE) for s in net.supplies]
    demand_int = [round(d * FLOW_SCALE) for d in net.demands]
    for i, s in enumerate(supply_int):
        dinic.add_edge(source, i, s)
    for j, d in enumerate(demand_int):
        dinic.add_edge(n_src + j, sink, d)
    edge_ids = {}
    for i, j in net.edges:
        edge_ids[(i, j)] = dinic.add_edge(i, n_src + j, supply_int[i])
    flow = dinic.max_flow(source, sink)
    per_edge = {
        pair: dinic.cap[eid ^ 1] for pair, eid in edge_ids.items() if dinic.cap[eid ^ 1] > 0
    }
    return flow, sum(demand_int), per_edge


def max_flow(net: FlowNetwork) -> float:
    """Exact max-flow value of the network, in mass units."""
    flow, _, _ = _solve_network(net)
    return flow / FLOW_SCALE


def _transport_edges(
    candidate: SpectralDistribution, target: SpectralDistribution, epsilon: float
) -> list[tuple[int, int]]:
    """Every (i, j) with point_distance(q_i, p_j) <= epsilon +
    EDGE_DISTANCE_TOL, i-major and then j ascending.

    A candidate's ball holds one contiguous run of the targets sorted by
    value (on the circle, by value mod 1 laid out over three turns, k - 1,
    k and k + 1), found by one searchsorted pair and widened by a rounding
    margin.  The run's members are then kept by point_distance, so the
    edges are exactly those of an all-pairs scan, in O((C + E) log(K + E))
    time and O(C + K + E) memory instead of C x K.  A ball that reaches
    half the circle less 2^-52, short of which no run holds any target on
    two turns, takes every target."""
    radius = epsilon + EDGE_DISTANCE_TOL
    circular = target.metric == "circular"
    q = np.array(candidate.values(), dtype=float)
    p = np.array(target.values(), dtype=float)
    keys = p % 1.0 if circular else p
    order = np.argsort(keys, kind="stable")
    # a few ulps of the largest magnitude in play: covers the rounding of
    # q - p, of the reductions mod 1 and of the run ends (NaN if any is NaN)
    eps = np.finfo(float).eps
    reach = radius + 8 * eps * (
        1.0 + radius + np.abs(q).max(initial=0.0) + np.abs(p).max(initial=0.0)
    )
    if not reach < (0.5 - eps if circular else np.inf):
        lo, hi = np.zeros(q.size, dtype=np.intp), np.full(q.size, p.size)
    else:
        centre = q % 1.0 if circular else q
        sorted_keys = keys[order]
        if circular:
            sorted_keys = np.concatenate([sorted_keys - 1.0, sorted_keys, sorted_keys + 1.0])
            order = np.tile(order, 3)
        lo = np.searchsorted(sorted_keys, centre - reach, "left")
        hi = np.searchsorted(sorted_keys, centre + reach, "right")
    lengths = hi - lo
    i = np.repeat(np.arange(q.size), lengths)
    j = order[np.arange(i.size) + np.repeat(lo - (np.cumsum(lengths) - lengths), lengths)]
    keep = point_distance(q[i], p[j], target.metric) <= radius
    i, j = i[keep], j[keep]
    ranked = np.lexsort((j, i))
    return list(zip(i[ranked].tolist(), j[ranked].tolist()))


def _transport(
    candidate: SpectralDistribution,
    target: SpectralDistribution,
    epsilon: float,
    delta: float,
) -> tuple[bool, int, dict[tuple[int, int], int]]:
    if candidate.metric != target.metric:
        raise MetricMismatch(
            f"candidate uses {candidate.metric}, target uses {target.metric}"
        )
    if not (0 <= delta <= 1):
        raise ValueError("delta must lie in [0, 1]")
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    net = FlowNetwork(
        supplies=candidate.weights(),
        demands=[(1.0 - delta) * w for w in target.weights()],
        edges=_transport_edges(candidate, target, epsilon),
    )
    flow, demand_total, per_edge = _solve_network(net)
    feasible = demand_total - flow <= FEASIBILITY_SLACK_UNITS
    return feasible, flow, per_edge


def approx_check(
    inst: ApproxCheckInstance,
) -> tuple[bool, list[tuple[int, int, float]] | None]:
    """Decide (epsilon, delta)-approximation; feasible cases carry a witness.

    The witness is a list of (candidate index, target index, mass) rows that
    fully decompose the candidate weights.  Mass may legitimately sit outside
    every epsilon-ball: only the in-ball rows count toward each target's
    (1 - delta) p_j requirement.
    """
    feasible, _, per_edge = _transport(
        inst.candidate, inst.target, inst.epsilon, inst.delta
    )
    if not feasible:
        return False, None
    witness = [(i, j, units / FLOW_SCALE) for (i, j), units in sorted(per_edge.items())]
    routed = Counter()
    for i, _, mass in witness:
        routed[i] += mass
    for i, (_, qw) in enumerate(inst.candidate.points):
        leftover = qw - routed[i]
        if leftover > 0:
            witness.append((i, 0, leftover))
    return True, witness


def empirical_feasibility(
    samples,
    target: SpectralDistribution,
    epsilon: float,
    delta: float,
) -> tuple[bool, float, float]:
    """Transport check of an empirical sample against a target law.

    delta must lie in [0, 1]; it is widened by a fluctuation slack,
    EMPIRICAL_SLACK_FACTOR * sqrt(log(#target points) / #samples).
    Returns (feasible, slack used, flow value).
    """
    if not 0 <= delta <= 1:
        raise ValueError("delta must lie in [0, 1]")
    n = len(samples)
    if n < MIN_EMPIRICAL_SAMPLES:
        raise ValueError(f"need at least {MIN_EMPIRICAL_SAMPLES} samples, got {n}")
    slack = EMPIRICAL_SLACK_FACTOR * math.sqrt(math.log(max(len(target.points), 2)) / n)
    values, counts = np.unique(np.asarray(samples, dtype=float), return_counts=True)
    candidate = make_distribution(values, counts / n, target.metric)
    feasible, flow, _ = _transport(
        candidate, target, epsilon, min(delta + slack, 1.0)
    )
    return feasible, slack, flow / FLOW_SCALE


def empirical_approx_check(
    samples, target: SpectralDistribution, epsilon: float, delta: float
) -> bool:
    feasible, _, _ = empirical_feasibility(samples, target, epsilon, delta)
    return feasible
