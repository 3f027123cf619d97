"""Shared random generators and comparison helpers for the test suite."""
import contextlib
import hashlib
import io
import json
import math
import os
from pathlib import Path
from unittest import mock

import numpy as np

from eigensample import (
    GATE_MATRICES,
    BasisLabel,
    Circuit,
    Gate,
    LocalHamiltonian,
    LocalTerm,
    PreparedPhaseEstimation,
    SamplingRequest,
    SpectralDistribution,
    build_clock_hamiltonian,
    build_clock_propagator,
    build_unary_clock,
    exact_distribution,
    invert_circuit,
    named_gate,
    prepare_lhes,
    serialize_hamiltonian,
)
from eigensample import cli, distributions
from eigensample.circuits import (
    apply_columns,
    check_dense_width,
    circuit_components,
    circuit_unitary,
    operator_line,
)
from eigensample.distributions import (
    DEDUP_TOL,
    EDGE_DISTANCE_TOL,
    WEIGHT_FLOOR,
    inverse_cdf,
    point_distance,
)
from eigensample.linalg import hermitian_eig, unitary_eig, unitary_eig_in_place

NAMED_ONE = ("h", "x", "y", "z", "s", "t")
NAMED_TWO = ("cnot", "cz", "swap")
CLIFFORD_ONE = ("h", "x", "y", "z", "s", "sdg")


def haar_unitary(dim, rng):
    """Haar-distributed unitary via QR with the standard phase fix."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_hermitian(dim, rng):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (z + z.conj().T) / 2.0


def basis_state(qubits, index=0):
    """The basis state |index> of a qubits-qubit register, as amplitudes."""
    state = np.zeros(2**qubits, dtype=complex)
    state[index] = 1.0
    return state


def random_state(qubits, rng):
    dim = 2**qubits
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z)


def clifford_circuit(qubits, gate_count, rng):
    """W D W^-1 with W random named Clifford gates and D a layer of z, s,
    sdg and cz: a spectrum inside {1, i, -1, -i}, so heavily degenerate."""
    gates = []
    for _ in range(gate_count):
        if qubits >= 2 and rng.random() < 0.4:
            a, b = rng.choice(qubits, size=2, replace=False)
            gates.append(named_gate(NAMED_TWO[rng.integers(len(NAMED_TWO))], int(a), int(b)))
        else:
            name = CLIFFORD_ONE[rng.integers(len(CLIFFORD_ONE))]
            gates.append(named_gate(name, int(rng.integers(qubits))))
    layer = [named_gate(("z", "s", "sdg")[rng.integers(3)], q) for q in range(qubits)]
    layer += [named_gate("cz", q, q + 1) for q in range(0, qubits - 1, 2)]
    w = Circuit(qubits, gates)
    return Circuit(qubits, w.gates + layer + invert_circuit(w).gates)


def random_circuit(qubits, gate_count, rng, named_only=False):
    """Mix of named gates and Haar-random u1/u2 custom gates."""
    gates = []
    for _ in range(gate_count):
        two = qubits >= 2 and rng.random() < 0.4
        if named_only or rng.random() < 0.5:
            if two:
                name = NAMED_TWO[rng.integers(len(NAMED_TWO))]
                a, b = rng.choice(qubits, size=2, replace=False)
                gates.append(named_gate(name, int(a), int(b)))
            else:
                name = NAMED_ONE[rng.integers(len(NAMED_ONE))]
                gates.append(named_gate(name, int(rng.integers(qubits))))
        elif two:
            a, b = rng.choice(qubits, size=2, replace=False)
            gates.append(Gate("u2", (int(a), int(b)), haar_unitary(4, rng)))
        else:
            gates.append(Gate("u1", (int(rng.integers(qubits)),), haar_unitary(2, rng)))
    return Circuit(qubits, gates)


def serialize_circuit(circuit):
    """The circuit in the text format that parse_circuit reads."""
    lines = [f"qubits {circuit.qubit_count}"]
    for gate in circuit.gates:
        if gate.name in GATE_MATRICES:
            lines.append(" ".join([gate.name, *map(str, gate.support)]))
        elif gate.name in ("u1", "u2"):
            lines.append(operator_line([gate.name, *gate.support], gate.matrix))
        else:
            raise ValueError(f"gate {gate.name} has no text form")
    return "\n".join(lines) + "\n"


def same_circuit(a, b):
    """Equal widths and, gate by gate, equal names, supports and matrices:
    Circuit and Gate compare by identity."""
    return a.qubit_count == b.qubit_count and len(a.gates) == len(b.gates) and all(
        g.name == h.name and g.support == h.support and np.array_equal(g.matrix, h.matrix)
        for g, h in zip(a.gates, b.gates)
    )


def grouped_circuit(qubits, groups, gate_count, rng):
    """Random circuit whose gates stay inside `groups` (tuples of qubits),
    so each group is exactly one component: a chain of u2 gates joins its
    qubits (a u1 stands in for a one-qubit group), then gate_count random
    named, u1 and u2 gates each land in a random group, and all of them are
    shuffled, so the groups interleave in gate order.  Qubits in no group
    stay idle."""
    gates = []
    for group in groups:
        if len(group) == 1:
            gates.append(Gate("u1", group, haar_unitary(2, rng)))
        gates += [Gate("u2", pair, haar_unitary(4, rng)) for pair in zip(group, group[1:])]
    for _ in range(gate_count):
        group = groups[rng.integers(len(groups))]
        two = len(group) >= 2 and rng.random() < 0.4
        support = tuple(int(q) for q in rng.choice(group, size=2 if two else 1, replace=False))
        if rng.random() < 0.5:
            names = NAMED_TWO if two else NAMED_ONE
            gates.append(named_gate(names[rng.integers(len(names))], *support))
        else:
            gates.append(Gate("u2" if two else "u1", support, haar_unitary(4 if two else 2, rng)))
    return Circuit(qubits, [gates[i] for i in rng.permutation(len(gates))])


def random_local_hamiltonian(qubits, term_count, rng, max_support=2):
    terms = []
    for _ in range(term_count):
        k = int(rng.integers(1, min(max_support, qubits) + 1))
        support = tuple(int(q) for q in rng.choice(qubits, size=k, replace=False))
        terms.append(LocalTerm(support, random_hermitian(2**k, rng)))
    return LocalHamiltonian(qubits, terms)


def phase_circuit(*phases):
    """Single-qubit diagonal circuit with eigenphases {0, phases[0]} or, with
    two arguments, eigenphases {phases[0], phases[1]}."""
    if len(phases) == 1:
        diag = [1.0, np.exp(2j * np.pi * phases[0])]
    else:
        diag = [np.exp(2j * np.pi * p) for p in phases]
    return Circuit(1, [Gate("u1", (0,), np.diag(diag).astype(complex))])


def gate_by_gate_columns(circuit, columns):
    """U @ columns for the circuit's unitary U, one tensordot pass per gate
    over all columns at once: the circuits module's former loop, kept as the
    reference for its fused, column-blocked pass."""
    n = circuit.qubit_count
    tensor = np.asarray(columns, dtype=complex).reshape((2,) * n + (-1,))
    for gate in circuit.gates:
        k = len(gate.support)
        m = gate.matrix.reshape((2,) * (2 * k))
        out = np.tensordot(m, tensor, axes=(tuple(range(k, 2 * k)), gate.support))
        tensor = np.moveaxis(out, tuple(range(k)), gate.support)
    return tensor.reshape(2**n, -1)


def basis_loader(b):
    """Circuit of X gates preparing |b> from |0...0>."""
    if not b.bits:
        raise ValueError("empty label")
    gates = [named_gate("x", q) for q, bit in enumerate(b.bits) if bit == "1"]
    return Circuit(len(b.bits), gates)


def per_draw_sample(dist, rng):
    """One inverse-CDF draw from a SpectralDistribution, cumulative sum
    rebuilt per call: the exact oracles' former sampler, kept as a reference."""
    return dist.points[int(inverse_cdf(np.cumsum(dist.weights()), rng.random()))][0]


def substream(seed, index):
    """numpy's generator for substream (seed, index), the reference for
    seeding's one stream rule: uniform k of a run under seed is
    substream(seed, k).random()."""
    return np.random.default_rng(np.random.SeedSequence((seed, index)))


def per_sample_uniforms(seed, count):
    """First uniform of each sample's own substream generator, one generator
    at a time: the reference for seeding.substream_uniforms and master_rng."""
    return np.array([substream(seed, i).random() for i in range(count)])


def cyclic_shift(n):
    """Step-up permutation on n clock levels, wrapping n-1 back to 0."""
    m = np.zeros((n, n), dtype=complex)
    for j in range(n):
        m[(j + 1) % n, j] = 1.0
    return m


def anti_cyclic_shift(n):
    """Same as cyclic_shift but the wraparound entry carries a minus sign."""
    m = cyclic_shift(n)
    m[0, n - 1] = -1.0
    return m


def kron_clock_propagator(marked):
    """Dense F = sum_j V_j (x) |j><j-1| summed from one full-size np.kron
    per gate: build_clock_propagator's former assembly, kept as the
    reference for its block-by-block build."""
    circ = marked.full
    n = len(circ.gates)
    f = np.zeros(((2**circ.qubit_count) * n,) * 2, dtype=complex)
    for step, gate in enumerate(circ.gates, start=1):
        clock = np.zeros((n, n), dtype=complex)
        clock[step % n, step - 1] = 1.0
        f += np.kron(circuit_unitary(Circuit(circ.qubit_count, [gate])), clock)
    return f


def dense_clock_law(marked, b):
    """Law of the compact clock Hamiltonian H = F + F-dagger from |b, 0>,
    by one dense eigensolve of the whole matrix (2^n N dimensions for n
    marked qubits and N clock steps): the exact LHES oracle's former law,
    kept as the reference for the law it reads off the marked circuit."""
    h = build_clock_hamiltonian(build_clock_propagator(marked))
    return exact_distribution(h, b, "hermitian")


def dense_unary_sampler(marked, req):
    """prepare_lhes on the whole one-hot clock Hamiltonian from
    |b>|10...0> (n + 1 + N qubits for n base qubits and N clock steps):
    the quantum LHES oracle's former preparation, kept as the reference for
    its law on two clock rings."""
    unary = build_unary_clock(marked)
    b = BasisLabel(req.b.bits + "1" + "0" * (unary.clock_dim - 1))
    return prepare_lhes(unary.hamiltonian, SamplingRequest(req.epsilon, req.delta, b))


def dense_marked_law(circuit, b):
    """Law of a marked circuit W from |b> by dense eigensolves of W's qubit
    groups: the exact PES and LHES oracles' former law, kept as the
    reference for reductions.marked_law."""
    return exact_distribution(circuit, b, "unitary")


def seam_base():
    """A 1-qubit base whose pe-reflect W has an eigenangle just below 0, so
    angle / 2 pi % 1.0 rounds its phase to exactly 1.0."""
    return Circuit(1, [named_gate(g, 0) for g in ("z", "z", "y", "s", "y", "x", "t", "x")])


def history_families(hist):
    """Eigenvectors of F on the integer and half-integer phase grids, one
    per row, formed from a history walk: Fourier transforms of the
    normalized sums and differences phi_j +/- phi_{N+j}.  The minus family
    is empty when the walk is N-periodic (deterministic-reject inputs),
    that is when every difference norm is at most 1e-8."""
    n = hist.clock_dim
    amps = hist.phi_states
    sums, diffs = amps[:n] + amps[n:], amps[:n] - amps[n:]
    diff_norms = np.linalg.norm(diffs, axis=1)
    live = diff_norms > 1e-8
    assert live.all() or not live.any(), "walk degenerated on part of the cycle"

    def fourier(rows, offset):
        k = np.arange(n)
        return np.exp(-2j * np.pi * np.outer(k + offset, k) / n) @ rows / np.sqrt(n)

    plus = fourier(sums / np.linalg.norm(sums, axis=1, keepdims=True), 0.0)
    minus = fourier(diffs / diff_norms[:, None], 0.5) if live.all() else amps[:0]
    return plus, minus


def circular_distance(a, b):
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


def max_circular_mismatch(actual, expected):
    """Best-case max pairing distance between two phase multisets.

    Both lists are sorted on the circle; every cyclic rotation of the pairing
    is tried so values that wrap past 1 still pair up with their partners.
    """
    xs = sorted(float(v) % 1.0 for v in actual)
    ys = sorted(float(v) % 1.0 for v in expected)
    assert len(xs) == len(ys)
    n = len(xs)
    best = np.inf
    for r in range(n):
        worst = max(circular_distance(xs[(i + r) % n], ys[i]) for i in range(n))
        best = min(best, worst)
    return best


def geometric_phase_law(t, phases, weights):
    """Exact output law of t-bit phase estimation on a spectral mixture.

    Each eigenphase contributes the squared geometric-series kernel
    |sin(2^t pi d) / (2^t sin(pi d))|^2 centered on its own phase.
    """
    dim = 2**t
    probs = np.zeros(dim)
    for phi, w in zip(phases, weights):
        delta = phi - np.arange(dim) / dim
        s = np.sin(np.pi * delta)
        with np.errstate(divide="ignore", invalid="ignore"):
            kernel = (np.sin(dim * np.pi * delta) / (dim * s)) ** 2
        kernel[np.abs(s) < 1e-15] = 1.0
        probs += w * kernel
    return probs


def two_sine_law(phases, weights, t):
    """Fejer-kernel law of phase estimation with two fresh sines per
    (eigenphase, outcome) pair: phase_estimation's former kernel loop, kept
    as the reference for phase_estimation.fejer_law."""
    dim = 2**t
    outcomes = np.arange(dim)
    law = np.zeros(dim)
    for phi, w in zip(phases, weights):
        # 2^t phi = nearest + frac exactly (dim is a power of two); the
        # kernel's numerator is sin^2(pi frac) for every outcome, and the
        # offset nearest - x wrapped into [-dim/2, dim/2) keeps the
        # denominator's sine argument small and accurate.
        scaled = phi * dim
        nearest = round(scaled)
        frac = scaled - nearest
        if frac == 0.0:
            law[nearest % dim] += w
            continue
        offset = (nearest - outcomes + dim // 2) % dim - dim // 2
        law += w * (np.sin(np.pi * frac) / (dim * np.sin(np.pi * (offset + frac) / dim))) ** 2
    return law


def recursive_render_json(obj):
    """The CLI's former renderer, one recursive call per value: the
    reference for cli.render_json and cli.iter_json."""
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format(float(obj), ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        inner = ", ".join(
            f"{json.dumps(str(k))}: {recursive_render_json(v)}" for k, v in obj.items()
        )
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(recursive_render_json(v) for v in obj) + "]"
    raise TypeError(f"cannot render {type(obj).__name__} deterministically")


def all_pairs_edges(candidate, target, epsilon):
    """Every (candidate, target) index pair within epsilon +
    EDGE_DISTANCE_TOL, one point_distance call per pair: _transport's former
    edge list, kept as the reference for distributions._transport_edges."""
    return [
        (i, j)
        for i, (qv, _) in enumerate(candidate.points)
        for j, (pv, _) in enumerate(target.points)
        if point_distance(qv, pv, target.metric) <= epsilon + EDGE_DISTANCE_TOL
    ]


class PerPushDinic(distributions._Dinic):
    """_Dinic whose pushes each re-sum the source capacities: the former
    loop, kept as the reference for its one push limit per phase."""

    def max_flow(self, source, sink):
        total = 0
        while True:
            level = self._levels(source, sink)
            if level is None:
                return total
            cursor = [0] * len(self.adj)

            def push(u, limit):
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

            while True:
                sent = push(source, sum(self.cap[eid] for eid in self.adj[source]))
                if sent == 0:
                    break
                total += sent


def reference_transport(candidate, target, epsilon, delta):
    """distributions._transport run on all_pairs_edges and PerPushDinic:
    its (feasible, flow, per-edge flow) before the windowed edge build and
    the per-phase push limit."""
    with mock.patch.object(distributions, "_transport_edges", all_pairs_edges), \
            mock.patch.object(distributions, "_Dinic", PerPushDinic):
        return distributions._transport(candidate, target, epsilon, delta)


def former_spectral_weights(operator, state, kind):
    """distributions.spectral_weights as it was when it took a state: the
    weights sum_c |<eta_k|psi_c>|^2 of any amplitudes read as (dim, clock)
    columns, a clock beyond the operator's dimension being a spectator.
    Kept as the general-state reference, and as the reference for the
    basis-index probe that replaced it."""
    if kind == "hermitian":
        dec = hermitian_eig(operator)
        values = dec.eigenvalues
    elif kind == "unitary":
        if isinstance(operator, Circuit):
            return _former_circuit_weights(operator, state)
        dec = unitary_eig(operator)
        values = dec.phases()
    else:
        raise ValueError("kind must be 'hermitian' or 'unitary'")
    overlaps = dec.eigenvectors.conj().T @ np.reshape(state, (len(values), -1))
    return values, np.sum(np.abs(overlaps) ** 2, axis=1)


def _former_circuit_weights(circuit, state):
    """The circuit branch of former_spectral_weights: the state contracted
    with each qubit group's eigenbasis, idle qubits and clock summed."""
    n = circuit.qubit_count
    check_dense_width(n, "circuit")
    components = circuit_components(circuit)
    active = [q for qubits, _ in components for q in qubits]
    idle = sorted(set(range(n)).difference(active))
    overlaps = np.reshape(state, (2,) * n + (-1,)).transpose(active + idle + [n])
    overlaps = overlaps.reshape([2 ** len(qubits) for qubits, _ in components] + [-1])
    phases = np.zeros(1)
    for axis, (_, sub) in enumerate(components):
        dec = unitary_eig_in_place(
            circuit_unitary(sub), lambda vectors: apply_columns(sub, vectors)
        )
        moved = np.moveaxis(overlaps, axis, 0)
        shape = moved.shape
        moved = dec.eigenvectors.conj().T @ moved.reshape(shape[0], -1)
        overlaps = np.moveaxis(moved.reshape(shape), 0, axis)
        phases = np.add.outer(phases, dec.phases()).ravel() % 1.0
    weights = np.sum(np.abs(overlaps.reshape(phases.size, -1)) ** 2, axis=1)
    order = np.argsort(phases, kind="stable")
    return phases[order], weights[order]


def prepare_from_state(unitary, system_state, t):
    """t-bit phase-estimation law of `unitary` (a matrix or a Circuit) seen
    from any state, with the weights sum_k |<eta_k|psi>|^2 of
    former_spectral_weights: prepare_pes without its checks and beyond
    basis states."""
    phases, weights = former_spectral_weights(unitary, system_state, "unitary")
    return PreparedPhaseEstimation(t, phases, weights)


def former_make_distribution(values, weights, metric):
    """make_distribution with its own merge loop and seam join: the
    version before the one grouping rule, kept as the reference for it."""
    pairs = [(float(v), float(w)) for v, w in zip(values, weights) if w > WEIGHT_FLOOR]
    if not pairs:
        raise ValueError("distribution has no mass")
    pairs.sort()
    clusters = [[pairs[0]]]
    for v, w in pairs[1:]:
        if v - clusters[-1][-1][0] <= DEDUP_TOL:
            clusters[-1].append((v, w))
        else:
            clusters.append([(v, w)])
    wrapped = False
    if metric == "circular" and len(clusters) > 1:
        gap = (clusters[0][0][0] + 1.0) - clusters[-1][-1][0]
        if gap <= DEDUP_TOL:
            clusters[0] = [(v - 1.0, w) for v, w in clusters[-1]] + clusters[0]
            clusters.pop()
            wrapped = True
    points = []
    for cluster in clusters:
        mass = sum(w for _, w in cluster)
        value = sum(v * w for v, w in cluster) / mass
        if wrapped:
            value %= 1.0
            if value == 1.0:
                value = 0.0
            wrapped = False
        points.append((value, mass))
    points.sort()
    return SpectralDistribution(points, metric)


def former_total_variation(p, q):
    """total_variation with its own merge loop, which never joined points
    across the 0/1 seam: the version before the one grouping rule."""
    tagged = sorted([(v, w, 0.0) for v, w in p.points] + [(v, 0.0, w) for v, w in q.points])
    gaps = []
    i = 0
    while i < len(tagged):
        j = i + 1
        pw, qw = tagged[i][1], tagged[i][2]
        while j < len(tagged) and tagged[j][0] - tagged[j - 1][0] <= DEDUP_TOL:
            pw += tagged[j][1]
            qw += tagged[j][2]
            j += 1
        gaps.append(abs(pw - qw))
        i = j
    return math.fsum(gaps) / 2.0


# ---------------------------------------------------------------------------
# report corpus (tests/golden_corpus.json)

GOLDEN_CORPUS = Path(__file__).with_name("golden_corpus.json")

_BASE5 = (
    "qubits 5\nx 0\nh 1\ncnot 1 2\nt 2\nh 3\ncz 3 4\ns 4\nswap 1 3\ncnot 2 4\nh 2\n"
    "t 4\ncnot 4 1\nsdg 3\nh 4\ncz 1 2\ny 3\nswap 2 4\ntdg 1\ncnot 3 2\nh 1\n"
)


def _blocks(qubits):
    """CI's blocks<qubits>.txt: h, cnot, t, h on each qubit pair (q, q + 1),
    q even, so the circuit splits into qubits / 2 two-qubit components."""
    lines = [f"qubits {qubits}"]
    for q in range(0, qubits, 2):
        lines += [f"h {q}", f"cnot {q} {q + 1}", f"t {q + 1}", f"h {q + 1}"]
    return "\n".join(lines) + "\n"


def golden_inputs():
    """The corpus's input files, name -> text: fixed texts, CI's base5.txt,
    and seeded random circuits of named gates only (their text comes from
    the generator's integers, with no LAPACK call) and a seeded Hamiltonian."""
    return {
        "bell.txt": "qubits 2\nh 0\ncnot 0 1\n",
        "x.txt": "qubits 1\nx 0\n",
        "h.txt": "qubits 1\nh 0\n",
        "base5.txt": _BASE5,
        # CI's connected 16-qubit base: x on qubit 0, h on the rest, a cnot chain
        "base16.txt": "qubits 16\nx 0\n" + "".join(f"h {q}\n" for q in range(1, 16))
        + "".join(f"cnot {q} {q + 1}\n" for q in range(15)),
        "blocks12.txt": _blocks(12),
        "blocks14.txt": _blocks(14),
        # qubits 0-1 set to 1 then 11, two two-qubit blocks, qubit 6 idle
        "grouped7.txt": "qubits 7\nx 0\ncnot 0 1\n" + "".join(
            f"h {q}\ncnot {q} {q + 1}\nt {q + 1}\nh {q + 1}\n" for q in (2, 4)
        ),
        "zham.txt": "qubits 1\nterm 1 0 1 0 0 0 0 0 -1 0\n",
        # W D W^-1 over Cliffords: every eigenphase is 0, 1/4, 1/2 or 3/4
        "clifford3.txt": serialize_circuit(clifford_circuit(3, 8, np.random.default_rng(1))),
        "named4.txt": serialize_circuit(
            random_circuit(4, 12, np.random.default_rng(2), named_only=True)
        ),
        "ham3.txt": serialize_hamiltonian(
            random_local_hamiltonian(3, 5, np.random.default_rng(3))
        ),
        "wide13.txt": "qubits 13\nh 0\n",
        "wideham13.txt": "qubits 13\nterm 1 0 1 0 0 0 0 0 -1 0\n",
        "wide25.txt": "qubits 25\nh 0\n",
        "wide30.txt": "qubits 30\nh 29\n",
        "base45.txt": "qubits 1\n" + "h 0\n" * 45,
        "empty_ham.txt": "qubits 1\n",
        "bad.txt": "qubits 1\nterm 1 0 1 0\n",
        "arity.txt": "qubits 1\nterm 1000000000 0 1 0\n",
        "inf_u1.txt": "qubits 1\nu1 0 1 inf 0 0 0 0 1 0\n",
        "unknown_gate.txt": "qubits 1\nfoo 0\n",
        "term_no_k.txt": "qubits 1\nterm\n",
        "term_word_k.txt": "qubits 1\nterm x 0\n",
        "u1_word.txt": "qubits 1\nu1 0 1 0 0 0 0 0 zero 0\n",
        # one term above the sanity bound of a 1-qubit register
        "eleven_terms.txt": "qubits 1\n" + "term 1 0 1 0 0 0 0 0 -1 0\n" * 11,
        # a base declared 10^8 qubits wide, refused before x is padded
        "huge.txt": "qubits 100000000\nh 0\n",
    }


def _golden_commands():
    pes = ["--epsilon", "0.125", "--delta", "0.1"]
    commands = [
        ["--version"],
        ["check", "bell.txt"],
        ["check", "zham.txt"],
        ["check", "clifford3.txt", "--out", "out.json"],
        ["check", "named4.txt"],
        ["check", "ham3.txt", "--kind", "hamiltonian"],
        ["reduce", "x.txt", "--out", "out.txt"],
        ["reduce", "base5.txt", "--kind", "pe-reflect", "--out", "out.txt"],
        ["reduce", "h.txt", "--kind", "lhes-copy", "--out", "out.txt"],
    ]
    for route in ("lhes", "pes", "luae"):
        for oracle in ("exact", "quantum"):
            for path, x in (("x.txt", "0"), ("h.txt", "0"), ("base5.txt", "00000")):
                commands.append(["decide", path, "--x", x, "--route", route,
                                 "--oracle", oracle, "--seed", "5"])
    commands += [
        ["pes", "bell.txt", *pes, "--b", "00", "--samples", "300", "--seed", "3"],
        ["pes", "clifford3.txt", "--epsilon", "0.01", "--delta", "0.05", "--b", "010",
         "--samples", "500", "--seed", "7", "--out", "out.json"],
        ["luae", "bell.txt", "--epsilon", "0.25", "--delta", "0.1", "--b", "00", "--seed", "1"],
        ["luae-u", "bell.txt", "--epsilon", "0.25", "--delta", "0.1", "--seed", "2"],
        # exit 1: unreadable, malformed or invalid input, bad flags
        ["check", "absent.txt"],
        ["check", "bad.txt"],
        ["check", "arity.txt"],
        ["check", "inf_u1.txt"],
        ["check", "unknown_gate.txt"],
        ["check", "term_no_k.txt"],
        ["check", "term_word_k.txt"],
        ["check", "u1_word.txt"],
        ["check", "zham.txt", "--kind", "circuit"],
        ["lhes", "empty_ham.txt", "--epsilon", "0.4", "--delta", "0.1", "--b", "0"],
        ["pes", "bell.txt", *pes, "--b", "00", "--samples", "-1"],
        ["pes", "bell.txt", *pes, "--b", "0x"],
        ["pes", "bell.txt", "--delta", "0.1", "--b", "00"],
        # exit 2: sizes refused before any dense or wide work
        ["spectrum", "wide13.txt", "--b", "0" * 13],
        ["pes", "wide13.txt", *pes, "--b", "0" * 13],
        ["lhes", "wideham13.txt", "--epsilon", "0.4", "--delta", "0.1", "--b", "0" * 13],
        ["spectrum", "bell.txt", "--b", "0"],
        ["pes", "bell.txt", *pes, "--b", "0"],
        ["pes", "bell.txt", "--epsilon", "1e-320", "--delta", "0.1", "--b", "00"],
        ["pes", "bell.txt", *pes, "--b", "00", "--samples", str(2**23)],
        ["luae", "wide30.txt", "--epsilon", "0.5", "--delta", "0.1", "--b", "0" * 30],
        ["luae", "x.txt", "--epsilon", "1e-200", "--delta", "0.1", "--b", "0"],
        ["decide", "wide25.txt", "--x", "0" * 25, "--route", "pes"],
        ["decide", "base45.txt", "--x", "0", "--route", "lhes", "--oracle", "quantum"],
        ["decide", "x.txt", "--x", "00", "--route", "luae"],
        ["decide", "huge.txt", "--x", "0", "--route", "lhes"],
        ["check", "eleven_terms.txt"],
    ]
    # CI's console runs on its wide bases; quantum lhes on base16.txt is left
    # out, as it takes seconds in-process
    for route, oracle in (("pes", "exact"), ("pes", "quantum"), ("lhes", "exact"),
                          ("luae", "exact"), ("luae", "quantum")):
        commands.append(["decide", "base16.txt", "--x", "0", "--route", route, "--oracle", oracle])
    commands += [
        ["pes", "blocks12.txt", *pes, "--b", "0" * 12, "--samples", "5"],
        ["luae-u", "blocks12.txt", "--epsilon", "0.15", "--delta", "0.01"],
        ["luae-u", "blocks14.txt", "--epsilon", "0.15", "--delta", "0.01"],
        ["luae", "blocks12.txt", "--epsilon", "0.25", "--delta", "0.1", "--b", "101100111000",
         "--seed", "4"],
    ]
    # a grouped base whose marked circuits split into groups and leave a qubit
    # idle; qubit 0 reads 1 with probability 1, so no route sits at a tie
    for route in ("lhes", "pes", "luae"):
        for oracle in ("exact", "quantum"):
            commands.append(["decide", "grouped7.txt", "--x", "0", "--route", route,
                             "--oracle", oracle, "--seed", "5"])
    return commands


GOLDEN_COMMANDS = _golden_commands()


def _digest(data):
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def golden_record(argv):
    """Run cli.main(argv) in-process in the current directory: its exit
    code and the SHA-256 of its stdout, its stderr and its --out file
    (None when it writes none).  The --out file is removed afterwards."""
    out_path = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    out = None
    if out_path is not None and out_path.exists():
        out = _digest(out_path.read_bytes())
        out_path.unlink()
    return {"exit": code, "stdout": _digest(stdout.getvalue()),
            "stderr": _digest(stderr.getvalue()), "out": out}


def golden_records(directory):
    """argv (joined by spaces) -> golden_record, for every command of the
    corpus, run in `directory` after golden_inputs are written there."""
    directory = Path(directory)
    for name, text in golden_inputs().items():
        (directory / name).write_text(text)
    home = os.getcwd()
    os.chdir(directory)
    try:
        return {" ".join(argv): golden_record(argv) for argv in GOLDEN_COMMANDS}
    finally:
        os.chdir(home)
