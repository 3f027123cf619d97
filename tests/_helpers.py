"""Shared random generators and comparison helpers for the test suite."""
import json

import numpy as np

from eigensample import (
    Circuit,
    Gate,
    LocalHamiltonian,
    LocalTerm,
    StateVector,
    gate_unitary,
    named_gate,
    substream,
)
from eigensample.distributions import inverse_cdf

NAMED_ONE = ("h", "x", "y", "z", "s", "t")
NAMED_TWO = ("cnot", "cz", "swap")


def haar_unitary(dim, rng):
    """Haar-distributed unitary via QR with the standard phase fix."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_hermitian(dim, rng):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (z + z.conj().T) / 2.0


def random_state(qubits, rng, clock_dim=1):
    dim = (2**qubits) * clock_dim
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return StateVector(qubits, clock_dim, z / np.linalg.norm(z))


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


def per_sample_uniforms(seed, count):
    """First uniform of each sample's own substream generator, one generator
    at a time: the CLI's former loop, kept as the reference for
    seeding.substream_uniforms."""
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
        f += np.kron(gate_unitary(gate, circ.qubit_count), clock)
    return f


def history_families(hist):
    """Eigenvectors of F on the integer and half-integer phase grids, one
    per row, formed from a history walk: Fourier transforms of the
    normalized sums and differences phi_j +/- phi_{N+j}.  The minus family
    is empty when the walk is N-periodic (deterministic-reject inputs),
    that is when every difference norm is at most 1e-8."""
    n = hist.clock_dim
    amps = np.stack([s.amplitudes for s in hist.phi_states])
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
