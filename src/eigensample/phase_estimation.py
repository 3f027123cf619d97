"""Phase estimation and spectral sampling of unitary circuits.

The estimator is the textbook one: t ancillas in uniform superposition,
controlled powers U^(2^j), an inverse Fourier transform, then measurement of
the ancilla register most-significant-qubit-first.  Its measured outcome x
in 0 .. 2^t - 1 follows the law

    P(x) = sum_k w_k F_t(2^t phi_k - x),   w_k = |<eta_k|b>|^2,

where U eta_k = e^{2 pi i phi_k} eta_k and F_t is the Fejer kernel
F_t(y) = sin^2(pi y) / (2^2t sin^2(pi y / 2^t)).  Feeding a basis state |b>
instead of an eigenvector therefore samples the spectral law of U seen from
|b>, blurred by the kernel.

prepare_phase_estimation, the only place such a law is made, blurs the output
of distributions.spectral_weights through fejer_law; ancilla_bits is the
one rule for t.  fejer_law reads every kernel denominator off one table of
sin and cos at pi o / 2^t, so its loop over eigenphases and outcomes calls
no transcendental function per element.  The loop's work, (operator
dimension) * 2^t element updates, is checked against MAX_KERNEL_WORK before
any dense work.  Sampling is split from preparation: a
PreparedPhaseEstimation holds the law and hands out cheap i.i.d. draws
through distributions.inverse_cdf.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .circuits import BasisLabel, Circuit, StateVector, circuit_unitary
from .distributions import inverse_cdf, spectral_weights
from .errors import DimensionMismatch, TooLarge

# Largest ancilla count t: the law holds 2^t float64s, 128 MiB at the cap.
MAX_ESTIMATOR_BITS = 24
# Largest kernel work, (operator dimension) * 2^t element updates of
# fejer_law: under a minute even at t = 24, where its buffers no longer fit
# in cache and an update costs about 11 ns instead of 4-7 ns.
MAX_KERNEL_WORK = 2**32


def ceil_log2(x: float) -> int:
    """Smallest integer t >= 0 with 2**t >= x, exactly: 2**t >= x iff 2**t >= ceil(x)."""
    if not 0 < x < math.inf:
        raise ValueError("argument must be positive and finite")
    return (math.ceil(x) - 1).bit_length()


@dataclass(frozen=True)
class SamplingRequest:
    """Accuracy epsilon, failure budget delta, and the basis state to probe."""

    epsilon: float
    delta: float
    b: BasisLabel

    def __post_init__(self):
        # epsilon is an absolute precision: for eigenvalue requests it scales
        # with the spectral radius and may legitimately exceed 1.
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if not (0 < self.delta < 1):
            raise ValueError("delta must lie in (0, 1)")


def ancilla_bits(epsilon: float, delta: float) -> int:
    """Ancilla count t for precision epsilon and failure budget delta: the
    precision bits plus the delta bits, refused above MAX_ESTIMATOR_BITS."""
    t = ceil_log2(1.0 / epsilon) + ceil_log2(2.0 + 1.0 / (2.0 * delta))
    if t > MAX_ESTIMATOR_BITS:
        raise TooLarge(f"{t} ancilla bits exceed the cap of {MAX_ESTIMATOR_BITS}")
    return t


@dataclass
class PreparedPhaseEstimation:
    """Output law of one phase-estimation run over the 2^t ancilla outcomes.

    All randomness is in the final ancilla measurement, so draws from the
    same preparation are i.i.d. samples of the estimator's output law.
    """

    t: int
    raw_probabilities: np.ndarray
    _cumulative: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self._cumulative = np.cumsum(self.raw_probabilities)

    def raw_outcomes(self, uniforms):
        """Ancilla outcomes that uniforms in [0, 1) select under the law."""
        return inverse_cdf(self._cumulative, uniforms)

    def sample(self, rng: np.random.Generator) -> float:
        """One measured phase raw / 2^t."""
        return int(self.raw_outcomes(rng.random())) / 2**self.t

    def sample_raw_batch(self, count: int, rng: np.random.Generator) -> np.ndarray:
        return self.raw_outcomes(rng.random(count))


def check_kernel_work(qubits: int, t: int) -> None:
    """Refuse a law over 2^t outcomes of a `qubits`-qubit operator whose
    kernel loop would exceed MAX_KERNEL_WORK element updates."""
    if 2 ** (qubits + t) > MAX_KERNEL_WORK:
        raise TooLarge(
            f"kernel work 2^{qubits} eigenphases x 2^{t} outcomes exceeds the cap "
            f"of 2^{MAX_KERNEL_WORK.bit_length() - 1}"
        )


def fejer_law(phases: np.ndarray, weights: np.ndarray, t: int) -> np.ndarray:
    """sum_k w_k F_t(2^t phi_k - x) over the outcomes x = 0 .. 2^t - 1.

    With dim = 2^t, 2^t phi = nearest + frac exactly (dim is a power of
    two), and the term at outcome x = nearest - o, the offset o wrapped into
    [-dim/2, dim/2), is w sin^2(pi frac) / (dim sin(pi (o + frac) / dim))^2.
    Its denominator comes by angle addition from tables of sin and cos at
    pi |o| / dim, so no element calls a sine; keeping o small keeps phases
    next to the 0/1 seam at full precision.  Terms are added in eigenphase
    order; a zero weight adds nothing and is skipped.
    """
    dim = 2**t
    half = dim // 2
    pos = dim - half  # offsets 0 .. pos - 1 are nonnegative
    angles = np.arange(half + 1) * (np.pi / dim)
    sin_o, cos_o = np.sin(angles), np.cos(angles)
    law = np.zeros(dim)
    # den[j] is the denominator at offset o = pos - 1 - j: o descends from
    # pos - 1 to 0 in `lo`, then from -1 to -half in `hi` (sign dropped).
    den = np.empty(dim)
    lo, hi = den[:pos], den[pos:]
    tmp = np.empty(pos)
    for phi, w in zip(phases, weights):
        if w == 0.0:
            continue
        scaled = phi * dim
        nearest = round(scaled)
        frac = scaled - nearest
        if frac == 0.0:
            law[nearest % dim] += w
            continue
        c, s = math.cos(math.pi * frac / dim), math.sin(math.pi * frac / dim)
        np.multiply(sin_o[pos - 1 :: -1], c, out=lo)
        np.multiply(cos_o[pos - 1 :: -1], s, out=tmp)
        lo += tmp
        np.multiply(sin_o[1:], c, out=hi)
        np.multiply(cos_o[1:], s, out=tmp[:half])
        hi -= tmp[:half]
        np.square(den, out=den)
        np.divide(w * (math.sin(math.pi * frac) / dim) ** 2, den, out=den)
        # outcome of den[j] is (nearest - pos + 1 + j) mod dim
        start = (nearest - pos + 1) % dim
        law[start:] += den[: dim - start]
        law[:start] += den[dim - start :]
    return law


def prepare_phase_estimation(
    unitary: np.ndarray, system_state: StateVector, t: int, power: int = 1
) -> PreparedPhaseEstimation:
    """Output law of t-bit phase estimation of unitary**power seen from
    system_state (module docs).  The power is taken in phase space: each
    eigenphase is multiplied by `power` mod 1, exactly.  A clock register on
    the state is a spectator: U acts as U (x) I on it."""
    n = system_state.qubit_count
    if np.shape(unitary) != (2**n, 2**n):
        raise DimensionMismatch("unitary does not match system register")
    check_kernel_work(n, t)
    phases, weights = spectral_weights(unitary, system_state.amplitudes, "unitary")
    return PreparedPhaseEstimation(t, fejer_law(phases * power % 1.0, weights, t))


def prepare_pes(circuit: Circuit, req: SamplingRequest) -> PreparedPhaseEstimation:
    """Preparation for spectral sampling of a circuit from basis state b.

    The law comes from the circuit's dense unitary, so circuits wider than
    circuits.MAX_DENSE_QUBITS raise TooLarge, and so does a law whose kernel
    work exceeds MAX_KERNEL_WORK, before the unitary is built.
    """
    if len(req.b.bits) != circuit.qubit_count:
        raise DimensionMismatch(
            f"b has {len(req.b.bits)} bits, circuit acts on {circuit.qubit_count}"
        )
    t = ancilla_bits(req.epsilon, req.delta)
    check_kernel_work(circuit.qubit_count, t)
    return prepare_phase_estimation(
        circuit_unitary(circuit), StateVector.from_label(req.b), t
    )

