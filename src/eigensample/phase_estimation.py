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
of distributions.spectral_weights; EstimatorConfig is the one rule for t.
Sampling is split from preparation: a PreparedPhaseEstimation holds the law
and hands out cheap i.i.d. draws through distributions.inverse_cdf.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .circuits import BasisLabel, Circuit, StateVector, circuit_unitary
from .distributions import inverse_cdf, spectral_weights
from .errors import DimensionMismatch, NotEigenvector, TooLarge

EIGENVECTOR_TOL = 1e-8
# Largest ancilla count t: the law holds 2^t float64s, 128 MiB at the cap.
MAX_ESTIMATOR_BITS = 24


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


@dataclass(frozen=True)
class EstimatorConfig:
    """Ancilla budget t for a precision epsilon and failure budget delta."""

    t: int

    @classmethod
    def from_request(cls, epsilon: float, delta: float) -> "EstimatorConfig":
        return cls.from_bits(ceil_log2(1.0 / epsilon), delta)

    @classmethod
    def from_bits(cls, precision_bits: int, delta: float) -> "EstimatorConfig":
        """t for precision 2^-precision_bits: those bits plus the delta bits."""
        t = precision_bits + ceil_log2(2.0 + 1.0 / (2.0 * delta))
        if t > MAX_ESTIMATOR_BITS:
            raise TooLarge(f"{t} ancilla bits exceed the cap of {MAX_ESTIMATOR_BITS}")
        return cls(t)


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
    phases, weights = spectral_weights(unitary, system_state.amplitudes, "unitary")
    dim = 2**t
    outcomes = np.arange(dim)
    law = np.zeros(dim)
    for phi, w in zip(phases * power % 1.0, weights):
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
    return PreparedPhaseEstimation(t, law)


def phase_estimate(
    circuit: Circuit,
    eigenvector: StateVector,
    n_bits: int,
    delta: float,
    rng: np.random.Generator,
) -> float:
    """Estimate the eigenphase of `eigenvector` to n_bits of precision.

    The returned phase is circularly within 2^-n_bits of the true phase with
    probability at least 1 - delta.
    """
    if n_bits < 1:
        raise ValueError("n_bits must be at least 1")
    if not (0 < delta < 1):
        raise ValueError("delta must lie in (0, 1)")
    if eigenvector.clock_dim != 1:
        raise DimensionMismatch("eigenvector must not carry a clock register")
    cfg = EstimatorConfig.from_bits(n_bits, delta)
    u = circuit_unitary(circuit)
    v = eigenvector.amplitudes
    lam = complex(v.conj() @ (u @ v))
    residual = float(np.linalg.norm(u @ v - lam * v))
    if residual > EIGENVECTOR_TOL:
        raise NotEigenvector(f"residual {residual:.3e} exceeds {EIGENVECTOR_TOL}")
    return prepare_phase_estimation(u, eigenvector, cfg.t).sample(rng)


def prepare_pes(circuit: Circuit, req: SamplingRequest) -> PreparedPhaseEstimation:
    """Preparation for spectral sampling of a circuit from basis state b.

    The law comes from the circuit's dense unitary, so circuits wider than
    circuits.MAX_DENSE_QUBITS raise TooLarge.
    """
    if len(req.b.bits) != circuit.qubit_count:
        raise DimensionMismatch(
            f"b has {len(req.b.bits)} bits, circuit acts on {circuit.qubit_count}"
        )
    cfg = EstimatorConfig.from_request(req.epsilon, req.delta)
    return prepare_phase_estimation(
        circuit_unitary(circuit), StateVector.from_label(req.b), cfg.t
    )

