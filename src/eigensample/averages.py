"""Hadamard-test estimation of <psi|U|psi> and average-eigenvalue wrappers.

The Hadamard test puts one ancilla in superposition, controls U on it, and
measures it after a final Hadamard (x branch) or after S-dagger and a
Hadamard (y branch).  Its ancilla reads zero with probability
(1 + Re lam) / 2 on the x branch and (1 + Im lam) / 2 on the y branch, for
lam = <psi|U|psi>; those biases are computed here from lam directly.  Both
components are plus/minus-one Bernoulli variables, so Hoeffding fixes the
sample budget.

Branches alternate deterministically: within each sample pair the x branch
is drawn first, then the y branch, so a run is reproducible from the seed
alone.  Only the measurement is random; the branch biases are computed once
per preparation and reused across draws.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuits import (
    BasisLabel,
    Circuit,
    StateVector,
    apply_circuit,
    circuit_diagonal,
    named_gate,
)
from .errors import DimensionMismatch
from .phase_estimation import SamplingRequest


@dataclass(frozen=True)
class PlusMinusSample:
    """One Hadamard-test draw: x estimates the real part, y the imaginary."""

    x: int
    y: int

    def __post_init__(self):
        if self.x not in (-1, 1) or self.y not in (-1, 1):
            raise ValueError("branch outcomes must be +1 or -1")


@dataclass(frozen=True)
class AverageEstimate:
    lambda_hat: complex
    m_samples: int
    epsilon: float
    delta: float


def samples_per_component(epsilon: float, delta: float) -> int:
    """Hoeffding budget: both component means land within epsilon/2 of their
    expectations with probability at least 1 - delta."""
    if not (0 < epsilon <= 2):
        raise ValueError("epsilon must lie in (0, 2]")
    if not (0 < delta < 1):
        raise ValueError("delta must lie in (0, 1)")
    return math.ceil((8.0 / epsilon**2) * math.log(4.0 / delta))


def basis_loader(b: BasisLabel) -> Circuit:
    """Circuit of X gates preparing |b> from |0...0>."""
    if not b.bits:
        raise ValueError("empty label")
    gates = [named_gate("x", q) for q, bit in enumerate(b.bits) if bit == "1"]
    return Circuit(len(b.bits), gates)


def hadamard_test_probabilities(circuit: Circuit, prep: Circuit) -> tuple[float, float]:
    """Ancilla-zero probabilities of the x and y branch circuits.

    Returns (p_x0, p_y0) = ((1 + Re lam) / 2, (1 + Im lam) / 2) for
    lam = <psi|U|psi> and |psi> = prep|0...0>.
    """
    if prep.qubit_count != circuit.qubit_count:
        raise DimensionMismatch("prep and circuit act on different registers")
    psi = apply_circuit(prep, StateVector.basis(circuit.qubit_count))
    lam = complex(psi.amplitudes.conj() @ apply_circuit(circuit, psi).amplitudes)
    return (1.0 + lam.real) / 2.0, (1.0 + lam.imag) / 2.0


def hadamard_test_sample(
    circuit: Circuit, prep: Circuit, rng: np.random.Generator
) -> PlusMinusSample:
    """Run both branches once; x is drawn before y."""
    p_x0, p_y0 = hadamard_test_probabilities(circuit, prep)
    x = 1 if rng.random() < p_x0 else -1
    y = 1 if rng.random() < p_y0 else -1
    return PlusMinusSample(x, y)


def _branch_means(
    p_x0: float, p_y0: float, m: int, rng: np.random.Generator
) -> complex:
    # uniforms are consumed in strict x,y,x,y order, one pair per sample
    us = rng.random(2 * m)
    xs = np.where(us[0::2] < p_x0, 1.0, -1.0)
    ys = np.where(us[1::2] < p_y0, 1.0, -1.0)
    return complex(xs.mean() + 1j * ys.mean())


def luae_estimate(
    circuit: Circuit, req: SamplingRequest, rng: np.random.Generator
) -> AverageEstimate:
    """Estimate <b|U|b> to epsilon with failure probability delta."""
    if len(req.b.bits) != circuit.qubit_count:
        raise DimensionMismatch(
            f"b has {len(req.b.bits)} bits, circuit acts on {circuit.qubit_count}"
        )
    m = samples_per_component(req.epsilon, req.delta)
    p_x0, p_y0 = hadamard_test_probabilities(circuit, basis_loader(req.b))
    lam = _branch_means(p_x0, p_y0, m, rng)
    return AverageEstimate(lam, m, req.epsilon, req.delta)


def luae_unguided(
    circuit: Circuit, epsilon: float, delta: float, rng: np.random.Generator
) -> AverageEstimate:
    """Estimate the normalized trace of U: each sample pair re-draws a fresh
    uniform basis state b, then runs one Hadamard-test pair on it.

    The plus/minus-one bound covers the mixture, so the same Hoeffding
    budget applies.  Draws come in b, x, y order per sample; the branch
    biases of every distinct b come from one circuits.circuit_diagonal pass.
    """
    m = samples_per_component(epsilon, delta)
    n = circuit.qubit_count
    indices = np.empty(m, dtype=np.int64)
    us = np.empty((m, 2))
    for s in range(m):
        indices[s] = rng.integers(0, 2**n)
        us[s, 0] = rng.random()
        us[s, 1] = rng.random()
    distinct, where = np.unique(indices, return_inverse=True)
    lam = circuit_diagonal(circuit, distinct)[where]
    x_total = float(np.sum(np.where(us[:, 0] < (1.0 + lam.real) / 2.0, 1.0, -1.0)))
    y_total = float(np.sum(np.where(us[:, 1] < (1.0 + lam.imag) / 2.0, 1.0, -1.0)))
    lam = complex(x_total / m + 1j * y_total / m)
    return AverageEstimate(lam, m, epsilon, delta)
