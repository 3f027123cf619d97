"""Hadamard-test estimation of <psi|U|psi> and average-eigenvalue wrappers.

The Hadamard test puts one ancilla in superposition, controls U on it, and
measures it after a final Hadamard (x branch) or after S-dagger and a
Hadamard (y branch).  Its ancilla reads zero with probability
(1 + Re lam) / 2 on the x branch and (1 + Im lam) / 2 on the y branch, for
lam = <psi|U|psi>; those biases are computed here from lam directly.  Both
components are plus/minus-one Bernoulli variables, so Hoeffding fixes the
sample budget.

For a basis state psi = |b>, lam is a diagonal entry of U, read by
circuits.circuit_diagonal group by group (diagonal_entry for one checked
b), so a circuit of independent qubit groups costs what its widest group
does; hadamard_test_probabilities serves a general preparation circuit.
Only the measurement is random: each sample pair takes one uniform for the
x branch, then one for the y branch, so a run is reproducible from the
seed alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuits import (
    Circuit,
    apply_columns,
    check_statevector_width,
    circuit_diagonal,
    diagonal_entry,
)
from .errors import DimensionMismatch, TooLarge
from .phase_estimation import SamplingRequest
from .seeding import MAX_SAMPLES, UniformStream


@dataclass(frozen=True)
class AverageEstimate:
    lambda_hat: complex
    m_samples: int


def samples_per_component(epsilon: float, delta: float) -> int:
    """Hoeffding budget: both component means land within epsilon/2 of their
    expectations with probability at least 1 - delta.  A budget above
    seeding.MAX_SAMPLES sample pairs raises TooLarge, before any draw."""
    if not (0 < epsilon <= 2):
        raise ValueError("epsilon must lie in (0, 2]")
    if not (0 < delta < 1):
        raise ValueError("delta must lie in (0, 1)")
    # here 8 / epsilon^2 alone exceeds the cap, and may overflow
    if epsilon**2 * MAX_SAMPLES < 8.0:
        raise TooLarge(f"more Hoeffding sample pairs than the cap of {MAX_SAMPLES}")
    # 4 / delta overflows for a subnormal delta; its logarithm does not
    quotient = 4.0 / delta
    log_term = math.log(quotient) if quotient < math.inf else math.log(4.0) - math.log(delta)
    m = math.ceil((8.0 / epsilon**2) * log_term)
    if m > MAX_SAMPLES:
        raise TooLarge(f"{m} Hoeffding sample pairs exceed the cap of {MAX_SAMPLES}")
    return m


def hadamard_test_probabilities(circuit: Circuit, prep: Circuit) -> tuple[float, float]:
    """Ancilla-zero probabilities of the x and y branch circuits.

    Returns (p_x0, p_y0) = ((1 + Re lam) / 2, (1 + Im lam) / 2) for
    lam = <psi|U|psi> and |psi> = prep|0...0>.
    """
    if prep.qubit_count != circuit.qubit_count:
        raise DimensionMismatch("prep and circuit act on different registers")
    zero = np.eye(2**circuit.qubit_count, 1, dtype=complex)  # the column |0...0>
    psi = apply_columns(prep, zero).reshape(-1)
    lam = complex(psi.conj() @ apply_columns(circuit, psi.reshape(-1, 1)).reshape(-1))
    return (1.0 + lam.real) / 2.0, (1.0 + lam.imag) / 2.0


def _plus_minus_mean(lam, uniforms: np.ndarray) -> complex:
    """Mean Hadamard-test outcome over (m, 2) uniforms, one row per sample
    pair: the x branch reads +1 where column 0 falls below (1 + Re lam) / 2,
    the y branch where column 1 falls below (1 + Im lam) / 2."""
    xs = np.where(uniforms[:, 0] < (1.0 + lam.real) / 2.0, 1.0, -1.0)
    ys = np.where(uniforms[:, 1] < (1.0 + lam.imag) / 2.0, 1.0, -1.0)
    return complex(xs.mean() + 1j * ys.mean())


def luae_estimate(
    circuit: Circuit, req: SamplingRequest, rng: UniformStream
) -> AverageEstimate:
    """Estimate <b|U|b> to epsilon with failure probability delta."""
    # a b of the wrong length is refused before the budget
    req.b.check_width(circuit.qubit_count, "circuit")
    m = samples_per_component(req.epsilon, req.delta)
    lam = diagonal_entry(circuit, req.b)
    return AverageEstimate(_plus_minus_mean(lam, rng.random(2 * m).reshape(m, 2)), m)


def luae_unguided(
    circuit: Circuit, epsilon: float, delta: float, rng: np.random.Generator
) -> AverageEstimate:
    """Estimate the normalized trace of U: each sample pair re-draws a fresh
    uniform basis state b, then runs one Hadamard-test pair on it.

    The plus/minus-one bound covers the mixture, so the same Hoeffding
    budget applies.  Draws come in b, x, y order per sample; the branch
    biases of every distinct b come from one circuits.circuit_diagonal call,
    which passes each independent qubit group once.  Circuits wider than
    circuits.MAX_STATEVECTOR_QUBITS raise TooLarge before any draw.
    """
    m = samples_per_component(epsilon, delta)
    n = circuit.qubit_count
    check_statevector_width(n)
    indices = np.empty(m, dtype=np.int64)
    us = np.empty((m, 2))
    for s in range(m):
        indices[s] = rng.integers(0, 2**n)
        us[s, 0] = rng.random()
        us[s, 1] = rng.random()
    distinct, where = np.unique(indices, return_inverse=True)
    lam = circuit_diagonal(circuit, distinct)[where]
    return AverageEstimate(_plus_minus_mean(lam, us), m)
