"""Local Hamiltonians, Trotterized evolution, and eigenvalue sampling.

Sampling draws from the phase-estimation law of the unitary e^{2 pi i H'},
where H' is the Hamiltonian rescaled by a cap Lambda chosen so the spectrum
sits inside (-1/4, 1/4).  That unitary is approximated by `steps` first-order
Trotter slices; the law is built from the eigenphases of one slice, each
multiplied by `steps` mod 1 exactly and then rounded once (power_phases).
lhes_sampler is that one rule, for prepare_lhes and for the quantum LHES
oracle of reductions.
Measured phases unwrap to signed eigenvalues: phi below 1/2 is positive,
phi above wraps to phi - 1.

Text format (UTF-8, line based, '#' starts a comment; read through
circuits.read_register and circuits.read_operator):

    qubits <n>
    term <k> <q1> ... <qk> <2*4^k reals>   row-major re/im pairs, Hermitian
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .circuits import (
    Circuit,
    Gate,
    check_dense_width,
    circuit_unitary,
    group_index,
    operator_line,
    read_operator,
    read_register,
)
from .distributions import spectral_weights
from .errors import (
    DimensionMismatch,
    EmptyHamiltonian,
    NotHermitian,
    ParseError,
    TermTooLarge,
    TooLarge,
)
from .linalg import exp_i_hermitian, is_hermitian, operator_norm
from .phase_estimation import (
    PreparedPhaseEstimation,
    SamplingRequest,
    ancilla_bits,
    check_kernel_work,
)

if TYPE_CHECKING:
    from .seeding import UniformStream

MAX_TERM_QUBITS = 4
# Headroom factor keeping the scaled spectrum strictly inside (-1/4, 1/4).
LAMBDA_MARGIN = 1e-9
# Terms-per-Hamiltonian sanity bound (locality makes more than this absurd).
TERM_BOUND_COEFF = 10

_POWER_GATE_NAMES = {1: "u1", 2: "u2", 3: "u3", 4: "u4"}


@dataclass
class LocalTerm:
    """A Hermitian matrix acting on at most four named qubits."""

    support: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        self.support = tuple(int(q) for q in self.support)
        if len(set(self.support)) != len(self.support):
            raise ValueError(f"repeated qubit in term support {self.support}")
        k = len(self.support)
        if k == 0:
            raise ValueError("term must act on at least one qubit")
        if k > MAX_TERM_QUBITS:
            raise TermTooLarge(f"term acts on {k} qubits, limit is {MAX_TERM_QUBITS}")
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (2**k, 2**k):
            raise DimensionMismatch(
                f"term matrix shape {m.shape} does not fit {k} qubits"
            )
        # the eigensolvers' own test, so what parses also diagonalizes
        if not is_hermitian(m):
            raise NotHermitian("term matrix is not Hermitian within tolerance")
        self.matrix = m


@dataclass
class LocalHamiltonian:
    qubit_count: int
    terms: list[LocalTerm]

    def __post_init__(self):
        if self.qubit_count < 1:
            raise ValueError("Hamiltonian needs at least one qubit")
        for term in self.terms:
            bad = [q for q in term.support if q < 0 or q >= self.qubit_count]
            if bad:
                raise ValueError(f"term qubit {bad[0]} out of range")
        bound = TERM_BOUND_COEFF * self.qubit_count**4
        if len(self.terms) > bound:
            raise TooLarge(f"{len(self.terms)} terms exceeds sanity bound {bound}")


@dataclass
class ScaleInfo:
    """Rescaled Hamiltonian H' = H / lambda_cap with spectrum in (-1/4, 1/4)."""

    lambda_cap: float
    scaled: LocalHamiltonian


def dense_hamiltonian(h: LocalHamiltonian) -> np.ndarray:
    """Assembled 2^n x 2^n matrix (desk scale only)."""
    check_dense_width(h.qubit_count, "Hamiltonian")
    dim = 2**h.qubit_count
    out = np.zeros((dim, dim), dtype=complex)
    for term in h.terms:
        out += circuit_unitary(Circuit(h.qubit_count, [Gate("dense", term.support, term.matrix)]))
    return out


def parse_hamiltonian(text: str) -> LocalHamiltonian:
    terms: list[LocalTerm] = []

    def directive(tokens: list[str], qubit_count: int) -> None:
        if tokens[0] != "term":
            raise ParseError(f"unknown directive {tokens[0]!r}")
        try:
            k = int(tokens[1])
        except (IndexError, ValueError) as exc:
            raise ParseError("expected: term <k> <qubits...> <entries...>") from exc
        # before 4^k is sized
        if not 1 <= k <= MAX_TERM_QUBITS:
            raise ParseError(f"term acts on {k} qubits, limit is 1 to {MAX_TERM_QUBITS}")
        terms.append(LocalTerm(*read_operator(tokens[2:], k, qubit_count, f"term with k={k}")))

    return LocalHamiltonian(read_register(text, directive), terms)


def serialize_hamiltonian(h: LocalHamiltonian) -> str:
    lines = [f"qubits {h.qubit_count}"]
    for term in h.terms:
        lines.append(operator_line(["term", len(term.support), *term.support], term.matrix))
    return "\n".join(lines) + "\n"


def scale_hamiltonian(h: LocalHamiltonian) -> ScaleInfo:
    """Divide by lambda_cap = 4 * sum of term norms (plus margin)."""
    if not h.terms:
        raise EmptyHamiltonian("cannot scale a Hamiltonian with no terms")
    cap = 4.0 * sum(operator_norm(t.matrix) for t in h.terms) * (1.0 + LAMBDA_MARGIN)
    if cap == 0.0:
        raise EmptyHamiltonian("cannot scale a Hamiltonian whose every term is zero")
    scaled = LocalHamiltonian(
        h.qubit_count,
        [LocalTerm(t.support, t.matrix / cap) for t in h.terms],
    )
    return ScaleInfo(cap, scaled)


def trotter_circuit(scale: ScaleInfo, steps: int) -> Circuit:
    """One first-order Trotter slice of e^{2 pi i H'}: the product of
    e^{2 pi i H'_j / steps} over the terms, each as one dense gate."""
    if steps < 1:
        raise ValueError("step count must be positive")
    gates = []
    for term in scale.scaled.terms:
        factor = exp_i_hermitian(term.matrix, 2.0 * np.pi / steps)
        gates.append(Gate(_POWER_GATE_NAMES[len(term.support)], term.support, factor))
    return Circuit(scale.scaled.qubit_count, gates)


def trotter_deviation(scale: ScaleInfo, steps: int) -> float:
    """Operator-norm gap between the composed slices and e^{2 pi i H'}."""
    exact = exp_i_hermitian(dense_hamiltonian(scale.scaled), 2.0 * np.pi)
    slice_u = circuit_unitary(trotter_circuit(scale, steps))
    composed = np.linalg.matrix_power(slice_u, steps)
    return operator_norm(composed - exact)


def trotter_step_count(t: int, scaled_norm_sum: float, delta: float) -> int:
    """Slices needed to keep the total evolution error within delta / 4."""
    return math.ceil((2.0 * np.pi * scaled_norm_sum) ** 2 * 2 ** (t + 1) / delta)


@dataclass
class PreparedEigenvalueSampler:
    """Frozen eigenvalue-sampling run; draws are cheap and i.i.d."""

    lambda_cap: float
    t: int
    trotter_steps: int
    prepared: PreparedPhaseEstimation

    def eigenvalues(self, uniforms) -> np.ndarray:
        """Eigenvalue estimates that uniforms in [0, 1) select: the phase
        outcome unwrapped to [-1/2, 1/2) and scaled back by lambda_cap."""
        phi = self.prepared.raw_outcomes(uniforms) / 2**self.t
        return np.where(phi < 0.5, phi, phi - 1.0) * self.lambda_cap

    def sample(self, rng: UniformStream) -> float:
        """One eigenvalue estimate at the input scale."""
        return float(self.eigenvalues(rng.random()))


def power_phases(phases, steps: int) -> np.ndarray:
    """Each phase times `steps` mod 1, rounded once: a double is a ratio of
    integers (float.as_integer_ratio), so the product is reduced exactly."""
    ratios = map(float.as_integer_ratio, np.asarray(phases, dtype=float).tolist())
    return np.array([num * steps % den / den for num, den in ratios])


def lhes_sampler(
    lambda_cap: float, norm_sum: float, req: SamplingRequest, slice_law
) -> PreparedEigenvalueSampler:
    """The LHES estimator rule: t-bit phase estimation of `steps` Trotter
    slices of e^{2 pi i H'}, H' = H / lambda_cap, whose term norms sum to
    norm_sum.  t = ancilla_bits(epsilon / lambda_cap, delta / 2), and the
    other delta / 2 covers the Trotter deviation (trotter_step_count).
    slice_law(t, steps) gives the eigenphases and weights of one slice seen
    from b; each phase times `steps` mod 1 is a phase of the evolution."""
    t = ancilla_bits(req.epsilon / lambda_cap, req.delta / 2.0)
    steps = trotter_step_count(t, norm_sum, req.delta)
    phases, weights = slice_law(t, steps)
    prepared = PreparedPhaseEstimation(t, power_phases(phases, steps), weights)
    return PreparedEigenvalueSampler(lambda_cap, t, steps, prepared)


def prepare_lhes(h: LocalHamiltonian, req: SamplingRequest) -> PreparedEigenvalueSampler:
    """lhes_sampler on the scaled Hamiltonian's dense Trotter slice.  A law
    whose kernel work exceeds phase_estimation.MAX_KERNEL_WORK raises
    TooLarge before the slice is built."""
    req.b.check_width(h.qubit_count, "Hamiltonian")
    scale = scale_hamiltonian(h)
    s_norm = sum(operator_norm(term.matrix) for term in scale.scaled.terms)

    def slice_law(t, steps):
        check_kernel_work(h.qubit_count, t)
        check_dense_width(h.qubit_count, "Hamiltonian")
        return spectral_weights(trotter_circuit(scale, steps), req.b.basis_index(), "unitary")

    return lhes_sampler(scale.lambda_cap, s_norm, req, slice_law)


def exact_average_eigenvalue(h: LocalHamiltonian, b) -> float:
    """<b|H|b> summed term-locally: one small diagonal entry per term."""
    b.check_width(h.qubit_count, "Hamiltonian")
    total, index = 0.0, b.basis_index()
    for term in h.terms:
        idx = group_index(index, term.support, h.qubit_count)
        total += float(term.matrix[idx, idx].real)
    return total
