"""Local Hamiltonians, Trotterized evolution, and eigenvalue sampling.

Sampling draws from the phase-estimation law of the unitary e^{2 pi i H'},
where H' is the Hamiltonian rescaled by a cap Lambda chosen so the spectrum
sits inside (-1/4, 1/4).  That unitary is approximated by `steps` first-order
Trotter slices; the law is built from the eigenphases of one slice, each
multiplied by `steps` mod 1, which takes the power exactly.  Measured phases
unwrap unambiguously to signed eigenvalues: phi below 1/2 is positive, phi
above wraps to phi - 1.

Text format (UTF-8, line based, '#' starts a comment):

    qubits <n>
    term <k> <q1> ... <qk> <2*4^k reals>   row-major re/im pairs, Hermitian
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuits import (
    MAX_DENSE_QUBITS,
    Circuit,
    Gate,
    StateVector,
    circuit_unitary,
    gate_unitary,
)
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
    prepare_phase_estimation,
)

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
            raise ValueError(f"{len(self.terms)} terms exceeds sanity bound {bound}")


@dataclass
class ScaleInfo:
    """Rescaled Hamiltonian H' = H / lambda_cap with spectrum in (-1/4, 1/4)."""

    lambda_cap: float
    scaled: LocalHamiltonian


def dense_hamiltonian(h: LocalHamiltonian) -> np.ndarray:
    """Assembled 2^n x 2^n matrix (desk scale only)."""
    if h.qubit_count > MAX_DENSE_QUBITS:
        raise TooLarge(
            f"dense Hamiltonian limited to {MAX_DENSE_QUBITS} qubits, "
            f"Hamiltonian has {h.qubit_count}"
        )
    dim = 2**h.qubit_count
    out = np.zeros((dim, dim), dtype=complex)
    for term in h.terms:
        out += gate_unitary(Gate("dense", term.support, term.matrix), h.qubit_count)
    return out


def parse_hamiltonian(text: str) -> LocalHamiltonian:
    qubit_count = None
    terms: list[LocalTerm] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "qubits":
            if qubit_count is not None:
                raise ParseError("duplicate qubits directive", lineno)
            try:
                qubit_count = int(tokens[1])
            except (IndexError, ValueError) as exc:
                raise ParseError("expected: qubits <n>", lineno) from exc
            if len(tokens) != 2 or qubit_count < 1:
                raise ParseError("expected: qubits <n> with n >= 1", lineno)
            continue
        if tokens[0] != "term":
            raise ParseError(f"unknown directive {tokens[0]!r}", lineno)
        if qubit_count is None:
            raise ParseError("qubits directive must come first", lineno)
        try:
            k = int(tokens[1])
        except (IndexError, ValueError) as exc:
            raise ParseError("expected: term <k> <qubits...> <entries...>", lineno) from exc
        entries = 2 * 4**k
        if len(tokens) != 2 + k + entries:
            raise ParseError(
                f"term with k={k} takes {k} qubits then {entries} reals", lineno
            )
        try:
            support = tuple(int(tok) for tok in tokens[2 : 2 + k])
            reals = [float(tok) for tok in tokens[2 + k :]]
        except ValueError as exc:
            raise ParseError(f"bad token: {exc}", lineno) from exc
        if any(q < 0 or q >= qubit_count for q in support):
            raise ParseError("term qubit out of range", lineno)
        flat = np.array(reals[0::2]) + 1j * np.array(reals[1::2])
        try:
            terms.append(LocalTerm(support, flat.reshape(2**k, 2**k)))
        except (ValueError, NotHermitian, TermTooLarge, DimensionMismatch) as exc:
            raise ParseError(str(exc), lineno) from exc
    if qubit_count is None:
        raise ParseError("missing qubits directive")
    return LocalHamiltonian(qubit_count, terms)


def serialize_hamiltonian(h: LocalHamiltonian) -> str:
    lines = [f"qubits {h.qubit_count}"]
    for term in h.terms:
        fields = ["term", str(len(term.support)), *map(str, term.support)]
        for amp in term.matrix.reshape(-1):
            fields.append(format(float(amp.real), ".17g"))
            fields.append(format(float(amp.imag), ".17g"))
        lines.append(" ".join(fields))
    return "\n".join(lines) + "\n"


def scale_hamiltonian(h: LocalHamiltonian) -> ScaleInfo:
    """Divide by lambda_cap = 4 * sum of term norms (plus margin)."""
    if not h.terms:
        raise EmptyHamiltonian("cannot scale a Hamiltonian with no terms")
    cap = 4.0 * sum(operator_norm(t.matrix) for t in h.terms) * (1.0 + LAMBDA_MARGIN)
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
        k = len(term.support)
        if k > MAX_TERM_QUBITS:
            raise TermTooLarge(f"cannot exponentiate a {k}-qubit term")
        factor = exp_i_hermitian(term.matrix, 2.0 * np.pi / steps)
        gates.append(Gate(_POWER_GATE_NAMES[k], term.support, factor))
    return Circuit(scale.scaled.qubit_count, gates)


def exact_evolution_unitary(scale: ScaleInfo) -> np.ndarray:
    """Dense e^{2 pi i H'} for deviation measurements."""
    return exp_i_hermitian(dense_hamiltonian(scale.scaled), 2.0 * np.pi)


def trotter_deviation(scale: ScaleInfo, steps: int) -> float:
    """Operator-norm gap between the composed slices and the exact evolution."""
    slice_u = circuit_unitary(trotter_circuit(scale, steps))
    composed = np.linalg.matrix_power(slice_u, steps)
    return operator_norm(composed - exact_evolution_unitary(scale))


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

    def sample(self, rng: np.random.Generator) -> float:
        """One eigenvalue estimate at the input scale."""
        return float(self.eigenvalues(rng.random()))


def prepare_lhes(h: LocalHamiltonian, req: SamplingRequest) -> PreparedEigenvalueSampler:
    """Scale, Trotterize, and build the phase-estimation law of the
    Trotterized evolution: one slice, raised to the step count.

    The phase estimator gets precision epsilon / lambda_cap and failure
    budget delta / 2; the other delta / 2 covers the Trotter deviation.
    A law whose kernel work exceeds phase_estimation.MAX_KERNEL_WORK raises
    TooLarge before the slice is built.
    """
    if len(req.b.bits) != h.qubit_count:
        raise DimensionMismatch(
            f"b has {len(req.b.bits)} bits, Hamiltonian acts on {h.qubit_count}"
        )
    scale = scale_hamiltonian(h)
    t = ancilla_bits(req.epsilon / scale.lambda_cap, req.delta / 2.0)
    check_kernel_work(h.qubit_count, t)
    s_norm = sum(operator_norm(term.matrix) for term in scale.scaled.terms)
    steps = trotter_step_count(t, s_norm, req.delta)
    slice_u = circuit_unitary(trotter_circuit(scale, steps))
    prep = prepare_phase_estimation(slice_u, StateVector.from_label(req.b), t, power=steps)
    return PreparedEigenvalueSampler(scale.lambda_cap, t, steps, prep)


def exact_average_eigenvalue(h: LocalHamiltonian, b) -> float:
    """<b|H|b> summed term-locally: one small diagonal entry per term."""
    if len(b.bits) != h.qubit_count:
        raise DimensionMismatch(
            f"label has {len(b.bits)} bits, Hamiltonian acts on {h.qubit_count}"
        )
    total = 0.0
    for term in h.terms:
        idx = 0
        for q in term.support:
            idx = (idx << 1) | (b.bits[q] == "1")
        total += float(term.matrix[idx, idx].real)
    return total
