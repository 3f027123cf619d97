"""Gate-level circuit model and statevector simulator.

Basis convention: qubit 0 is the MOST significant bit of the basis index.
A state may also carry a clock register of dimension N >= 1 that gates never
touch; the flat amplitude index is  basis_index * N + clock_index.

Text format (UTF-8, line based, '#' starts a comment):

    qubits <n>
    <name> <q...>          named gate from the fixed set
    u1 <q> <8 reals>       custom 2x2, row-major re/im pairs
    u2 <q1> <q2> <32 reals>  custom 4x4 on the ordered qubit pair

Named gates: h x y z s sdg t tdg cnot cz swap.  For two-qubit gates the
first listed qubit is the more significant index of the 4-dim gate basis
(control first for cnot/cz).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, NotUnitary, ParseError, TooLarge
from .linalg import is_unitary

NORM_TOL = 1e-10
# Magnitude below which an output-branch amplitude is treated as absent.
BRANCH_ZERO_TOL = 1e-12
MAX_DENSE_QUBITS = 12
# Widest register simulated as statevector columns: 256 MiB per complex column.
MAX_STATEVECTOR_QUBITS = 24
# Amplitudes simulated at once by circuit_diagonal (4 MiB of complex128).
DIAGONAL_BLOCK_AMPLITUDES = 2**18

_SQ2 = 1.0 / np.sqrt(2.0)

GATE_MATRICES: dict[str, np.ndarray] = {
    "h": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "s": np.array([[1, 0], [0, 1j]], dtype=complex),
    "sdg": np.array([[1, 0], [0, -1j]], dtype=complex),
    "t": np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=complex),
    "tdg": np.array([[1, 0], [0, np.exp(-1j * np.pi / 4)]], dtype=complex),
    "cnot": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex),
    "cz": np.diag([1, 1, 1, -1]).astype(complex),
    "swap": np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex),
}
GATE_ARITY = {name: int(np.log2(m.shape[0])) for name, m in GATE_MATRICES.items()}
# Adjoint renaming used by invert_circuit; everything else keeps its name.
_ADJOINT_NAME = {"s": "sdg", "sdg": "s", "t": "tdg", "tdg": "t"}


@dataclass
class Gate:
    """One gate: a unitary on an ordered tuple of distinct qubits."""

    name: str
    support: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        self.support = tuple(int(q) for q in self.support)
        if len(set(self.support)) != len(self.support):
            raise ValueError(f"gate {self.name}: repeated qubit in {self.support}")
        k = len(self.support)
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (2**k, 2**k):
            raise DimensionMismatch(
                f"gate {self.name}: matrix shape {m.shape} does not fit {k} qubits"
            )
        self.matrix = m

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Gate)
            and self.name == other.name
            and self.support == other.support
            and np.array_equal(self.matrix, other.matrix)
        )


def named_gate(name: str, *qubits: int) -> Gate:
    return Gate(name, tuple(qubits), GATE_MATRICES[name])


@dataclass
class Circuit:
    qubit_count: int
    gates: list[Gate] = field(default_factory=list)

    def __post_init__(self):
        if self.qubit_count < 1:
            raise ValueError("circuit needs at least one qubit")
        for g in self.gates:
            bad = [q for q in g.support if q < 0 or q >= self.qubit_count]
            if bad:
                raise ValueError(f"gate {g.name}: qubit {bad[0]} out of range")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Circuit)
            and self.qubit_count == other.qubit_count
            and self.gates == other.gates
        )


@dataclass(frozen=True)
class BasisLabel:
    """A computational basis point: qubit bits (qubit 0 first) plus a clock index."""

    bits: str
    clock_index: int = 0

    def __post_init__(self):
        if any(c not in "01" for c in self.bits):
            raise ValueError(f"bits must be 0/1, got {self.bits!r}")
        if self.clock_index < 0:
            raise ValueError("clock_index must be nonnegative")

    @property
    def qubit_count(self) -> int:
        return len(self.bits)

    def basis_index(self) -> int:
        return int(self.bits, 2) if self.bits else 0


@dataclass
class StateVector:
    """Normalized amplitudes over qubits x clock, flat index = basis*N + clock."""

    qubit_count: int
    clock_dim: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.qubit_count < 0 or self.clock_dim < 1:
            raise ValueError("bad register shape")
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        expected = (2**self.qubit_count) * self.clock_dim
        if amps.size != expected:
            raise DimensionMismatch(
                f"amplitude vector has {amps.size} entries, expected {expected}"
            )
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state not normalized: |norm - 1| = {abs(norm - 1.0):.3e}")
        self.amplitudes = amps

    @classmethod
    def from_label(cls, label: BasisLabel, clock_dim: int = 1) -> "StateVector":
        if label.clock_index >= clock_dim:
            raise DimensionMismatch("clock index outside clock register")
        amps = np.zeros((2 ** len(label.bits)) * clock_dim, dtype=complex)
        amps[label.basis_index() * clock_dim + label.clock_index] = 1.0
        return cls(len(label.bits), clock_dim, amps)

    @classmethod
    def basis(cls, qubit_count: int, index: int = 0, clock_dim: int = 1) -> "StateVector":
        amps = np.zeros((2**qubit_count) * clock_dim, dtype=complex)
        amps[index * clock_dim] = 1.0
        return cls(qubit_count, clock_dim, amps)


@dataclass
class OutputSplit:
    """Decomposition of a circuit output by the value of qubit 0.

    alpha0/alpha1 carry the branch amplitudes; psi0/psi1 are the unit-norm
    residual states on the remaining qubits, with phases fixed so each
    psi's first nonzero amplitude is real and nonnegative.  A psi is None
    when its branch amplitude vanishes.
    """

    alpha0: complex
    alpha1: complex
    psi0: StateVector | None
    psi1: StateVector | None


# ---------------------------------------------------------------------------
# kernels

def _apply_matrix(tensor: np.ndarray, matrix: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    k = len(axes)
    m = matrix.reshape((2,) * (2 * k))
    out = np.tensordot(m, tensor, axes=(tuple(range(k, 2 * k)), axes))
    return np.moveaxis(out, tuple(range(k)), axes)


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    for q in gate.support:
        if q >= state.qubit_count:
            raise DimensionMismatch(f"gate {gate.name} targets qubit {q} beyond register")
    axes = state.amplitudes.reshape((2,) * state.qubit_count + (state.clock_dim,))
    out = _apply_matrix(axes, gate.matrix, gate.support)
    return StateVector(state.qubit_count, state.clock_dim, out.reshape(-1))


def apply_circuit(circuit: Circuit, state: StateVector) -> StateVector:
    if circuit.qubit_count != state.qubit_count:
        raise DimensionMismatch(
            f"circuit acts on {circuit.qubit_count} qubits, state has {state.qubit_count}"
        )
    for gate in circuit.gates:
        state = apply_gate(state, gate)
    return state


def gate_unitary(gate: Gate, qubit_count: int) -> np.ndarray:
    """Dense 2^n x 2^n embedding of a single gate."""
    if qubit_count > MAX_DENSE_QUBITS:
        raise TooLarge(f"dense embedding limited to {MAX_DENSE_QUBITS} qubits")
    dim = 2**qubit_count
    cols = np.eye(dim, dtype=complex).reshape((2,) * qubit_count + (dim,))
    cols = _apply_matrix(cols, gate.matrix, gate.support)
    return cols.reshape(dim, dim)


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Dense unitary of the whole circuit (desk scale only)."""
    if circuit.qubit_count > MAX_DENSE_QUBITS:
        raise TooLarge(
            f"dense unitary limited to {MAX_DENSE_QUBITS} qubits, "
            f"circuit has {circuit.qubit_count}"
        )
    dim = 2**circuit.qubit_count
    cols = np.eye(dim, dtype=complex).reshape((2,) * circuit.qubit_count + (dim,))
    for gate in circuit.gates:
        cols = _apply_matrix(cols, gate.matrix, gate.support)
    return cols.reshape(dim, dim)


def circuit_diagonal(circuit: Circuit, indices) -> np.ndarray:
    """Diagonal entries <b|U|b> of the circuit's unitary for basis indices b.

    The columns U|b> are simulated together, DIAGONAL_BLOCK_AMPLITUDES at a
    time, and no dense unitary is formed.  Each block holds at least one
    full column, so circuits wider than MAX_STATEVECTOR_QUBITS raise
    TooLarge before anything is allocated.
    """
    n = circuit.qubit_count
    if n > MAX_STATEVECTOR_QUBITS:
        raise TooLarge(
            f"statevector simulation limited to {MAX_STATEVECTOR_QUBITS} qubits, "
            f"circuit has {n}"
        )
    indices = np.asarray(indices, dtype=np.int64).reshape(-1)
    out = np.empty(indices.size, dtype=complex)
    width = max(1, DIAGONAL_BLOCK_AMPLITUDES >> n)
    for start in range(0, indices.size, width):
        block = indices[start : start + width]
        cols = np.zeros((2**n, block.size), dtype=complex)
        cols[block, np.arange(block.size)] = 1.0
        cols = cols.reshape((2,) * n + (block.size,))
        for gate in circuit.gates:
            cols = _apply_matrix(cols, gate.matrix, gate.support)
        out[start : start + block.size] = cols.reshape(2**n, -1)[block, np.arange(block.size)]
    return out


# ---------------------------------------------------------------------------
# text format

def parse_circuit(text: str) -> Circuit:
    qubit_count = None
    gates: list[Gate] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0]
        if head == "qubits":
            if qubit_count is not None:
                raise ParseError("duplicate qubits directive", lineno)
            qubit_count = _parse_int(tokens, 1, lineno, "qubit count")
            if len(tokens) != 2 or qubit_count < 1:
                raise ParseError("expected: qubits <n> with n >= 1", lineno)
            continue
        if qubit_count is None:
            raise ParseError("qubits directive must come first", lineno)
        if head in GATE_MATRICES:
            arity = GATE_ARITY[head]
            if len(tokens) != 1 + arity:
                raise ParseError(f"gate {head} takes {arity} qubit argument(s)", lineno)
            support = tuple(
                _parse_qubit(tokens, i + 1, lineno, qubit_count) for i in range(arity)
            )
            try:
                gates.append(Gate(head, support, GATE_MATRICES[head]))
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from exc
        elif head in ("u1", "u2"):
            arity = 1 if head == "u1" else 2
            entries = 2 * (4**arity)
            if len(tokens) != 1 + arity + entries:
                raise ParseError(
                    f"{head} takes {arity} qubit(s) then {entries} reals", lineno
                )
            support = tuple(
                _parse_qubit(tokens, i + 1, lineno, qubit_count) for i in range(arity)
            )
            try:
                reals = [float(tok) for tok in tokens[1 + arity :]]
            except ValueError as exc:
                raise ParseError(f"bad matrix entry: {exc}", lineno) from exc
            flat = np.array(reals[0::2]) + 1j * np.array(reals[1::2])
            matrix = flat.reshape(2**arity, 2**arity)
            # the eigensolvers' own test, so what parses also diagonalizes
            if not is_unitary(matrix):
                raise ParseError(f"{head} matrix is not unitary", lineno)
            try:
                gates.append(Gate(head, support, matrix))
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from exc
        else:
            raise ParseError(f"unknown gate {head!r}", lineno)
    if qubit_count is None:
        raise ParseError("missing qubits directive")
    return Circuit(qubit_count, gates)


def _parse_int(tokens: list[str], pos: int, lineno: int, what: str) -> int:
    try:
        return int(tokens[pos])
    except (IndexError, ValueError) as exc:
        raise ParseError(f"expected integer {what}", lineno) from exc


def _parse_qubit(tokens: list[str], pos: int, lineno: int, qubit_count: int) -> int:
    q = _parse_int(tokens, pos, lineno, "qubit index")
    if q < 0 or q >= qubit_count:
        raise ParseError(f"qubit {q} out of range for {qubit_count} qubits", lineno)
    return q


def _format_real(x: float) -> str:
    return format(float(x), ".17g")


def serialize_circuit(circuit: Circuit) -> str:
    lines = [f"qubits {circuit.qubit_count}"]
    for gate in circuit.gates:
        if gate.name in GATE_MATRICES:
            lines.append(" ".join([gate.name, *map(str, gate.support)]))
        elif gate.name in ("u1", "u2"):
            entries = []
            for amp in gate.matrix.reshape(-1):
                entries.append(_format_real(amp.real))
                entries.append(_format_real(amp.imag))
            lines.append(" ".join([gate.name, *map(str, gate.support), *entries]))
        else:
            raise ValueError(f"gate {gate.name} has no text form")
    return "\n".join(lines) + "\n"


def invert_circuit(circuit: Circuit) -> Circuit:
    """Adjoint circuit: reversed order, each gate conjugate-transposed."""
    gates = []
    for gate in reversed(circuit.gates):
        name = _ADJOINT_NAME.get(gate.name, gate.name)
        gates.append(Gate(name, gate.support, gate.matrix.conj().T))
    return Circuit(circuit.qubit_count, gates)


# ---------------------------------------------------------------------------
# output decomposition

def output_split(circuit: Circuit, x: BasisLabel) -> OutputSplit:
    """Run `circuit` on basis input x and split the output by qubit 0."""
    if len(x.bits) != circuit.qubit_count:
        raise DimensionMismatch(
            f"label has {len(x.bits)} bits, circuit acts on {circuit.qubit_count} qubits"
        )
    state = apply_circuit(circuit, StateVector.from_label(x))
    blocks = state.amplitudes.reshape(2, -1)

    def split_branch(block: np.ndarray) -> tuple[complex, StateVector | None]:
        weight = float(np.linalg.norm(block))
        if weight <= BRANCH_ZERO_TOL:
            return 0.0 + 0.0j, None
        nonzero = np.flatnonzero(np.abs(block) > BRANCH_ZERO_TOL)
        lead = block[nonzero[0]]
        phase = lead / abs(lead)
        alpha = weight * phase
        psi = StateVector(circuit.qubit_count - 1, state.clock_dim, block / alpha)
        return complex(alpha), psi

    alpha0, psi0 = split_branch(blocks[0])
    alpha1, psi1 = split_branch(blocks[1])
    return OutputSplit(alpha0, alpha1, psi0, psi1)
