"""Gate-level circuit model and statevector simulator.

Basis convention: qubit 0 is the MOST significant bit of the basis index.

Text format (UTF-8, line based, '#' starts a comment):

    qubits <n>
    <name> <q...>          named gate from the fixed set
    u1 <q> <8 reals>       custom 2x2, row-major re/im pairs
    u2 <q1> <q2> <32 reals>  custom 4x4 on the ordered qubit pair

Named gates: h x y z s sdg t tdg cnot cz swap.  For two-qubit gates the
first listed qubit is the more significant index of the 4-dim gate basis
(control first for cnot/cz).  One reader serves this format and the
Hamiltonian format of hamiltonians: read_register owns the line loop, the
comment rule and the qubits header and hands each later line to the
format's directive; read_operator decodes k qubits then 2 * 4^k reals, and
operator_line writes such a line back.

Simulation is one pass, _circuit_pass, behind three entry points:
apply_columns for states (any given columns, a state being one column of
amplitudes), circuit_unitary for the dense matrix and circuit_diagonal, the
one reader of entries <b|U|b>, which diagonal_entry reads for one checked
label.  The pass fuses consecutive gates greedily into blocks on at most
FUSED_QUBITS = 3 qubits, then pushes the input columns through the fused
blocks BLOCK_AMPLITUDES = 2^15 amplitudes at a time, so each block of columns
stays in cache for the whole circuit (gate fusion and cache
blocking, Häner & Steiger, SC 2017).  On a 10-qubit, 40-gate circuit (17
fused blocks), one thread of a 2-core x86-64 box, circuit_unitary takes
0.09-0.11 s in a fresh process, against 0.25-0.29 s for one tensordot pass
per gate over the whole 2^n x 2^n tensor.

circuit_components splits a circuit into the groups of qubits that its gates
connect; its unitary is the tensor product of theirs, so circuit_diagonal
and a spectral law (distributions.spectral_weights) go group by group.

output_split runs a circuit on one basis input and returns an OutputSplit,
the two branch amplitudes alpha0, alpha1 of the output on qubit 0.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, EigensampleError, ParseError, TooLarge
from .linalg import is_unitary

# Magnitude below which an output-branch amplitude is treated as absent.
BRANCH_ZERO_TOL = 1e-12
MAX_DENSE_QUBITS = 12
# Widest register simulated as statevector columns: 256 MiB per complex column.
MAX_STATEVECTOR_QUBITS = 24
# Amplitudes one circuit pass simulates at once (512 KiB of complex128): the
# fastest of 2^13..2^18 timed on 8-, 10- and 12-qubit circuits, one thread.
BLOCK_AMPLITUDES = 2**15
# Widest fused block: consecutive gates merge while their supports together
# span at most this many qubits.
FUSED_QUBITS = 3

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


@dataclass(eq=False)
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


def named_gate(name: str, *qubits: int) -> Gate:
    return Gate(name, tuple(qubits), GATE_MATRICES[name])


@dataclass(eq=False)
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


@dataclass(frozen=True)
class BasisLabel:
    """A computational basis point: one bit per qubit, qubit 0 first."""

    bits: str

    def __post_init__(self):
        if any(c not in "01" for c in self.bits):
            raise ValueError(f"bits must be 0/1, got {self.bits!r}")

    def check_width(self, qubit_count: int, register: str, name: str = "b") -> None:
        """Raise DimensionMismatch unless the label has one bit per qubit of
        the qubit_count-qubit register; name and register word the message."""
        if len(self.bits) != qubit_count:
            raise DimensionMismatch(
                f"{name} has {len(self.bits)} bits, {register} acts on {qubit_count}"
            )

    @property
    def qubit_count(self) -> int:
        return len(self.bits)

    def basis_index(self) -> int:
        return int(self.bits, 2) if self.bits else 0


@dataclass
class OutputSplit:
    """Branch amplitudes of a circuit output on qubit 0: each alpha has its
    branch's norm and the phase of its first amplitude above BRANCH_ZERO_TOL
    (0 for a branch with none)."""

    alpha0: complex
    alpha1: complex


# ---------------------------------------------------------------------------
# kernels

def _apply_matrix(tensor: np.ndarray, matrix: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    k = len(axes)
    m = matrix.reshape((2,) * (2 * k))
    out = np.tensordot(m, tensor, axes=(tuple(range(k, 2 * k)), axes))
    return np.moveaxis(out, tuple(range(k)), axes)


def check_statevector_width(qubit_count: int) -> None:
    """Raise TooLarge for registers wider than MAX_STATEVECTOR_QUBITS."""
    if qubit_count > MAX_STATEVECTOR_QUBITS:
        raise TooLarge(
            f"statevector simulation limited to {MAX_STATEVECTOR_QUBITS} qubits, "
            f"circuit has {qubit_count}"
        )


def check_dense_width(qubit_count: int, register: str) -> None:
    """Raise TooLarge for dense matrices wider than MAX_DENSE_QUBITS;
    register ("circuit", "Hamiltonian") words the message."""
    if qubit_count > MAX_DENSE_QUBITS:
        raise TooLarge(
            f"dense matrices limited to {MAX_DENSE_QUBITS} qubits, "
            f"{register} has {qubit_count}"
        )


def _fuse(gates: list[Gate]) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """Greedy fusion into (support, matrix) blocks: consecutive gates merge
    while their supports together span at most FUSED_QUBITS qubits.  A block
    of one gate keeps that gate's matrix and qubit order; a merged block acts
    on its qubits in ascending order.  A gate wider than FUSED_QUBITS forms a
    block of its own."""
    blocks = []
    run: list[Gate] = []
    span: set[int] = set()
    for gate in gates:
        if run and len(span.union(gate.support)) > FUSED_QUBITS:
            blocks.append(_fused_block(run, span))
            run, span = [], set()
        run.append(gate)
        span.update(gate.support)
    if run:
        blocks.append(_fused_block(run, span))
    return blocks


def _fused_block(run: list[Gate], span: set[int]) -> tuple[tuple[int, ...], np.ndarray]:
    if len(run) == 1:
        return run[0].support, run[0].matrix
    support = tuple(sorted(span))
    k = len(support)
    block = np.eye(2**k, dtype=complex).reshape((2,) * k + (2**k,))
    for gate in run:
        block = _apply_matrix(block, gate.matrix, tuple(support.index(q) for q in gate.support))
    return support, block.reshape(2**k, 2**k)


def _circuit_pass(circuit: Circuit, count: int, load):
    """Yield (cols, U @ load(cols)) for slices cols of range(count), where
    U is the circuit's unitary and load(cols) returns the input columns as
    a (2^n, len(cols)) array.

    The gates are fused once (_fuse), then each block of columns,
    BLOCK_AMPLITUDES amplitudes but at least one column, goes through every
    fused block while it stays in cache.  Registers wider than
    MAX_STATEVECTOR_QUBITS raise TooLarge before the first load.
    """
    n = circuit.qubit_count
    check_statevector_width(n)
    blocks = _fuse(circuit.gates)
    width = max(1, BLOCK_AMPLITUDES >> n)
    for start in range(0, count, width):
        cols = slice(start, min(start + width, count))
        tensor = load(cols).reshape((2,) * n + (-1,))
        for support, matrix in blocks:
            tensor = _apply_matrix(tensor, matrix, support)
        yield cols, tensor.reshape(2**n, -1)


def _basis_columns(dim: int, indices: np.ndarray) -> np.ndarray:
    cols = np.zeros((dim, indices.size), dtype=complex)
    cols[indices, np.arange(indices.size)] = 1.0
    return cols


def apply_columns(circuit: Circuit, columns: np.ndarray) -> np.ndarray:
    """U @ columns for the circuit's unitary U and a (2^n, k) array, from
    one circuit pass; no dense unitary is formed.  Columns of any other
    height raise DimensionMismatch."""
    n = circuit.qubit_count
    if columns.shape[0] != 2**n:
        raise DimensionMismatch(f"columns are {columns.shape[0]} tall, {n} qubits need {2**n}")
    out = np.empty_like(columns, dtype=complex)
    for cols, block in _circuit_pass(circuit, columns.shape[1], lambda cols: columns[:, cols]):
        out[:, cols] = block
    return out


def circuit_components(circuit: Circuit) -> list[tuple[tuple[int, ...], Circuit]]:
    """The circuit's qubit-interaction components: the unions of gate
    supports that share a qubit, as (qubits, circuit) pairs in order of
    their lowest qubit.  Each component's qubits are ascending, and its
    circuit holds that component's gates in their original order, qubit q
    relabelled qubits.index(q).  The unitary is the tensor product of the
    components' unitaries with the identity on qubits that no gate touches,
    which belong to no component.  A gate on no qubit (a global phase) joins
    qubit 0's component."""
    groups: list[set[int]] = []
    for gate in circuit.gates:
        joined, apart = set(gate.support or (0,)), []
        for g in groups:
            if g & joined:
                joined |= g
            else:
                apart.append(g)
        groups = apart + [joined]
    components = []
    for qubits in sorted(tuple(sorted(g)) for g in groups):
        index = {q: i for i, q in enumerate(qubits)}
        gates = [
            Gate(g.name, tuple(index[q] for q in g.support), g.matrix)
            for g in circuit.gates
            if (g.support or (0,))[0] in index
        ]
        components.append((qubits, Circuit(len(qubits), gates)))
    return components


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Dense unitary of the whole circuit (desk scale only)."""
    check_dense_width(circuit.qubit_count, "circuit")
    dim = 2**circuit.qubit_count
    out = np.empty((dim, dim), dtype=complex)
    load = lambda cols: _basis_columns(dim, np.arange(cols.start, cols.stop))
    for cols, block in _circuit_pass(circuit, dim, load):
        out[:, cols] = block
    return out


def group_index(indices, qubits, qubit_count: int):
    """Basis indices (ints or an int array) read on a group of the register's
    qubits: their bits on `qubits`, the first the most significant."""
    local = 0
    for q in qubits:
        local = (local << 1) | ((indices >> (qubit_count - 1 - q)) & 1)
    return local


def circuit_diagonal(circuit: Circuit, indices) -> np.ndarray:
    """Diagonal entries <b|U|b> of the circuit's unitary for basis indices b.

    Each component passes its distinct group_index keys once, column
    blocked, and the entries are multiplied in component order from 1, so
    no pass is wider than the widest component; idle qubits give 1.  A
    circuit connected on every qubit is one component read over the
    distinct indices.  Circuits wider than MAX_STATEVECTOR_QUBITS raise
    TooLarge first; an index outside [0, 2^n) raises DimensionMismatch.
    """
    n = circuit.qubit_count
    check_statevector_width(n)
    indices = np.asarray(indices, dtype=np.int64).reshape(-1)
    if indices.size and (indices.min() < 0 or indices.max() >= 2**n):
        raise DimensionMismatch(f"basis indices must lie in [0, {2**n}) for {n} qubits")
    out = np.ones(indices.size, dtype=complex)
    for qubits, sub in circuit_components(circuit):
        keys, where = np.unique(group_index(indices, qubits, n), return_inverse=True)
        out *= _diagonal_pass(sub, keys)[where]
    return out


def _diagonal_pass(circuit: Circuit, indices: np.ndarray) -> np.ndarray:
    """<b|U|b> for the given indices from one column-blocked circuit pass."""
    out = np.empty(indices.size, dtype=complex)
    load = lambda cols: _basis_columns(2**circuit.qubit_count, indices[cols])
    for cols, block in _circuit_pass(circuit, indices.size, load):
        out[cols] = block[indices[cols], np.arange(block.shape[1])]
    return out


def diagonal_entry(circuit: Circuit, b: BasisLabel) -> complex:
    """<b|U|b> from circuit_diagonal, for a b with one bit per qubit.  b on
    its own: on a circuit connected on every qubit, a one-column pass
    matches a Hadamard test on |b> bit for bit, while a block shared with
    other indices can differ in the last place."""
    b.check_width(circuit.qubit_count, "circuit")
    return complex(circuit_diagonal(circuit, [b.basis_index()])[0])


# ---------------------------------------------------------------------------
# text format

def text_lines(text: str):
    """(line number, tokens) of each line of the text format that holds
    more than a comment: '#' starts a comment, which runs to the line's end."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            yield lineno, tokens


def read_register(text: str, directive) -> int:
    """Read a circuit or Hamiltonian file; return its qubit count n.

    The first line is `qubits <n>` with n >= 1.  Every later line goes to
    directive(tokens, n), and a ValueError or package error that it raises
    becomes a ParseError naming the line."""
    qubit_count = None
    for lineno, tokens in text_lines(text):
        if tokens[0] == "qubits":
            if qubit_count is not None:
                raise ParseError("duplicate qubits directive", lineno)
            qubit_count = _read_int(tokens, 1, "qubit count", lineno)
            if len(tokens) != 2 or qubit_count < 1:
                raise ParseError("expected: qubits <n> with n >= 1", lineno)
        elif qubit_count is None:
            raise ParseError("qubits directive must come first", lineno)
        else:
            try:
                directive(tokens, qubit_count)
            except (ValueError, EigensampleError) as exc:
                raise ParseError(str(exc), lineno) from exc
    if qubit_count is None:
        raise ParseError("missing qubits directive")
    return qubit_count


def _read_int(tokens: list[str], pos: int, what: str, lineno: int | None = None) -> int:
    try:
        return int(tokens[pos])
    except (IndexError, ValueError) as exc:
        raise ParseError(f"expected integer {what}", lineno) from exc


def _read_qubits(tokens: list[str], qubit_count: int) -> tuple[int, ...]:
    """Each token as a qubit index of a qubit_count-qubit register."""
    support = []
    for pos in range(len(tokens)):
        q = _read_int(tokens, pos, "qubit index")
        if q < 0 or q >= qubit_count:
            raise ParseError(f"qubit {q} out of range for {qubit_count} qubits")
        support.append(q)
    return tuple(support)


def read_operator(
    tokens: list[str], k: int, qubit_count: int, what: str
) -> tuple[tuple[int, ...], np.ndarray]:
    """(support, matrix) from k qubit indices, then 2 * 4^k reals: the
    2^k x 2^k matrix's entries in row-major order, each as a re/im pair."""
    entries = 2 * 4**k
    if len(tokens) != k + entries:
        raise ParseError(f"{what} takes {k} qubits then {entries} reals")
    support = _read_qubits(tokens[:k], qubit_count)
    try:
        reals = np.array([float(tok) for tok in tokens[k:]], dtype=float)
    except ValueError as exc:
        raise ParseError(f"bad matrix entry: {exc}") from exc
    # refused here: the unitarity and Hermiticity tests warn on inf and misname nan
    if not np.isfinite(reals).all():
        raise ParseError(f"{what} matrix entries must be finite")
    # re/im pairs are complex128's memory layout, signed zeros included
    flat = reals.view(np.complex128)
    return support, flat.reshape(2**k, 2**k)


def operator_line(fields, matrix: np.ndarray) -> str:
    """One line of the text format: the fields, then the matrix's entries
    in row-major order as re/im pairs at 17 significant digits."""
    amps = matrix.reshape(-1).tolist()
    pairs = (format(x, ".17g") for amp in amps for x in (amp.real, amp.imag))
    return " ".join([*map(str, fields), *pairs])


def parse_circuit(text: str) -> Circuit:
    gates: list[Gate] = []

    def directive(tokens: list[str], qubit_count: int) -> None:
        head = tokens[0]
        if head in GATE_MATRICES:
            arity = GATE_ARITY[head]
            if len(tokens) != 1 + arity:
                raise ParseError(f"gate {head} takes {arity} qubit argument(s)")
            support, matrix = _read_qubits(tokens[1:], qubit_count), GATE_MATRICES[head]
        elif head in ("u1", "u2"):
            support, matrix = read_operator(tokens[1:], int(head[1]), qubit_count, head)
            # the eigensolvers' own test, so what parses also diagonalizes
            if not is_unitary(matrix):
                raise ParseError(f"{head} matrix is not unitary")
        else:
            raise ParseError(f"unknown gate {head!r}")
        gates.append(Gate(head, support, matrix))

    return Circuit(read_register(text, directive), gates)


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
    x.check_width(circuit.qubit_count, "circuit", "x")
    column = _basis_columns(2**circuit.qubit_count, np.array([x.basis_index()]))
    blocks = apply_columns(circuit, column).reshape(2, -1)

    def branch_amplitude(block: np.ndarray) -> complex:
        weight = float(np.linalg.norm(block))
        if weight <= BRANCH_ZERO_TOL:
            return 0.0 + 0.0j
        lead = block[np.flatnonzero(np.abs(block) > BRANCH_ZERO_TOL)[0]]
        return complex(weight * (lead / abs(lead)))

    return OutputSplit(branch_amplitude(blocks[0]), branch_amplitude(blocks[1]))
