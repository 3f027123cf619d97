"""Reductions from circuit acceptance to spectral problems, plus deciders.

A base circuit U (output read off qubit 0) is wrapped into a marked circuit:

  lhes-copy    U, CNOT copying U's output onto a fresh flag qubit, then U
               backwards.  The flag qubit is prepended as qubit 0, so U's
               qubits shift up by one and basis labels read
               [flag 0][input bits][ancilla zeros].
  pe-reflect   U, Z on the output qubit, then U backwards, on U's own
               register.

Splitting the marked circuit's N gates across an N-step clock gives the
propagator F = sum_j V_j (x) |j><j-1| (cyclic).  Powers of F walk the
history states of the computation; H = F + F-dagger restricted to that
walk has eigenvalues on two interleaved cosine grids whose relative mass
reveals whether the computation accepts.  The clock can also be written in
unary (one-hot) form, which makes every term act on at most four qubits.

The deciders consume sampling oracles through small factory callables so
the exact diagonalization-based oracle and the quantum estimators (draws
from the phase-estimation and Hadamard-test output laws) are
interchangeable.  A factory prepares once; its draws reuse the preparation.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import (
    BasisLabel,
    Circuit,
    Gate,
    StateVector,
    circuit_diagonal,
    circuit_unitary,
    gate_unitary,
    invert_circuit,
    named_gate,
    output_split,
)
from .distributions import exact_distribution, sample_values
from .errors import DimensionMismatch, EmptyCircuit, OracleFailure, TooLarge
from .hamiltonians import LocalHamiltonian, LocalTerm, prepare_lhes
from .phase_estimation import SamplingRequest, prepare_pes

# Largest compact system-times-clock dimension we assemble densely.
DESK_SCALE_LIMIT = 2**13

LHES_VOTES = 200
LHES_DELTA = 1.0 / 100.0
LHES_RETRY_FACTOR = 10
LHES_ACCEPT_FRACTION = 0.25
# Grid values +-1 sit exactly on the survivor-band edge (the only in-band
# points when the clock has three steps); keep draws that graze it.
LHES_BAND_TOL = 1e-9
PES_VOTES = 51
PES_EPSILON = 1.0 / 8.0
PES_DELTA = 1.0 / 100.0
PES_WINDOW = (0.25, 0.75)
LUAE_EPSILON = 1.0 / 4.0
LUAE_DELTA = 1.0 / 100.0


@dataclass
class MarkedCircuit:
    base: Circuit
    full: Circuit
    kind: str
    r_qubit: int | None


def mark_circuit(base: Circuit, kind: str) -> MarkedCircuit:
    """Wrap a base circuit for spectral decision making; see module docs."""
    if not base.gates:
        raise EmptyCircuit("base circuit has no gates")
    if kind == "lhes-copy":
        forward = [
            Gate(g.name, tuple(q + 1 for q in g.support), g.matrix) for g in base.gates
        ]
        shifted = Circuit(base.qubit_count + 1, forward)
        gates = forward + [named_gate("cnot", 1, 0)] + invert_circuit(shifted).gates
        return MarkedCircuit(base, Circuit(base.qubit_count + 1, gates), kind, 0)
    if kind == "pe-reflect":
        gates = base.gates + [named_gate("z", 0)] + invert_circuit(base).gates
        return MarkedCircuit(base, Circuit(base.qubit_count, gates), kind, None)
    raise ValueError(f"unknown marking kind {kind!r}")


@dataclass
class ClockPropagator:
    """F = sum_j V_j (x) |j><j-1| over a cyclic N-step clock register."""

    system_qubits: int
    clock_dim: int
    assembled: np.ndarray


def build_clock_propagator(marked: MarkedCircuit) -> ClockPropagator:
    """Dense F, one system block per gate: gate j lands in clock block
    (j mod N, j - 1) of a (2^n, N, 2^n, N) view of the zeroed matrix."""
    circ = marked.full
    n_sys = circ.qubit_count
    clock_dim = len(circ.gates)
    dim = (2**n_sys) * clock_dim
    if dim > DESK_SCALE_LIMIT:
        raise TooLarge(f"system x clock dimension {dim} exceeds {DESK_SCALE_LIMIT}")
    assembled = np.zeros((dim, dim), dtype=complex)
    blocks = assembled.reshape(2**n_sys, clock_dim, 2**n_sys, clock_dim)
    for step, gate in enumerate(circ.gates, start=1):
        # adding into the zeros turns any -0.0 into +0.0, so F is bitwise the
        # sum over gates of V_j (x) |j><j-1|
        blocks[:, step % clock_dim, :, step - 1] += gate_unitary(gate, n_sys)
    return ClockPropagator(n_sys, clock_dim, assembled)


def build_clock_hamiltonian(propagator: ClockPropagator) -> np.ndarray:
    """H = F + F-dagger on the same system x clock space."""
    return propagator.assembled + propagator.assembled.conj().T


@dataclass
class HistoryAnalysis:
    """History walk of a marked circuit from one basis input.

    phi_states[j] = F^j applied to the start state, for j = 0 .. 2N-1, and
    overlaps is their Gram matrix.  alpha0/alpha1 are the base output's
    branch amplitudes on qubit 0 (circuits.output_split).
    """

    clock_dim: int
    phi_states: list[StateVector]
    overlaps: np.ndarray
    alpha0: complex
    alpha1: complex


def history_start_label(marked: MarkedCircuit, x: BasisLabel) -> BasisLabel:
    if marked.kind != "lhes-copy":
        raise ValueError("history analysis applies to lhes-copy markings")
    if len(x.bits) != marked.base.qubit_count:
        raise DimensionMismatch(
            f"x has {len(x.bits)} bits, base circuit acts on {marked.base.qubit_count}"
        )
    return BasisLabel("0" + x.bits, 0)


def analyze_history(marked: MarkedCircuit, x: BasisLabel) -> HistoryAnalysis:
    propagator = build_clock_propagator(marked)
    clock_dim = propagator.clock_dim
    start = StateVector.from_label(history_start_label(marked, x), clock_dim=clock_dim)
    amps = [start.amplitudes]
    for _ in range(2 * clock_dim - 1):
        amps.append(propagator.assembled @ amps[-1])
    phi_states = [
        StateVector(propagator.system_qubits, clock_dim, a) for a in amps
    ]
    stacked = np.stack(amps)
    overlaps = stacked.conj() @ stacked.T

    split = output_split(marked.base, x)
    return HistoryAnalysis(clock_dim, phi_states, overlaps, split.alpha0, split.alpha1)


# ---------------------------------------------------------------------------
# unary (one-hot) clock encoding

@dataclass
class UnaryClockHamiltonian:
    """H = F + F-dagger with the clock spelled out in one-hot qubits.

    Each propagator term touches the gate's qubits plus the two clock
    qubits of its transition, so every term is at most 4-local.  The
    physical spectrum lives on the span of the one-hot clock states listed
    in legal_clock_states; the encoding conserves clock Hamming weight, so
    that subspace is invariant.
    """

    hamiltonian: LocalHamiltonian
    system_qubits: int
    clock_dim: int
    legal_clock_states: tuple[str, ...]


# |01><10| on the ordered (source, destination) clock-qubit pair.
_CLOCK_HOP = np.zeros((4, 4), dtype=complex)
_CLOCK_HOP[1, 2] = 1.0


def build_unary_clock(marked: MarkedCircuit) -> UnaryClockHamiltonian:
    circ = marked.full
    n_sys = circ.qubit_count
    clock_dim = len(circ.gates)
    terms = []
    for step, gate in enumerate(circ.gates, start=1):
        src = step - 1
        dst = step % clock_dim
        hop = np.kron(gate.matrix, _CLOCK_HOP)
        terms.append(
            LocalTerm(gate.support + (n_sys + src, n_sys + dst), hop + hop.conj().T)
        )
    legal = tuple(
        "".join("1" if i == j else "0" for i in range(clock_dim))
        for j in range(clock_dim)
    )
    return UnaryClockHamiltonian(
        LocalHamiltonian(n_sys + clock_dim, terms), n_sys, clock_dim, legal
    )


def unary_embedding_isometry(system_qubits: int, clock_dim: int) -> np.ndarray:
    """Isometry from the compact system x clock space into the one-hot
    encoding; columns are |s>|e_i> images of |s, i>."""
    rows = (2**system_qubits) * (2**clock_dim)
    cols = (2**system_qubits) * clock_dim
    iso = np.zeros((rows, cols), dtype=complex)
    for s in range(2**system_qubits):
        for i in range(clock_dim):
            onehot = 1 << (clock_dim - 1 - i)
            iso[s * (2**clock_dim) + onehot, s * clock_dim + i] = 1.0
    return iso


def eigenvalue_grids(clock_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The two interleaved eigenvalue grids of H = F + F-dagger."""
    k = np.arange(clock_dim)
    return (
        2.0 * np.cos(2.0 * np.pi * k / clock_dim),
        2.0 * np.cos(2.0 * np.pi * (k + 0.5) / clock_dim),
    )


# ---------------------------------------------------------------------------
# decision procedures

@dataclass
class LhesInstance:
    """Everything an eigenvalue-sampling oracle needs for one decision."""

    marked: MarkedCircuit
    clock_dim: int
    compact_request: SamplingRequest
    unary: UnaryClockHamiltonian
    unary_request: SamplingRequest

    def compact_matrix(self) -> np.ndarray:
        """Dense H = F + F-dagger on the compact system x clock space.  Only
        the exact oracle reads it, so it is assembled on request."""
        return build_clock_hamiltonian(build_clock_propagator(self.marked))


def _padded_input_bits(base: Circuit, x: BasisLabel) -> str:
    if len(x.bits) > base.qubit_count:
        raise DimensionMismatch(
            f"x has {len(x.bits)} bits, base circuit acts on {base.qubit_count}"
        )
    return x.bits + "0" * (base.qubit_count - len(x.bits))


def lhes_epsilon(marked: MarkedCircuit) -> float:
    """LHES decider precision 1/(4 clock_dim); the clock has one step per gate."""
    return 1.0 / (4.0 * len(marked.full.gates))


def build_lhes_instance(base: Circuit, x: BasisLabel) -> LhesInstance:
    bits = _padded_input_bits(base, x)
    marked = mark_circuit(base, "lhes-copy")
    clock_dim = len(marked.full.gates)
    epsilon = lhes_epsilon(marked)
    compact_b = BasisLabel("0" + bits, 0)
    unary_b = BasisLabel("0" + bits + "1" + "0" * (clock_dim - 1), 0)
    unary = build_unary_clock(marked)
    return LhesInstance(
        marked=marked,
        clock_dim=clock_dim,
        compact_request=SamplingRequest(epsilon, LHES_DELTA, compact_b),
        unary=unary,
        unary_request=SamplingRequest(epsilon, LHES_DELTA, unary_b),
    )


def decide_via_lhes(
    base: Circuit,
    x: BasisLabel,
    oracle,
    rng: np.random.Generator,
    votes: int = LHES_VOTES,
) -> bool:
    """Accept when the half-grid share of in-range eigenvalue draws is large.

    Draws with |a| > 1 fall outside the arcs where the two grids stay
    separated and are discarded; a long enough run of consecutive discards
    means the oracle is broken.
    """
    instance = build_lhes_instance(base, x)
    draw = oracle(instance)
    integer_grid, half_grid = eigenvalue_grids(instance.clock_dim)
    survivors = 0
    half_votes = 0
    consecutive_discards = 0
    while survivors < votes:
        a = float(draw(rng))
        if abs(a) > 1.0 + LHES_BAND_TOL:
            consecutive_discards += 1
            if consecutive_discards >= LHES_RETRY_FACTOR * votes:
                raise OracleFailure(
                    f"{consecutive_discards} consecutive draws outside [-1, 1]"
                )
            continue
        consecutive_discards = 0
        if np.min(np.abs(half_grid - a)) < np.min(np.abs(integer_grid - a)):
            half_votes += 1
        survivors += 1
    return half_votes / votes > LHES_ACCEPT_FRACTION


def decide_via_pes(
    base: Circuit,
    x: BasisLabel,
    oracle,
    rng: np.random.Generator,
    votes: int = PES_VOTES,
) -> bool:
    """Majority vote over phase draws landing in the window around 1/2."""
    bits = _padded_input_bits(base, x)
    marked = mark_circuit(base, "pe-reflect")
    req = SamplingRequest(PES_EPSILON, PES_DELTA, BasisLabel(bits))
    draw = oracle(marked.full, req)
    lo, hi = PES_WINDOW
    accepts = sum(1 for _ in range(votes) if lo <= float(draw(rng)) <= hi)
    return 2 * accepts > votes


def decide_via_luae(
    base: Circuit, x: BasisLabel, oracle, rng: np.random.Generator
) -> bool:
    """Accept when the estimated average eigenvalue has negative real part."""
    bits = _padded_input_bits(base, x)
    marked = mark_circuit(base, "pe-reflect")
    req = SamplingRequest(LUAE_EPSILON, LUAE_DELTA, BasisLabel(bits))
    estimate = oracle(marked.full, req)
    return complex(estimate(rng)).real < 0.0


# ---------------------------------------------------------------------------
# oracle factories (exact diagonalization vs quantum estimator laws)

def exact_lhes_oracle(instance: LhesInstance):
    dist = exact_distribution(
        instance.compact_matrix(), instance.compact_request.b, "hermitian"
    )
    return lambda rng: sample_values(dist, 1, rng)[0]


def quantum_lhes_oracle(instance: LhesInstance):
    prep = prepare_lhes(instance.unary.hamiltonian, instance.unary_request)
    return prep.sample


def exact_pes_oracle(circuit: Circuit, req: SamplingRequest):
    dist = exact_distribution(circuit_unitary(circuit), req.b, "unitary")
    return lambda rng: sample_values(dist, 1, rng)[0]


def quantum_pes_oracle(circuit: Circuit, req: SamplingRequest):
    prep = prepare_pes(circuit, req)
    return prep.sample


def exact_luae_oracle(circuit: Circuit, req: SamplingRequest):
    if len(req.b.bits) != circuit.qubit_count:
        raise DimensionMismatch(
            f"b has {len(req.b.bits)} bits, circuit acts on {circuit.qubit_count}"
        )
    lam = complex(circuit_diagonal(circuit, [req.b.basis_index()])[0])
    return lambda rng: lam


def quantum_luae_oracle(circuit: Circuit, req: SamplingRequest):
    from .averages import luae_estimate

    return lambda rng: luae_estimate(circuit, req, rng).lambda_hat


# ---------------------------------------------------------------------------
# report for the reduce command

def reduction_report(marked: MarkedCircuit) -> dict:
    """Clock layout, grids and weight model of a marked circuit; it reads
    sizes off the gate list and assembles no matrix."""
    clock_dim = len(marked.full.gates)
    integer_grid, half_grid = eigenvalue_grids(clock_dim)
    report = {
        "kind": marked.kind,
        "base_gate_count": len(marked.base.gates),
        "clock_dim": clock_dim,
        "system_qubits": marked.full.qubit_count,
        "phase_grids": {
            "integer": [k / clock_dim for k in range(clock_dim)],
            "half": [(k + 0.5) / clock_dim for k in range(clock_dim)],
        },
        "eigenvalue_grids": {
            "integer": [float(v) for v in integer_grid],
            "half": [float(v) for v in half_grid],
        },
        # weights per grid point, affine in a = |alpha0|^2
        "weight_model": {
            "integer_grid": {
                "constant": 1.0 / (2.0 * clock_dim),
                "alpha0_sq_coefficient": 1.0 / (2.0 * clock_dim),
            },
            "half_grid": {
                "constant": 1.0 / (2.0 * clock_dim),
                "alpha0_sq_coefficient": -1.0 / (2.0 * clock_dim),
            },
        },
        "b_layout": {
            "compact": "flag 0, input bits, ancilla zeros; clock index 0",
            "unary": "flag 0, input bits, ancilla zeros, one-hot clock 10...0",
        },
    }
    if marked.kind == "lhes-copy":
        report["flag_qubit"] = marked.r_qubit
    return report
