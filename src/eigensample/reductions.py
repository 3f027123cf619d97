"""Reductions from circuit acceptance to spectral problems, plus deciders.

A base circuit U (output read off qubit 0) is wrapped into a marked circuit:

  lhes-copy    U, CNOT copying U's output onto a fresh flag qubit, then U
               backwards.  The flag qubit is prepended as qubit 0, so U's
               qubits shift up by one and basis labels read
               [flag 0][input bits][ancilla zeros].
  pe-reflect   U, Z on the output qubit, then U backwards, on U's own
               register.

Splitting the marked circuit's N gates across an N-step clock gives the
propagator F = sum_j V_j (x) |j><j-1| (cyclic); build_clock_propagator
returns F as a dense matrix, and build_clock_hamiltonian(F) returns
H = F + F-dagger.  Powers of F walk the history states of the computation;
H restricted to that walk has eigenvalues on two interleaved cosine grids
whose relative mass reveals whether the computation accepts.  The clock
can also be written in unary (one-hot) form, which makes every term act on
at most four qubits.

The deciders consume sampling oracles through factories of (W, request),
so the exact oracles and the quantum estimators (phase-estimation and
Hadamard-test output laws) are interchangeable; each reads W's two-phase
law off <b|W|b> (marked_law).  A factory prepares once; its draws reuse
the preparation.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .circuits import (
    MAX_STATEVECTOR_QUBITS,
    BasisLabel,
    Circuit,
    Gate,
    apply_columns,
    circuit_unitary,
    diagonal_entry,
    invert_circuit,
    named_gate,
    output_split,
)
from .distributions import SpectralDistribution, make_distribution, sample_values, spectral_weights
from .errors import EmptyCircuit, OracleFailure, TooLarge
from .hamiltonians import (
    LAMBDA_MARGIN,
    LocalHamiltonian,
    LocalTerm,
    lhes_sampler,
)
from .phase_estimation import PreparedPhaseEstimation, SamplingRequest, ancilla_bits

if TYPE_CHECKING:
    from .seeding import UniformStream

# Largest compact system-times-clock dimension build_clock_propagator
# assembles densely; no command path builds the propagator.
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
# Re <x|W|x> = 1 - 2p must fall below -LUAE_TIE_TOL to accept, so a rounding
# residue at the tie p = 1/2 rejects; a quantum estimate is a multiple of 1/m.
LUAE_TIE_TOL = 1e-12


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


def build_clock_propagator(marked: MarkedCircuit) -> np.ndarray:
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
        blocks[:, step % clock_dim, :, step - 1] += circuit_unitary(Circuit(n_sys, [gate]))
    return assembled


def build_clock_hamiltonian(propagator: np.ndarray) -> np.ndarray:
    """H = F + F-dagger on the same system x clock space."""
    return propagator + propagator.conj().T


@dataclass
class HistoryAnalysis:
    """History walk of a marked circuit from one basis input.

    phi_states is the walk's (2N, 2^n N) amplitude array: row j is F^j
    applied to the start state, for j = 0 .. 2N-1, at flat index
    basis * N + clock, and overlaps is the rows' Gram matrix.
    alpha0/alpha1 are the base output's branch amplitudes on qubit 0
    (circuits.output_split).
    """

    clock_dim: int
    phi_states: np.ndarray
    overlaps: np.ndarray
    alpha0: complex
    alpha1: complex


def history_start_label(marked: MarkedCircuit, x: BasisLabel) -> BasisLabel:
    if marked.kind != "lhes-copy":
        raise ValueError("history analysis applies to lhes-copy markings")
    x.check_width(marked.base.qubit_count, "base circuit", "x")
    return BasisLabel("0" + x.bits)


def analyze_history(marked: MarkedCircuit, x: BasisLabel) -> HistoryAnalysis:
    """The walk gate by gate: phi_j = V_j ... V_1 |0x> at clock j mod N,
    gate indices taken cyclically, with no clock matrix assembled."""
    start = history_start_label(marked, x).basis_index()
    n, gates = marked.full.qubit_count, marked.full.gates
    clock_dim = len(gates)
    psi = np.zeros((2**n, 1), dtype=complex)
    psi[start] = 1.0
    amps = np.zeros((2 * clock_dim, 2**n, clock_dim), dtype=complex)
    for j in range(2 * clock_dim):
        if j:
            psi = apply_columns(Circuit(n, [gates[(j - 1) % clock_dim]]), psi)
        amps[j, :, j % clock_dim] = psi[:, 0]
    phi_states = amps.reshape(2 * clock_dim, -1)
    overlaps = phi_states.conj() @ phi_states.T

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

def _marked_input(base: Circuit, x: BasisLabel, kind: str) -> tuple[MarkedCircuit, str]:
    """Marked circuit and zero-padded x, refusing a W above MAX_STATEVECTOR_QUBITS
    before x is padded to the base's width."""
    width = base.qubit_count + 1 if kind == "lhes-copy" else base.qubit_count
    if width > MAX_STATEVECTOR_QUBITS:
        raise TooLarge(f"the {kind} marking of a {base.qubit_count}-qubit base "
                       f"exceeds {MAX_STATEVECTOR_QUBITS} qubits")
    bits = x.bits + "0" * (base.qubit_count - len(x.bits))
    BasisLabel(bits).check_width(base.qubit_count, "base circuit", "x")
    return mark_circuit(base, kind), bits


def lhes_epsilon(marked: MarkedCircuit) -> float:
    """LHES decider precision 1/(4 clock_dim); the clock has one step per gate."""
    return 1.0 / (4.0 * len(marked.full.gates))


def decide_via_lhes(
    base: Circuit, x: BasisLabel, oracle, rng: UniformStream
) -> bool:
    """Accept when the half-grid share of in-range eigenvalue draws is large.

    Draws with |a| > 1 fall outside the arcs where the two grids stay
    separated and are discarded; a long enough run of consecutive discards
    means the oracle is broken.
    """
    marked, bits = _marked_input(base, x, "lhes-copy")
    req = SamplingRequest(lhes_epsilon(marked), LHES_DELTA, BasisLabel("0" + bits))
    try:
        draw = oracle(marked.full, req)
    except TooLarge as exc:
        raise TooLarge(f"the clock of a {len(base.gates)}-gate base: {exc}") from exc
    integer_grid, half_grid = eigenvalue_grids(len(marked.full.gates))
    survivors = 0
    half_votes = 0
    consecutive_discards = 0
    while survivors < LHES_VOTES:
        a = float(draw(rng))
        if abs(a) > 1.0 + LHES_BAND_TOL:
            consecutive_discards += 1
            if consecutive_discards >= LHES_RETRY_FACTOR * LHES_VOTES:
                raise OracleFailure(
                    f"{consecutive_discards} consecutive draws outside [-1, 1]"
                )
            continue
        consecutive_discards = 0
        if np.min(np.abs(half_grid - a)) < np.min(np.abs(integer_grid - a)):
            half_votes += 1
        survivors += 1
    return half_votes / LHES_VOTES > LHES_ACCEPT_FRACTION


def decide_via_pes(
    base: Circuit, x: BasisLabel, oracle, rng: UniformStream
) -> bool:
    """Majority vote over phase draws landing in the window around 1/2."""
    marked, bits = _marked_input(base, x, "pe-reflect")
    req = SamplingRequest(PES_EPSILON, PES_DELTA, BasisLabel(bits))
    draw = oracle(marked.full, req)
    lo, hi = PES_WINDOW
    accepts = sum(1 for _ in range(PES_VOTES) if lo <= float(draw(rng)) <= hi)
    return 2 * accepts > PES_VOTES


def decide_via_luae(
    base: Circuit, x: BasisLabel, oracle, rng: UniformStream
) -> bool:
    """Accept when the estimate's real part is below -LUAE_TIE_TOL (p > 1/2)."""
    marked, bits = _marked_input(base, x, "pe-reflect")
    req = SamplingRequest(LUAE_EPSILON, LUAE_DELTA, BasisLabel(bits))
    estimate = oracle(marked.full, req)
    return complex(estimate(rng)).real < -LUAE_TIE_TOL


# ---------------------------------------------------------------------------
# oracle factories (exact spectral laws vs quantum estimator laws)

def marked_law(circuit: Circuit, b: BasisLabel) -> SpectralDistribution:
    """Phase law of a marked circuit W from |b>: W^2 = I (trusted, not
    tested), so its phases are 0 and 1/2 with weights (1 +- <b|W|b>)/2."""
    a = diagonal_entry(circuit, b).real
    return make_distribution([0.0, 0.5], [(1.0 + a) / 2.0, (1.0 - a) / 2.0], "circular")


def exact_lhes_oracle(circuit: Circuit, req: SamplingRequest):
    """Law of H = F + F-dagger from |b, 0>, read off the law of W, the
    marked circuit: F^N is W on each clock slice, so an eigenvector e_theta
    of W gives N eigenvectors of F with eigenvalues e^{2 pi i (theta+k)/N},
    each holding 1/N of e_theta's weight."""
    law = marked_law(circuit, req.b)
    clock_dim = len(circuit.gates)
    angles = 2.0 * np.pi * (np.add.outer(law.values(), np.arange(clock_dim)) / clock_dim)
    weights = np.repeat(np.array(law.weights()) / clock_dim, clock_dim)
    dist = make_distribution(2.0 * np.cos(angles.ravel()), weights, "absolute")
    return lambda rng: sample_values(dist, 1, rng)[0]


def _ring_slice(clock_dim: int, angle: float, phase: float) -> np.ndarray:
    """One Trotter slice on an N-site clock ring: rotations e^{i angle (|j><j-1|
    + h.c.)} of sites (j-1, j) in gate order, bond (N-1, 0) times e^{2 pi i phase}."""
    c, s = np.cos(angle), np.sin(angle)
    ring = np.eye(clock_dim, dtype=complex)
    for src in range(clock_dim):
        dst = (src + 1) % clock_dim
        bond = np.exp(2j * np.pi * phase) if dst == 0 else 1.0
        ring[[src, dst]] = [[c, 1j * s * np.conj(bond)], [1j * s * bond, c]] @ ring[[src, dst]]
    return ring


def quantum_lhes_oracle(circuit: Circuit, req: SamplingRequest):
    """Law of hamiltonians.prepare_lhes on the unary clock (build_unary_clock)
    from |b>|10...0>, on two N-site clock rings.  With u_k = V_k...V_1|b> and
    w_k = V_k...V_1 W|b> at clock k, gate j maps slot j-1 onto slot j, and
    the closing gate maps (u, w) to (w, u) since W^2 = I.  So u +- w span one
    ring per phase theta of W, weighted as in marked_law, whose closing bond
    carries e^{2 pi i theta}.  Every unary term has norm 1: lambda_cap is 4N
    (plus margin), and a Trotter factor rotates two ring sites."""
    clock_dim = len(circuit.gates)
    cap = 4.0 * clock_dim * (1.0 + LAMBDA_MARGIN)

    def slice_law(t, steps):
        # at the decider's epsilon, t <= MAX_ESTIMATOR_BITS means N <= 89, so
        # the kernel work of 2N phases stays under MAX_KERNEL_WORK
        phases, weights = [], []
        for theta, weight in marked_law(circuit, req.b).points:
            ring = _ring_slice(clock_dim, 2.0 * np.pi / steps / cap, theta)
            ring_phases, ring_weights = spectral_weights(ring, 0, "unitary")
            phases.append(ring_phases)
            weights.append(weight * ring_weights)
        return np.concatenate(phases), np.concatenate(weights)

    return lhes_sampler(cap, clock_dim / cap, req, slice_law).sample


def exact_pes_oracle(circuit: Circuit, req: SamplingRequest):
    dist = marked_law(circuit, req.b)
    return lambda rng: sample_values(dist, 1, rng)[0]


def quantum_pes_oracle(circuit: Circuit, req: SamplingRequest):
    """Fejer law of marked_law: all mass on outcomes 0 and 2^(t-1)."""
    law, t = marked_law(circuit, req.b), ancilla_bits(req.epsilon, req.delta)
    return PreparedPhaseEstimation(t, law.values(), law.weights()).sample


def exact_luae_oracle(circuit: Circuit, req: SamplingRequest):
    lam = diagonal_entry(circuit, req.b)
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
