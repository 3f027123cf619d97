"""Deterministic inputs for the benchmark workloads.

`make_inputs(workload, seed, directory)` writes every circuit and samples
file a workload uses and returns what the correctness checks need.  The
same seed always writes the same bytes.  Each workload fixes the kinds and
sizes of its gates and lets the seed choose only qubits, named gates,
matrices, order and basis labels, so every seed costs the same work.

The reference values (phases, weights, tr(U)/2^n, decider answers) come
from this file's own gate matrices and closed forms, not from the package
under test.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

_SQ2 = 1.0 / np.sqrt(2.0)
NAMED = {
    "h": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.diag([1, -1]).astype(complex),
    "s": np.diag([1, 1j]),
    "sdg": np.diag([1, -1j]),
    "t": np.diag([1, np.exp(1j * np.pi / 4)]),
    "tdg": np.diag([1, np.exp(-1j * np.pi / 4)]),
    "cnot": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex),
    "cz": np.diag([1, 1, 1, -1]).astype(complex),
    "swap": np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex),
}
NAMED_ONE = ("h", "x", "y", "z", "s", "t")
NAMED_TWO = ("cnot", "cz", "swap")
# Gates that map every basis state to one basis state: with them a base
# circuit's output on x is deterministic, so its decider answer is known.
MONOMIAL = ("x", "y", "z", "s", "sdg", "t", "tdg")
_ADJOINT = {"s": "sdg", "sdg": "s", "t": "tdg", "tdg": "t"}

PES_DEEP_QUBITS = 4
PES_DEEP_EPSILON = 2.0**-7
PES_DEEP_DELTA = 0.1
PES_DEEP_SAMPLES = 2000

WIDE_QUBITS = 10
WIDE_SAMPLES = 100_000
WIDE_GRID_BITS = 12  # samples are rounded to the t=12 phase grid
WIDE_VERIFY_EPSILON = 2.0**-WIDE_GRID_BITS
WIDE_VERIFY_DELTA = 0.05
LUAE_U_EPSILON = 0.15
LUAE_U_DELTA = 0.01
BELL_EPSILON = 2.0**-5
BELL_DELTA = 0.1
BELL_SAMPLES = 100_000
BELL = "qubits 2\nh 0\ncnot 0 1\n"
# Ancilla counts t = ceil(log2(1/epsilon)) + ceil(log2(2 + 1/(2 delta))).
PES_DEEP_T = 10
BELL_T = 8


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _gate_line(name: str, qubits: tuple[int, ...], matrix: np.ndarray | None) -> str:
    fields = [name, *map(str, qubits)]
    if matrix is not None:
        for amp in matrix.reshape(-1):
            fields += [format(float(amp.real), ".17g"), format(float(amp.imag), ".17g")]
    return " ".join(fields)


def _circuit_text(qubits: int, gates) -> str:
    return "\n".join([f"qubits {qubits}"] + [_gate_line(*g) for g in gates]) + "\n"


def _matrix(gate) -> np.ndarray:
    name, _, matrix = gate
    return NAMED[name] if matrix is None else matrix


def _adjoint(gate):
    name, qubits, matrix = gate
    if matrix is None:
        return _ADJOINT.get(name, name), qubits, None
    return name, qubits, matrix.conj().T


def _apply(state: np.ndarray, qubits: int, gate) -> np.ndarray:
    """Gate on a statevector; qubit 0 is the most significant bit."""
    support = gate[1]
    k = len(support)
    tensor = state.reshape((2,) * qubits)
    m = _matrix(gate).reshape((2,) * (2 * k))
    out = np.tensordot(m, tensor, axes=(tuple(range(k, 2 * k)), support))
    return np.moveaxis(out, tuple(range(k)), support).reshape(-1)


def unitary(qubits: int, gates) -> np.ndarray:
    """Dense matrix of a gate list, column by column."""
    columns = [np.eye(2**qubits, dtype=complex)[i] for i in range(2**qubits)]
    for gate in gates:
        columns = [_apply(col, qubits, gate) for col in columns]
    return np.array(columns).T


def _random_gate(kind: str, qubits: int, rng: np.random.Generator):
    if kind == "named1":
        return NAMED_ONE[rng.integers(len(NAMED_ONE))], (int(rng.integers(qubits)),), None
    if kind == "u1":
        return "u1", (int(rng.integers(qubits)),), haar_unitary(2, rng)
    a, b = (int(q) for q in rng.choice(qubits, size=2, replace=False))
    if kind == "named2":
        return NAMED_TWO[rng.integers(len(NAMED_TWO))], (a, b), None
    return "u2", (a, b), haar_unitary(4, rng)


def _bits(count: int, rng: np.random.Generator) -> str:
    return "".join(str(int(v)) for v in rng.integers(0, 2, size=count))


def _pes_deep(rng, files):
    # 20 gates: 6 named one-qubit, 4 named two-qubit, 5 Haar u1, 5 Haar u2
    kinds = ["named1"] * 6 + ["named2"] * 4 + ["u1"] * 5 + ["u2"] * 5
    kinds = [kinds[i] for i in rng.permutation(len(kinds))]
    gates = [_random_gate(k, PES_DEEP_QUBITS, rng) for k in kinds]
    files["deep.txt"] = _circuit_text(PES_DEEP_QUBITS, gates)
    return {"b": _bits(PES_DEEP_QUBITS, rng), "gates": len(gates),
            "unitary": unitary(PES_DEEP_QUBITS, gates)}


def _lhes_clock(rng, files):
    """One accepting and one rejecting 1-qubit, 2-gate base, plus input x."""
    x = int(rng.integers(2))
    expected = {}
    while len(expected) < 2:
        if rng.random() < 0.25:
            pair = ("h", "h")
        else:
            pair = tuple(MONOMIAL[i] for i in rng.integers(len(MONOMIAL), size=2))
        state = np.eye(2, dtype=complex)[x]
        for name in pair:
            state = NAMED[name] @ state
        accept = bool(abs(state[1]) ** 2 > 0.5)
        name = "accept.txt" if accept else "reject.txt"
        if name not in expected:
            files[name] = _circuit_text(1, [(g, (0,), None) for g in pair])
            expected[name] = accept
    return {"x": str(x), "expected": expected}


def _wide_draws(rng, files):
    """U = V^dag D V with D a layer of diagonal u1 gates, so the spectrum
    and the weights seen from b have closed forms: the eigenphase of V^dag|k>
    is the sum of the per-qubit diagonal phases picked by the bits of k, and
    its weight is |<k|V|b>|^2.  V puts a Haar u1 on every qubit (so every
    weight is nonzero) and five two-qubit gates among them."""
    n = WIDE_QUBITS
    v_gates = [("u1", (q,), haar_unitary(2, rng)) for q in range(n)]
    v_gates += [_random_gate(k, n, rng) for k in ["u2"] * 3 + ["named2"] * 2]
    v_gates = [v_gates[i] for i in rng.permutation(len(v_gates))]
    diag_phases = rng.random((n, 2))
    d_gates = [
        ("u1", (q,), np.diag(np.exp(2j * np.pi * diag_phases[q])))
        for q in range(n)
    ]
    gates = v_gates + d_gates + [_adjoint(g) for g in reversed(v_gates)]
    files["wide.txt"] = _circuit_text(n, gates)

    b = _bits(n, rng)
    state = np.zeros(2**n, dtype=complex)
    state[int(b, 2)] = 1.0
    for gate in v_gates:
        state = _apply(state, n, gate)
    weights = np.abs(state) ** 2
    weights /= weights.sum()
    bits = (np.arange(2**n)[:, None] >> (n - 1 - np.arange(n))[None, :]) & 1
    phases = diag_phases[np.arange(n)[None, :], bits].sum(axis=1) % 1.0
    trace = np.prod((np.exp(2j * np.pi * diag_phases[:, 0]) + np.exp(2j * np.pi * diag_phases[:, 1])) / 2.0)

    grid = 2**WIDE_GRID_BITS
    draws = rng.choice(phases, size=WIDE_SAMPLES, p=weights)
    draws = (np.round(draws * grid) % grid) / grid
    files["wide_samples.json"] = json.dumps(
        {"epsilon": WIDE_VERIFY_EPSILON, "delta": WIDE_VERIFY_DELTA, "samples": draws.tolist()}
    )
    files["bell.txt"] = BELL
    return {
        "bell_unitary": unitary(2, [("h", (0,), None), ("cnot", (0, 1), None)]),
        "b": b,
        "b_bell": _bits(2, rng),
        "phases": phases,
        "weights": weights,
        "normalized_trace": complex(trace),
        "gates": len(gates),
    }


GENERATORS = {"pes-deep": _pes_deep, "lhes-clock": _lhes_clock, "wide-draws": _wide_draws}


def make_inputs(workload: str, seed: int, directory: Path) -> dict:
    """Write the workload's input files under `directory`; return the
    generation parameters plus a sha256 digest of every file."""
    rng = np.random.default_rng(seed)
    files: dict[str, str] = {}
    params = GENERATORS[workload](rng, files)
    directory.mkdir(parents=True, exist_ok=True)
    digests = {}
    for name, text in files.items():
        data = text.encode()
        (directory / name).write_bytes(data)
        digests[name] = hashlib.sha256(data).hexdigest()
    params["digests"] = digests
    return params
