"""Literal gate-level phase estimator, kept as a reference for the tests.

The package builds the estimator's output law in closed form from one
eigendecomposition.  This module runs the textbook circuit instead: t
ancillas put into uniform superposition by Hadamards, controlled powers
U^(2^j) applied gate by gate, an exact inverse Fourier transform on the
ancillas, then the ancilla Born probabilities.  That is 2^t - 1 controlled
circuit passes over a (t + n)-qubit state, so tests use it at small t only.
A state is its 1-D array of 2^n amplitudes.
"""
import numpy as np

from eigensample import Circuit, DimensionMismatch, Gate, named_gate
from eigensample.circuits import _apply_matrix, apply_columns


def qubit_count(state):
    """n for a state of 2^n amplitudes."""
    return state.size.bit_length() - 1


def qubit_axes(state):
    """The amplitudes with one axis per qubit."""
    return state.reshape((2,) * qubit_count(state))


def apply_gate_controlled(state, gate, control):
    """Apply `gate` only on the control=1 slice of the state.

    Equivalent to the block unitary |0><0| (x) I + |1><1| (x) G with the
    control as the block index.
    """
    if control in gate.support:
        raise ValueError("control qubit overlaps gate support")
    if control >= qubit_count(state):
        raise DimensionMismatch("control qubit beyond register")
    tensor = qubit_axes(state).copy()
    slicer = [slice(None)] * tensor.ndim
    slicer[control] = slice(1, 2)
    sub = tensor[tuple(slicer)]
    tensor[tuple(slicer)] = _apply_matrix(sub, gate.matrix, gate.support)
    return tensor.reshape(-1)


def controlled_power_apply(circuit, control, power, state):
    """Apply `circuit` `power` times, gate by gate, conditioned on `control`.

    The circuit targets the LAST circuit.qubit_count qubits of the state;
    the control must lie outside that window.
    """
    if power < 1:
        raise ValueError("power must be a positive integer")
    offset = qubit_count(state) - circuit.qubit_count
    if offset < 0:
        raise DimensionMismatch("state smaller than circuit register")
    if not (0 <= control < qubit_count(state)) or control >= offset:
        raise ValueError("control qubit must sit outside the circuit's register")
    shifted = [
        Gate(g.name, tuple(q + offset for q in g.support), g.matrix)
        for g in circuit.gates
    ]
    for _ in range(power):
        for gate in shifted:
            state = apply_gate_controlled(state, gate, control)
    return state


def qft_apply(state, register, inverse=False):
    """Exact Fourier transform on the listed qubits, matrix-free via FFT.

    register[0] is the most significant bit of the transformed index.
    """
    register = tuple(int(q) for q in register)
    if len(set(register)) != len(register):
        raise ValueError("register qubits must be distinct")
    if any(q < 0 or q >= qubit_count(state) for q in register):
        raise DimensionMismatch("register qubit beyond state")
    t = len(register)
    moved = np.moveaxis(qubit_axes(state), register, tuple(range(t)))
    shape = moved.shape
    arr = moved.reshape(2**t, -1)
    if inverse:
        out = np.fft.fft(arr, axis=0, norm="ortho")
    else:
        out = np.fft.ifft(arr, axis=0, norm="ortho")
    out = np.moveaxis(out.reshape(shape), tuple(range(t)), register)
    return out.reshape(-1)


def final_state(circuit, system_state, t):
    """Pre-measurement state of the estimator; ancillas are the t most
    significant qubits, ancilla j controlling the power 2^(t-1-j)."""
    if circuit.qubit_count != qubit_count(system_state):
        raise DimensionMismatch("system state does not match circuit register")
    dim_rest = system_state.size
    state = np.zeros(((2**t) * dim_rest, 1), dtype=complex)
    state[:dim_rest, 0] = system_state
    hadamards = [named_gate("h", q) for q in range(t)]
    state = apply_columns(Circuit(t + qubit_count(system_state), hadamards), state)[:, 0]
    for j in range(t):
        state = controlled_power_apply(circuit, j, 2 ** (t - 1 - j), state)
    return qft_apply(state, range(t), inverse=True)


def ancilla_law(circuit, system_state, t):
    """Born probabilities of the 2^t ancilla outcomes."""
    rows = final_state(circuit, system_state, t).reshape(2**t, -1)
    return np.sum(np.abs(rows) ** 2, axis=1)
