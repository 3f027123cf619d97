"""Per-basis-state unguided LUAE loop, kept as a reference for the tests.

The package reads every <b|U|b> it needs from one blocked pass over basis
columns.  This module runs one n-qubit Hadamard test per distinct sampled b
instead, drawing b, then the x branch, then the y branch for each sample,
exactly as the package does, so the two agree bit for bit.
"""
from eigensample import (
    AverageEstimate,
    BasisLabel,
    basis_loader,
    hadamard_test_probabilities,
    samples_per_component,
)


def luae_unguided_per_b(circuit, epsilon, delta, rng):
    m = samples_per_component(epsilon, delta)
    n = circuit.qubit_count
    cache = {}
    x_total = 0.0
    y_total = 0.0
    for _ in range(m):
        index = int(rng.integers(0, 2**n))
        if index not in cache:
            bits = format(index, f"0{n}b")
            cache[index] = hadamard_test_probabilities(circuit, basis_loader(BasisLabel(bits)))
        p_x0, p_y0 = cache[index]
        x_total += 1.0 if rng.random() < p_x0 else -1.0
        y_total += 1.0 if rng.random() < p_y0 else -1.0
    lam = complex(x_total / m + 1j * y_total / m)
    return AverageEstimate(lam, m, epsilon, delta)
