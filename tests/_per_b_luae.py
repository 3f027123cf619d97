"""Per-basis-state LUAE loops, kept as references for the tests.

The package reads every <b|U|b> it needs from circuits.circuit_diagonal and
maps the branch uniforms to outcomes in one vectorized step.  These loops
run one n-qubit Hadamard test per distinct b instead and draw the same
uniforms in the same order as the package, one scalar call at a time
(unguided: b, then the x branch, then the y branch for each sample, with
b = floor(u * 2^n); guided: x, y pairs), so the two agree bit for bit.
"""
import numpy as np

from eigensample import (
    AverageEstimate,
    BasisLabel,
    hadamard_test_probabilities,
    samples_per_component,
)
from _helpers import basis_loader


def luae_estimate_per_b(circuit, req, rng):
    m = samples_per_component(req.epsilon, req.delta)
    p_x0, p_y0 = hadamard_test_probabilities(circuit, basis_loader(req.b))
    us = rng.random(2 * m)
    xs = np.where(us[0::2] < p_x0, 1.0, -1.0)
    ys = np.where(us[1::2] < p_y0, 1.0, -1.0)
    return AverageEstimate(complex(xs.mean() + 1j * ys.mean()), m)


def luae_unguided_per_b(circuit, epsilon, delta, rng):
    m = samples_per_component(epsilon, delta)
    n = circuit.qubit_count
    cache = {}
    x_total = 0.0
    y_total = 0.0
    for _ in range(m):
        index = int(rng.random() * 2**n)
        if index not in cache:
            bits = format(index, f"0{n}b")
            cache[index] = hadamard_test_probabilities(circuit, basis_loader(BasisLabel(bits)))
        p_x0, p_y0 = cache[index]
        x_total += 1.0 if rng.random() < p_x0 else -1.0
        y_total += 1.0 if rng.random() < p_y0 else -1.0
    lam = complex(x_total / m + 1j * y_total / m)
    return AverageEstimate(lam, m)
