"""Reference computations the correctness checks compare reports against.

None of this calls the package under test; it works from the unitaries
that inputs.py builds with its own gate matrices.
"""
from __future__ import annotations

import math

import numpy as np

# Eigenvalues of a unitary closer than this form one eigenspace.
CLUSTER_TOL = 1e-9
# False-alarm probability of the DKW test on sampled phases.
DKW_ALPHA = 1e-9
# Half-width of the band in which a transport verdict is left undecided:
# phase distances this close to epsilon, and Hall margins this close to 0.
EDGE_BAND = 1e-9
MASS_BAND = 1e-9


def spectral_law(unitary: np.ndarray, b_index: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenphases in [0, 1) of `unitary` and their weights seen from |b>.

    Eigenvectors of one (near-)degenerate eigenvalue are orthonormalized
    together, so each weight is the whole projector's <b|P|b>."""
    values, vectors = np.linalg.eig(unitary)
    phases = np.angle(values) / (2.0 * np.pi) % 1.0
    order = np.argsort(phases)
    phases, vectors = phases[order], vectors[:, order]
    out_phases, out_weights = [], []
    start = 0
    while start < len(phases):
        stop = start + 1
        while stop < len(phases) and phases[stop] - phases[stop - 1] <= CLUSTER_TOL:
            stop += 1
        basis, _ = np.linalg.qr(vectors[:, start:stop])
        out_phases.append(float(phases[start:stop].mean()))
        out_weights.append(float(np.sum(np.abs(basis[b_index, :]) ** 2)))
        start = stop
    return np.array(out_phases), np.array(out_weights)


def estimator_law(unitary: np.ndarray, b_index: int, t: int) -> np.ndarray:
    """Outcome law of t-bit phase estimation started from |b>.

    Before the inverse Fourier transform the state is
    sum_y |y> (x) U^y |b> / sqrt(2^t), so the amplitude block of outcome x is
    the discrete Fourier transform over y of U^y |b>, divided by 2^t."""
    dim = 2**t
    powers = np.empty((dim, unitary.shape[0]), dtype=complex)
    powers[0] = 0.0
    powers[0, b_index] = 1.0
    for y in range(1, dim):
        powers[y] = unitary @ powers[y - 1]
    blocks = np.fft.fft(powers, axis=0) / dim
    return np.sum(np.abs(blocks) ** 2, axis=1)


def dkw_distance(samples, law: np.ndarray, t: int) -> tuple[float, float]:
    """Kolmogorov distance between sampled phases and the outcome law, and
    the Dvoretzky-Kiefer-Wolfowitz threshold it exceeds with probability
    at most DKW_ALPHA when the samples are drawn from `law`."""
    raws = np.rint(np.asarray(samples) * 2**t).astype(int)
    counts = np.bincount(raws, minlength=len(law))
    gap = np.max(np.abs(np.cumsum(counts) / len(raws) - np.cumsum(law)))
    return float(gap), math.sqrt(math.log(2.0 / DKW_ALPHA) / (2.0 * len(raws)))


def transport_verdict(samples, phases, weights, epsilon: float, delta: float) -> bool | None:
    """Does the empirical law of `samples` (epsilon, delta)-approximate the
    circular law (phases, weights)?  True or False when the answer holds
    throughout the tolerance bands, None when it turns inside them.

    Hall's condition decides it: every set S of targets needs
    sum_S (1 - delta) w_j <= mass of samples within epsilon of S.  Each
    target's epsilon-ball is an arc, so contiguous runs of targets suffice:
    a run whose balls leave gaps is implied by its gap-free pieces, and for
    a gap-free run the neighbourhood is the one arc from its first target's
    ball to its last."""
    values, counts = np.unique(np.asarray(samples, dtype=float) % 1.0, return_counts=True)
    supply = counts / counts.sum()
    order = np.argsort(phases)
    phases = np.asarray(phases, dtype=float)[order]
    demand = (1.0 - min(delta, 1.0)) * np.asarray(weights, dtype=float)[order]
    k = len(phases)
    # Sample values over three turns, so any arc of length < 1 is one slice.
    turns = np.concatenate([values - 1.0, values, values + 1.0])
    supply_prefix = np.concatenate([[0.0], np.cumsum(np.tile(supply, 3))])
    demand_prefix = np.concatenate([[0.0], np.cumsum(np.tile(demand, 2))])
    starts = phases
    margins = {}
    for widen in (EDGE_BAND, -EDGE_BAND):
        eps = epsilon + widen
        worst = np.inf
        for length in range(1, k + 1):
            ends = np.concatenate([phases, phases + 1.0])[length - 1 : length - 1 + k]
            lo, hi = starts - eps, ends + eps
            inside = (supply_prefix[np.searchsorted(turns, hi, side="right")]
                      - supply_prefix[np.searchsorted(turns, lo, side="left")])
            inside = np.where(hi - lo >= 1.0, 1.0, inside)
            need = demand_prefix[length : length + k] - demand_prefix[:k]
            worst = min(worst, float(np.min(inside - need)))
        margins[widen] = worst
    if margins[-EDGE_BAND] >= MASS_BAND:
        return True
    if margins[EDGE_BAND] < -MASS_BAND:
        return False
    return None
