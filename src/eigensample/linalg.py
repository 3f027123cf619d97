"""Dense complex linear algebra used throughout the package.

Everything here works on plain numpy complex arrays.  The unitary
eigensolver is a two-stage reduction to Hermitian problems so that the
returned eigenvectors are orthonormal even on degenerate eigenspaces,
which plain nonsymmetric eigensolvers do not guarantee.  Its one core,
unitary_eig_in_place, owns its dense buffer and takes U·V from a callback,
so a circuit's law never holds U beside its Hermitian part; unitary_eig is
the front door for a matrix the caller keeps.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotHermitian, NotUnitary

# Tolerances are module constants read at each call; tests reference them by name.
HERMITIAN_TOL = 1e-10
UNITARY_TOL = 1e-10
# Consecutive eigenvalues of the Hermitian part closer than this are treated
# as one eigenspace in unitary_eig.  The Hermitian part of a unitary has
# spectrum inside [-1, 1], so an absolute gap is the right scale.
DEGENERACY_GAP = 1e-8


def is_hermitian(a: np.ndarray) -> bool:
    a = np.asarray(a)
    square = a.ndim == 2 and a.shape[0] == a.shape[1]
    return square and np.max(np.abs(a - a.conj().T)) <= HERMITIAN_TOL


def is_unitary(a: np.ndarray) -> bool:
    """max |A†A - I| <= UNITARY_TOL, with I taken off the product's diagonal."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return False
    gram = a.conj().T @ a
    gram.reshape(-1)[:: a.shape[0] + 1] -= 1
    return np.max(np.abs(gram)) <= UNITARY_TOL


@dataclass
class SpectralDecomposition:
    """Eigenvalues with a matching orthonormal column basis.

    kind is "hermitian" (real eigenvalues, ascending) or "unitary"
    (unit-modulus eigenvalues, sorted by phase in [0, 1)).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    kind: str

    def phases(self) -> np.ndarray:
        """Eigenphases in [0, 1); only meaningful for the unitary kind."""
        if self.kind != "unitary":
            raise ValueError("phases are defined for unitary decompositions only")
        phases = np.angle(self.eigenvalues) / (2.0 * np.pi) % 1.0
        return np.where(phases == 1.0, 0.0, phases)  # a tiny negative angle gives 1.0


def hermitian_eig(a: np.ndarray) -> SpectralDecomposition:
    """Full eigendecomposition of a Hermitian matrix, eigenvalues ascending."""
    a = np.asarray(a, dtype=complex)
    if not is_hermitian(a):
        raise NotHermitian("matrix deviates from its adjoint beyond tolerance")
    vals, vecs = np.linalg.eigh(a)
    return SpectralDecomposition(vals, vecs, "hermitian")


def unitary_eig(u: np.ndarray) -> SpectralDecomposition:
    """Eigendecomposition of a unitary matrix with orthonormal eigenvectors,
    sorted by phase.  The matrix front door of unitary_eig_in_place: it
    works on a copy and forms U·V as a dense product with the caller's u.
    """
    u = np.asarray(u, dtype=complex)
    return unitary_eig_in_place(u.copy(), lambda vectors: u @ vectors)


def unitary_eig_in_place(u: np.ndarray, product) -> SpectralDecomposition:
    """Eigendecomposition of the unitary u, sorted by phase; the call takes
    the buffer u over, so a dense U built for it is the only one alive.

    u is checked against UNITARY_TOL, overwritten with its Hermitian part
    (U + U†)/2 and released once stage one has diagonalized it, so the
    peak holds that buffer and eigh's own four.  Stage two reads
    U·V = product(V) of stage one's basis V.  A column whose cosine has no
    neighbour within DEGENERACY_GAP takes the eigenvalue cos + i Im(v†Uv).
    Each near-degenerate eigenspace B is rediagonalized under the skew part
    (M - M†)/(2i) of M = B†UB, which commutes with the Hermitian part for
    normal U, so the joint eigenbasis is exact and stays orthonormal under
    degeneracy.  Each of its eigenvalues is the rotated vector's Rayleigh
    quotient b†Mb: the cosine from b†Mb, the sine from the skew part's own
    eigenvalue, which does not round a small sine against M's unit diagonal.
    """
    if not is_unitary(u):
        raise NotUnitary("matrix is not unitary within tolerance")
    np.add(u, u.conj().T, out=u)
    u *= 0.5
    re_vals, vectors = np.linalg.eigh(u)
    del u
    u_vecs = product(vectors)

    values = re_vals + 1j * np.einsum("ij,ij->j", vectors.conj(), u_vecs).imag
    bounds = np.flatnonzero(np.diff(re_vals) > DEGENERACY_GAP) + 1
    starts, stops = np.r_[0, bounds], np.r_[bounds, len(re_vals)]
    multi = stops - starts > 1
    for start, stop in zip(starts[multi], stops[multi]):
        block = vectors[:, start:stop]
        m = block.conj().T @ u_vecs[:, start:stop]
        b_vals, b_vecs = np.linalg.eigh((m - m.conj().T) / (2.0j))
        vectors[:, start:stop] = block @ b_vecs
        cosines = np.einsum("ij,ij->j", b_vecs.conj(), m @ b_vecs).real
        values[start:stop] = cosines + 1j * b_vals

    order = np.argsort(SpectralDecomposition(values, vectors, "unitary").phases(), kind="stable")
    return SpectralDecomposition(values[order], vectors[:, order], "unitary")


def exp_i_hermitian(h: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """Unitary e^{i * scale * H} via eigendecomposition of Hermitian H."""
    dec = hermitian_eig(h)
    phases = np.exp(1j * scale * dec.eigenvalues)
    return (dec.eigenvectors * phases) @ dec.eigenvectors.conj().T


def operator_norm(a: np.ndarray) -> float:
    """Largest singular value, computed through hermitian_eig of A†A."""
    a = np.asarray(a, dtype=complex)
    gram = a.conj().T @ a
    gram = (gram + gram.conj().T) / 2.0
    vals = hermitian_eig(gram).eigenvalues
    return float(np.sqrt(max(vals[-1], 0.0)))
