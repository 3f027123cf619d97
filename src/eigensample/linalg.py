"""Dense complex linear algebra used throughout the package.

Everything here works on plain numpy complex arrays.  The unitary
eigensolver is a two-stage reduction to Hermitian problems so that the
returned eigenvectors are orthonormal even on degenerate eigenspaces,
which plain nonsymmetric eigensolvers do not guarantee.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotHermitian, NotUnitary

# Tolerances are read-only module constants; tests reference them by name.
HERMITIAN_TOL = 1e-10
UNITARY_TOL = 1e-10
# Consecutive eigenvalues of the Hermitian part closer than this are treated
# as one eigenspace in unitary_eig.  The Hermitian part of a unitary has
# spectrum inside [-1, 1], so an absolute gap is the right scale.
DEGENERACY_GAP = 1e-8


def is_hermitian(a: np.ndarray, tol: float = HERMITIAN_TOL) -> bool:
    a = np.asarray(a)
    return a.ndim == 2 and a.shape[0] == a.shape[1] and np.max(np.abs(a - a.conj().T)) <= tol


def is_unitary(a: np.ndarray, tol: float = UNITARY_TOL) -> bool:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return False
    return np.max(np.abs(a.conj().T @ a - np.eye(a.shape[0]))) <= tol


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
        return np.angle(self.eigenvalues) / (2.0 * np.pi) % 1.0


def hermitian_eig(a: np.ndarray) -> SpectralDecomposition:
    """Full eigendecomposition of a Hermitian matrix, eigenvalues ascending."""
    a = np.asarray(a, dtype=complex)
    if not is_hermitian(a):
        raise NotHermitian("matrix deviates from its adjoint beyond tolerance")
    vals, vecs = np.linalg.eigh(a)
    return SpectralDecomposition(vals, vecs, "hermitian")


def unitary_eig(u: np.ndarray) -> SpectralDecomposition:
    """Eigendecomposition of a unitary matrix with orthonormal eigenvectors.

    Stage one diagonalizes the Hermitian part (U + U†)/2.  Stage two
    rediagonalizes each near-degenerate eigenspace B under the restriction
    B†(U - U†)B/(2i) = (M - M†)/(2i) with M = B†UB, read from one product
    U·V of stage one's basis; the two parts commute for normal U, so the
    joint eigenbasis is exact and stays orthonormal under degeneracy.
    """
    u = np.asarray(u, dtype=complex)
    if not is_unitary(u):
        raise NotUnitary("matrix is not unitary within tolerance")
    dim = u.shape[0]
    re_vals, re_vecs = np.linalg.eigh((u + u.conj().T) / 2.0)
    u_vecs = u @ re_vecs

    values = np.empty(dim, dtype=complex)
    vectors = np.empty((dim, dim), dtype=complex)
    start = 0
    while start < dim:
        stop = start + 1
        while stop < dim and re_vals[stop] - re_vals[stop - 1] <= DEGENERACY_GAP:
            stop += 1
        block = re_vecs[:, start:stop]
        m = block.conj().T @ u_vecs[:, start:stop]
        b_vals, b_vecs = np.linalg.eigh((m - m.conj().T) / (2.0j))
        vectors[:, start:stop] = block @ b_vecs
        values[start:stop] = re_vals[start:stop].mean() + 1j * b_vals
        start = stop

    order = np.argsort(np.angle(values) / (2.0 * np.pi) % 1.0, kind="stable")
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
