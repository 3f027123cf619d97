"""Dense linear algebra: eigensolvers, exponentials, norms."""
import numpy as np
import pytest

from eigensample import (
    NotHermitian,
    NotUnitary,
    circuit_unitary,
    exp_i_hermitian,
    hermitian_eig,
    is_hermitian,
    is_unitary,
    operator_norm,
    unitary_eig,
)
from _helpers import (
    anti_cyclic_shift,
    cyclic_shift,
    haar_unitary,
    max_circular_mismatch,
    random_circuit,
    random_hermitian,
)

EXACT_TOL = 1e-12
RESIDUAL_TOL = 1e-9
PHASE_TOL = 1e-8
WEIGHT_TOL = 1e-9

Z = np.diag([1.0, -1.0]).astype(complex)
X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


class TestHermitianEig:
    def test_z(self):
        dec = hermitian_eig(Z)
        assert np.allclose(dec.eigenvalues, [-1.0, 1.0])
        # ascending order puts the -1 eigenvector (|1>) first
        assert abs(abs(dec.eigenvectors[1, 0]) - 1.0) < EXACT_TOL
        assert abs(abs(dec.eigenvectors[0, 1]) - 1.0) < EXACT_TOL

    def test_x(self):
        dec = hermitian_eig(X)
        assert np.allclose(dec.eigenvalues, [-1.0, 1.0])
        for val, vec in zip(dec.eigenvalues, dec.eigenvectors.T):
            assert np.linalg.norm(X @ vec - val * vec) < EXACT_TOL

    def test_random_residual_and_orthonormality(self):
        rng = np.random.default_rng(2)
        a = random_hermitian(16, rng)
        dec = hermitian_eig(a)
        scale = max(1.0, operator_norm(a))
        for val, vec in zip(dec.eigenvalues, dec.eigenvectors.T):
            assert np.linalg.norm(a @ vec - val * vec) < RESIDUAL_TOL * scale
        gram = dec.eigenvectors.conj().T @ dec.eigenvectors
        assert np.max(np.abs(gram - np.eye(16))) < RESIDUAL_TOL
        assert np.all(np.diff(dec.eigenvalues) >= 0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_total_weight_is_one(self):
        rng = np.random.default_rng(3)
        dec = hermitian_eig(random_hermitian(8, rng))
        weights = np.abs(dec.eigenvectors[2, :]) ** 2
        assert abs(weights.sum() - 1.0) < 1e-10


class TestUnitaryEig:
    def test_z_phases(self):
        dec = unitary_eig(Z)
        assert max_circular_mismatch(dec.phases(), [0.0, 0.5]) < EXACT_TOL

    def test_shift_operator_grids(self):
        # eigenphases of the plain and sign-flipped cyclic shifts sit on the
        # integer and half-integer grids k/N and (k + 1/2)/N
        for n in (3, 5, 7, 9):
            plain = unitary_eig(cyclic_shift(n))
            flipped = unitary_eig(anti_cyclic_shift(n))
            grid = np.arange(n) / n
            assert max_circular_mismatch(plain.phases(), grid) < PHASE_TOL
            assert max_circular_mismatch(flipped.phases(), grid + 0.5 / n) < PHASE_TOL

    def test_identity_degenerate(self):
        dec = unitary_eig(np.eye(8))
        assert np.max(np.abs(dec.phases())) < EXACT_TOL
        gram = dec.eigenvectors.conj().T @ dec.eigenvectors
        assert np.max(np.abs(gram - np.eye(8))) < RESIDUAL_TOL

    def test_degenerate_spectrum_stays_orthonormal(self):
        # X (x) X has two eigenvalues, each with a 2-dim eigenspace
        u = np.kron(X, X)
        dec = unitary_eig(u)
        gram = dec.eigenvectors.conj().T @ dec.eigenvectors
        assert np.max(np.abs(gram - np.eye(4))) < RESIDUAL_TOL
        recon = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.conj().T
        assert np.max(np.abs(recon - u)) < RESIDUAL_TOL

    def test_random_reconstruction(self):
        rng = np.random.default_rng(4)
        u = haar_unitary(16, rng)
        dec = unitary_eig(u)
        assert np.max(np.abs(np.abs(dec.eigenvalues) - 1.0)) < RESIDUAL_TOL
        recon = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.conj().T
        assert np.max(np.abs(recon - u)) < RESIDUAL_TOL
        phases = dec.phases()
        assert np.all(np.diff(phases) >= 0)

    def test_conjugate_pair_is_separated(self):
        # e^{+-2 pi i phi} share the Hermitian-part eigenvalue cos(2 pi phi),
        # so only stage two can tell them apart
        rng = np.random.default_rng(8)
        phases = np.array([0.2, 0.8, 0.45, 0.0])
        w = haar_unitary(4, rng)
        u = (w * np.exp(2j * np.pi * phases)) @ w.conj().T
        dec = unitary_eig(u)
        assert max_circular_mismatch(dec.phases(), phases) < PHASE_TOL
        vecs = dec.eigenvectors
        assert np.max(np.abs(u @ vecs - vecs * dec.eigenvalues)) < RESIDUAL_TOL
        # each eigenvector of the pair is the matching column of w, up to phase
        for k in (0, 1):
            j = int(np.argmin(np.abs(dec.phases() - phases[k])))
            assert abs(abs(np.vdot(w[:, k], vecs[:, j])) - 1.0) < RESIDUAL_TOL

    def test_random_circuit_residuals(self):
        u = circuit_unitary(random_circuit(8, 40, np.random.default_rng(9)))
        dec = unitary_eig(u)
        vecs = dec.eigenvectors
        assert np.linalg.norm(u @ vecs - vecs * dec.eigenvalues) <= 1e-10
        assert np.linalg.norm(vecs.conj().T @ vecs - np.eye(256)) <= 1e-10

    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitary):
            unitary_eig(2.0 * np.eye(3))


class TestExponential:
    def test_zero_gives_identity(self):
        assert np.max(np.abs(exp_i_hermitian(np.zeros((4, 4))) - np.eye(4))) < EXACT_TOL

    def test_z_pi_gives_minus_identity(self):
        u = exp_i_hermitian(Z, np.pi)
        assert np.max(np.abs(u + np.eye(2))) < EXACT_TOL

    def test_inverse_composition(self):
        rng = np.random.default_rng(5)
        h = random_hermitian(8, rng)
        u = exp_i_hermitian(h, 0.7) @ exp_i_hermitian(h, -0.7)
        assert np.max(np.abs(u - np.eye(8))) < 1e-10

    def test_phases_match_spectrum(self):
        # with |H| < pi the eigenphases of e^{iH} are the eigenvalues / 2 pi
        rng = np.random.default_rng(6)
        h = random_hermitian(8, rng)
        h = h * (3.0 / operator_norm(h))
        expected = hermitian_eig(h).eigenvalues / (2.0 * np.pi)
        phases = unitary_eig(exp_i_hermitian(h)).phases()
        assert max_circular_mismatch(phases, expected) < PHASE_TOL


class TestOperatorNorm:
    def test_identity(self):
        assert abs(operator_norm(np.eye(5)) - 1.0) < EXACT_TOL

    def test_non_hermitian_diagonal(self):
        assert abs(operator_norm(np.diag([3.0, -4.0j])) - 4.0) < EXACT_TOL

    def test_unitary_invariance(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        u = haar_unitary(6, rng)
        assert abs(operator_norm(u @ a) - operator_norm(a)) < 1e-10
        assert abs(operator_norm(a) - np.linalg.norm(a, 2)) < 1e-10


class TestDegenerateWeights:
    def test_weight_is_projector_expectation(self):
        # weights summed over a degenerate eigenspace equal <b|P|b> no matter
        # which orthonormal basis the solver picked inside the eigenspace
        rng = np.random.default_rng(8)
        v = haar_unitary(4, rng)
        h = v @ np.diag([1.0, 1.0, 0.0, 0.0]) @ v.conj().T
        h = (h + h.conj().T) / 2.0
        dec = hermitian_eig(h)
        b = np.zeros(4, dtype=complex)
        b[0] = 1.0
        mask = np.abs(dec.eigenvalues - 1.0) < 1e-8
        weight = float(np.sum(np.abs(dec.eigenvectors[0, mask]) ** 2))
        projector = v[:, :2] @ v[:, :2].conj().T
        assert abs(weight - float((b.conj() @ projector @ b).real)) < WEIGHT_TOL


def test_hermiticity_and_unitarity_predicates():
    assert is_hermitian(Z)
    assert not is_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert is_unitary(X)
    assert not is_unitary(np.diag([1.0, 2.0]))
