"""Local Hamiltonians: parsing, scaling, Trotterization, eigenvalue sampling."""
import time
from fractions import Fraction

import numpy as np
import pytest

import eigensample.distributions as distributions
from eigensample.hamiltonians import lhes_sampler, power_phases
from eigensample import (
    BasisLabel,
    DimensionMismatch,
    EmptyHamiltonian,
    LocalHamiltonian,
    LocalTerm,
    NotHermitian,
    ParseError,
    SamplingRequest,
    ScaleInfo,
    TermTooLarge,
    TooLarge,
    dense_hamiltonian,
    empirical_approx_check,
    exact_average_eigenvalue,
    exact_distribution,
    hermitian_eig,
    is_hermitian,
    parse_hamiltonian,
    prepare_lhes,
    scale_hamiltonian,
    serialize_hamiltonian,
    trotter_circuit,
    trotter_deviation,
    trotter_step_count,
    unitary_eig,
)
from _helpers import (
    geometric_phase_law,
    haar_unitary,
    random_local_hamiltonian,
    former_spectral_weights,
    random_state,
)

DENSE_TOL = 1e-12
MASS_TOL = 1e-9
POWER_TOL = 1e-10

Z = np.diag([1.0, -1.0]).astype(complex)
X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

TWO_FLIPS = LocalHamiltonian(2, [LocalTerm((0,), X), LocalTerm((1,), X)])


def hamiltonian_text(*lines):
    return "\n".join(lines) + "\n"


class TestTerms:
    def test_repeated_support_rejected(self):
        with pytest.raises(ValueError, match="repeated"):
            LocalTerm((0, 0), np.eye(4))

    def test_five_qubit_term_rejected(self):
        with pytest.raises(TermTooLarge):
            LocalTerm((0, 1, 2, 3, 4), np.eye(32))

    def test_shape_must_match_support(self):
        with pytest.raises(DimensionMismatch):
            LocalTerm((0, 1), np.eye(2))

    def test_hermiticity_enforced(self):
        with pytest.raises(NotHermitian):
            LocalTerm((0,), np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_out_of_range_support_rejected(self):
        with pytest.raises(ValueError, match="range"):
            LocalHamiltonian(1, [LocalTerm((3,), Z)])


class TestParse:
    def test_two_term_example(self):
        text = hamiltonian_text(
            "qubits 2",
            "term 1 0 1 0 0 0 0 0 -1 0",
            "term 1 1 0 0 1 0 1 0 0 0",
        )
        h = parse_hamiltonian(text)
        assert h.qubit_count == 2
        assert [t.support for t in h.terms] == [(0,), (1,)]
        assert np.array_equal(h.terms[0].matrix, Z)
        assert np.array_equal(h.terms[1].matrix, X)

    def test_comments_and_blank_lines_skipped(self):
        text = "# two-qubit flip\n\nqubits 1\nterm 1 0 0 0 1 0 1 0 0 0\n"
        assert len(parse_hamiltonian(text).terms) == 1

    def test_error_lines(self):
        dup = hamiltonian_text("qubits 2", "term 2 0 0 " + "1 0 " * 16)
        with pytest.raises(ParseError, match="line 2") as info:
            parse_hamiltonian(dup)
        assert info.value.line == 2

        with pytest.raises(ParseError, match="unknown directive"):
            parse_hamiltonian("qubits 1\nfoo 1\n")
        with pytest.raises(ParseError, match="takes 1 qubits then 8 reals"):
            parse_hamiltonian("qubits 1\nterm 1 0 1 0 0 0\n")
        with pytest.raises(ParseError, match="out of range"):
            parse_hamiltonian("qubits 1\nterm 1 3 1 0 0 0 0 0 1 0\n")
        with pytest.raises(ParseError, match="Hermitian"):
            parse_hamiltonian("qubits 1\nterm 1 0 0 0 1 0 0 0 0 0\n")
        with pytest.raises(ParseError, match="must come first"):
            parse_hamiltonian("term 1 0 1 0 0 0 0 0 1 0\n")

    @pytest.mark.parametrize("k", [-1, 0, 5, 10**9])
    def test_term_arity_checked_before_sizing(self, k):
        # 2 * 4^k reals: at k = 10^9 the count alone took 12 s and 823 MB,
        # then failed with no line number
        start = time.perf_counter()
        with pytest.raises(ParseError, match=f"term acts on {k} qubits") as info:
            parse_hamiltonian(f"qubits 1\nterm {k} 0 1 0\n")
        assert time.perf_counter() - start < 1.0
        assert info.value.line == 2

    def test_parses_what_the_eigensolver_accepts(self):
        # a 5e-9 asymmetry fails the eigensolver's Hermitian check (1e-10),
        # so parsing refuses it, naming the line
        text = hamiltonian_text("qubits 1", "term 1 0 1 0 0 0 5e-9 0 -1 0")
        with pytest.raises(ParseError, match="Hermitian") as info:
            parse_hamiltonian(text)
        assert info.value.line == 2
        h = parse_hamiltonian(hamiltonian_text("qubits 1", "term 1 0 1 0 5e-11 0 0 0 -1 0"))
        assert is_hermitian(dense_hamiltonian(h))

    def test_round_trip_is_exact(self):
        rng = np.random.default_rng(53)
        h = random_local_hamiltonian(3, 4, rng)
        again = parse_hamiltonian(serialize_hamiltonian(h))
        assert again.qubit_count == h.qubit_count
        for a, b in zip(again.terms, h.terms):
            assert a.support == b.support
            assert np.array_equal(a.matrix, b.matrix)


class TestDense:
    def test_single_site_embedding(self):
        h = LocalHamiltonian(2, [LocalTerm((0,), Z)])
        assert np.allclose(dense_hamiltonian(h), np.kron(Z, np.eye(2)), atol=DENSE_TOL)

    def test_terms_add(self):
        expected = np.kron(X, np.eye(2)) + np.kron(np.eye(2), X)
        assert np.allclose(dense_hamiltonian(TWO_FLIPS), expected, atol=DENSE_TOL)

    def test_reversed_support_permutes(self):
        diag = np.diag([1.0, 2.0, 3.0, 4.0])
        h = LocalHamiltonian(2, [LocalTerm((1, 0), diag)])
        # matrix index orders its support (qubit 1 high bit), so the
        # register-order diagonal reads (1, 3, 2, 4)
        assert np.allclose(
            np.diag(dense_hamiltonian(h)).real, [1.0, 3.0, 2.0, 4.0], atol=DENSE_TOL
        )

    def test_cap_checked_before_allocation(self):
        # 16 qubits would be a 64 GiB matrix: refused before it is allocated
        h = LocalHamiltonian(16, [LocalTerm((0,), Z)])
        with pytest.raises(TooLarge):
            dense_hamiltonian(h)


class TestScaling:
    def test_cap_formula(self):
        info = scale_hamiltonian(TWO_FLIPS)
        assert abs(info.lambda_cap - 8.0 * (1.0 + 1e-9)) < 1e-12

    def test_scaled_radius_below_quarter(self):
        rng = np.random.default_rng(54)
        for _ in range(5):
            h = random_local_hamiltonian(3, 3, rng)
            info = scale_hamiltonian(h)
            eig = hermitian_eig(dense_hamiltonian(info.scaled))
            assert np.max(np.abs(eig.eigenvalues)) < 0.25

    def test_empty_rejected(self):
        with pytest.raises(EmptyHamiltonian):
            scale_hamiltonian(LocalHamiltonian(1, []))

    def test_all_zero_rejected_before_dividing(self):
        # a zero cap used to turn every term into NaNs, refused as not Hermitian
        zero = LocalTerm((0,), np.zeros((2, 2)))
        with pytest.raises(EmptyHamiltonian, match="every term is zero"):
            scale_hamiltonian(LocalHamiltonian(2, [zero, LocalTerm((1,), np.zeros((2, 2)))]))


class TestTrotter:
    def test_single_term_slice(self):
        manual = ScaleInfo(8.0, LocalHamiltonian(1, [LocalTerm((0,), Z / 8.0)]))
        circ = trotter_circuit(manual, 1)
        assert len(circ.gates) == 1
        assert circ.gates[0].name == "u1"
        expected = np.diag([np.exp(2j * np.pi / 8), np.exp(-2j * np.pi / 8)])
        assert np.allclose(circ.gates[0].matrix, expected, atol=DENSE_TOL)

    def test_slice_splits_by_step_count(self):
        manual = ScaleInfo(8.0, LocalHamiltonian(1, [LocalTerm((0,), Z / 8.0)]))
        circ = trotter_circuit(manual, 4)
        expected = np.diag([np.exp(2j * np.pi / 32), np.exp(-2j * np.pi / 32)])
        assert np.allclose(circ.gates[0].matrix, expected, atol=DENSE_TOL)

    def test_gate_names_follow_support_size(self):
        info = scale_hamiltonian(
            LocalHamiltonian(2, [LocalTerm((0,), Z), LocalTerm((0, 1), np.eye(4))])
        )
        names = [g.name for g in trotter_circuit(info, 2).gates]
        assert names == ["u1", "u2"]

    def test_commuting_terms_have_no_deviation(self):
        info = scale_hamiltonian(
            LocalHamiltonian(2, [LocalTerm((0,), Z), LocalTerm((1,), Z)])
        )
        assert trotter_deviation(info, 4) < 1e-12

    def test_first_order_deviation_halves(self):
        h = random_local_hamiltonian(3, 3, np.random.default_rng(11))
        info = scale_hamiltonian(h)
        ratio = trotter_deviation(info, 64) / trotter_deviation(info, 128)
        assert 1.6 <= ratio <= 2.4

    def test_step_count_formula(self):
        # ceil((2 pi / 4)^2 * 2^4 / 0.5) = ceil(78.96)
        assert trotter_step_count(3, 0.25, 0.5) == 79
        assert trotter_step_count(1, 0.1, 0.9) == 2


class TestPreparedSampling:
    def lambda_grid(self, sampler):
        phi = np.arange(2**sampler.t) / 2**sampler.t
        return np.where(phi < 0.5, phi, phi - 1.0) * sampler.lambda_cap

    def window_mass(self, sampler, center, eps):
        lam = self.lambda_grid(sampler)
        return sampler.prepared.raw_probabilities[np.abs(lam - center) <= eps].sum()

    def test_definite_eigenvalue_concentrates(self):
        h = LocalHamiltonian(1, [LocalTerm((0,), Z)])
        s = prepare_lhes(h, SamplingRequest(0.5, 0.1, BasisLabel("0")))
        assert s.t == 8
        assert s.trotter_steps == trotter_step_count(s.t, 1.0 / s.lambda_cap, 0.1)
        assert self.window_mass(s, 1.0, 0.5) > 1.0 - 0.1

    def test_superposition_splits_evenly(self):
        h = LocalHamiltonian(1, [LocalTerm((0,), X)])
        s = prepare_lhes(h, SamplingRequest(0.5, 0.1, BasisLabel("0")))
        assert abs(self.window_mass(s, 1.0, 0.5) - 0.5) < MASS_TOL
        assert abs(self.window_mass(s, -1.0, 0.5) - 0.5) < MASS_TOL

    def test_zero_eigenvalue_survives_the_wrap(self):
        # eigenvalue 0 sits on the phase seam between 0 and 1; the unwrap
        # must fold estimates just under 1 back to small negatives
        h = LocalHamiltonian(1, [LocalTerm((0,), np.diag([0.0, 1.0]))])
        s = prepare_lhes(h, SamplingRequest(0.5, 0.1, BasisLabel("0")))
        assert self.window_mass(s, 0.0, 0.5) > 1.0 - 0.1

    def test_draws_pass_the_transport_check(self):
        cap = 8.0 * (1.0 + 1e-9)
        req = SamplingRequest(0.05 * cap, 0.1, BasisLabel("00"))
        s = prepare_lhes(TWO_FLIPS, req)
        raw = s.prepared.sample_raw_batch(10**4, np.random.default_rng(50))
        phi = raw / 2**s.t
        lam = np.where(phi < 0.5, phi, phi - 1.0) * s.lambda_cap
        target = exact_distribution(
            dense_hamiltonian(TWO_FLIPS), BasisLabel("00"), "hermitian"
        )
        assert empirical_approx_check(lam, target, req.epsilon, req.delta)

    def test_b_length_checked(self):
        with pytest.raises(DimensionMismatch):
            prepare_lhes(TWO_FLIPS, SamplingRequest(0.5, 0.1, BasisLabel("0")))

    def test_kernel_work_refused_before_the_slice(self, monkeypatch):
        def unreachable(circuit):
            raise AssertionError("dense work before the work check")

        monkeypatch.setattr(distributions, "circuit_unitary", unreachable)
        # lambda_cap is just above 4, so 21 precision bits plus 3 delta
        # bits: 10 qubits at t = 24 is 2^34 element updates
        h = LocalHamiltonian(10, [LocalTerm((0,), Z)])
        req = SamplingRequest(2.0**-20 * 4.0, 0.2, BasisLabel("0" * 10))
        with pytest.raises(TooLarge, match="kernel work"):
            prepare_lhes(h, req)


class TestAverage:
    def test_single_site_values(self):
        h = LocalHamiltonian(1, [LocalTerm((0,), Z)])
        assert exact_average_eigenvalue(h, BasisLabel("0")) == 1.0
        assert exact_average_eigenvalue(h, BasisLabel("1")) == -1.0

    def test_matches_dense_diagonal(self):
        rng = np.random.default_rng(55)
        for _ in range(10):
            h = random_local_hamiltonian(4, 4, rng)
            dense = dense_hamiltonian(h)
            bits = "".join(str(b) for b in rng.integers(0, 2, size=4))
            label = BasisLabel(bits)
            got = exact_average_eigenvalue(h, label)
            assert abs(got - dense[label.basis_index(), label.basis_index()].real) < 1e-12

    def test_additive_over_term_splitting(self):
        rng = np.random.default_rng(56)
        m = np.asarray(rng.normal(size=(4, 4)))
        m = m + m.T
        joint = LocalHamiltonian(2, [LocalTerm((0, 1), m)])
        split = LocalHamiltonian(
            2, [LocalTerm((0, 1), m / 3.0), LocalTerm((0, 1), 2.0 * m / 3.0)]
        )
        label = BasisLabel("10")
        assert abs(
            exact_average_eigenvalue(joint, label)
            - exact_average_eigenvalue(split, label)
        ) < 1e-12

    def test_label_length_checked(self):
        h = LocalHamiltonian(2, [LocalTerm((0,), Z)])
        with pytest.raises(DimensionMismatch):
            exact_average_eigenvalue(h, BasisLabel("0"))


class TestUnitaryPower:
    """lhes_sampler raises the slice to the step count by multiplying its
    eigenphases, never by forming the matrix power."""

    def law(self, u, steps=1):
        # t = 8 at epsilon 1/64, delta 1/2, and a norm sum at which
        # trotter_step_count gives `steps` (0 for a zero norm sum)
        t, delta = 8, 0.5
        norm_sum = np.sqrt(max(steps - 0.5, 0.0) * delta / 2 ** (t + 1)) / (2 * np.pi)
        b = random_state(2, np.random.default_rng(60))
        law = former_spectral_weights(u, b, "unitary")
        req = SamplingRequest(1.0 / 64.0, delta, BasisLabel("00"))
        sampler = lhes_sampler(1.0, norm_sum, req, lambda t, steps: law)
        assert (sampler.t, sampler.trotter_steps) == (t, steps)
        return sampler.prepared.raw_probabilities

    def test_zero_exponent_is_identity(self):
        u = haar_unitary(4, np.random.default_rng(57))
        law = self.law(u, steps=0)
        assert np.allclose(law, self.law(np.eye(4)), atol=DENSE_TOL)
        assert abs(law[0] - 1.0) < DENSE_TOL

    def test_small_exponents_match_direct_products(self):
        u = haar_unitary(4, np.random.default_rng(58))
        for e in (1, 2, 3, 7, 12):
            direct = self.law(np.linalg.matrix_power(u, e))
            assert np.max(np.abs(self.law(u, steps=e) - direct)) < POWER_TOL

    def test_huge_exponent_stays_unitary_and_matches_spectrum(self):
        # the powered law is still a probability law, and matches the law of
        # the power assembled from the spectrum
        u = haar_unitary(4, np.random.default_rng(59))
        e = 12634
        law = self.law(u, steps=e)
        assert abs(law.sum() - 1.0) < DENSE_TOL
        dec = unitary_eig(u)
        v = dec.eigenvectors
        spectral = v @ np.diag(dec.eigenvalues**e) @ v.conj().T
        assert np.max(np.abs(law - self.law(spectral))) < 1e-9


class TestPowerPhases:
    """power_phases against exact rational arithmetic: a double phase times
    the step count mod 1, by fractions.Fraction."""

    def test_matches_fractions(self):
        phases = np.random.default_rng(61).random(1000)
        phases[:3] = [0.0, np.nextafter(1.0, 0.0), 2.0**-60]
        # lhes-clock's step count, 2^26 - 3, and one of 50 bits
        for steps in (32_340_720, 2**26 - 3, 2**49 + 12345):
            powered = power_phases(phases, steps)
            exact = np.array([float(Fraction(p) * steps % 1) for p in phases.tolist()])
            gap = np.abs(powered - exact)
            assert np.max(np.minimum(gap, 1.0 - gap)) <= 2.2e-16

    def test_zero_and_one_steps(self):
        phases = np.random.default_rng(62).random(50)
        assert np.array_equal(power_phases(phases, 1), phases)
        assert np.array_equal(power_phases(phases, 0), np.zeros(50))


def _embed(mp, matrix, support, qubits):
    """Dense 2^n embedding of a gate on `support` (qubit 0 most significant)."""
    dim = 2**qubits
    rest = [q for q in range(qubits) if q not in support]
    out = mp.zeros(dim, dim)
    for r in range(dim):
        for c in range(dim):
            bits_r = [(r >> (qubits - 1 - q)) & 1 for q in range(qubits)]
            bits_c = [(c >> (qubits - 1 - q)) & 1 for q in range(qubits)]
            if any(bits_r[q] != bits_c[q] for q in rest):
                continue
            i = int("".join(str(bits_r[q]) for q in support), 2)
            j = int("".join(str(bits_c[q]) for q in support), 2)
            out[r, c] = matrix[i, j]
    return out


class TestLhesLawReference:
    """prepare_lhes against the same Trotter slice built and diagonalized at
    40 digits, with its eigenphases multiplied by the step count mod 1."""

    @pytest.mark.parametrize("seed, qubits", [(31, 2), (32, 3)])
    def test_law_matches_forty_digit_slice(self, seed, qubits):
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp
        h = random_local_hamiltonian(qubits, 3, np.random.default_rng(seed))
        scale = scale_hamiltonian(h)
        b = BasisLabel("0" * qubits)
        sampler = prepare_lhes(h, SamplingRequest(2.0**-12 * scale.lambda_cap, 0.1, b))
        assert sampler.t == 16
        steps = sampler.trotter_steps
        with mp.workdps(40):
            slice_u = mp.eye(2**qubits)
            for term in scale.scaled.terms:  # trotter_circuit order
                k = 2 ** len(term.support)
                generator = mp.matrix(
                    [[mp.mpc(complex(term.matrix[i, j])) for j in range(k)] for i in range(k)]
                )
                factor = mp.expm(generator * (2j * mp.pi / steps))
                slice_u = _embed(mp, factor, term.support, qubits) * slice_u
            values, vectors = mp.eig(slice_u)
            phases, weights = [], []
            for col, value in enumerate(values):
                norm2 = sum(abs(vectors[r, col]) ** 2 for r in range(2**qubits))
                weights.append(float(abs(vectors[b.basis_index(), col]) ** 2 / norm2))
                phases.append(float(mp.arg(value) / (2 * mp.pi) * steps % 1))
        reference = geometric_phase_law(16, phases, weights)
        tv = 0.5 * np.sum(np.abs(sampler.prepared.raw_probabilities - reference))
        assert tv <= 1e-4
