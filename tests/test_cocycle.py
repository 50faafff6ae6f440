import math

import numpy as np
import pytest

import gram_reference
from orbitnf import cocycle as cocycle_module
from orbitnf.cocycle import (
    ClusterGapError,
    LyapunovFrame,
    NonContractingError,
    OrbitCocycle,
    TailCertificationError,
    _block_grams,
    _decay_certificate,
    finite_time_exponents,
    lyapunov_frames,
    monodromy_spectrum,
    sandwich_check,
)
from orbitnf.polymap import GradedSpace, PolyMap


def rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def linear_cocycle(matrices, block_dims=None):
    matrices = [np.asarray(A, dtype=float) for A in matrices]
    dim = matrices[0].shape[0]
    space = GradedSpace(tuple(block_dims) if block_dims else (dim,))
    maps = tuple(PolyMap.from_linear(A, space, space, 1) for A in matrices)
    return OrbitCocycle(space, maps)


def scalar_closed_form(eps):
    # sum over all integers of exp(-eps |n|)
    return 2.0 / (1.0 - math.exp(-eps)) - 1.0


class TestOrbitCocycle:
    def test_validation(self):
        space = GradedSpace((1,))
        good = PolyMap.from_linear(np.array([[0.5]]), space, space, 1)
        with pytest.raises(ValueError):
            OrbitCocycle(space, ())
        bad_const = good.with_constant([0.1])
        with pytest.raises(ValueError):
            OrbitCocycle(space, (bad_const,))
        singular = PolyMap(space, space, 1, np.zeros(1), {(0, (1,)): 0.0})
        with pytest.raises(ValueError):
            OrbitCocycle(space, (singular,))

    def test_linear_iterate_composition(self):
        A0 = np.diag([0.2, 0.5]) @ rotation(0.3)
        A1 = rotation(-0.7) @ np.diag([0.3, 0.6])
        c = linear_cocycle([A0, A1])
        fwd = c.linear_iterate(0, 3)
        assert np.allclose(fwd, A0 @ A1 @ A0, atol=1e-14)
        back = c.linear_iterate(3, -3)
        assert np.allclose(back @ fwd, np.eye(2), atol=1e-12)
        assert np.allclose(c.linear_iterate(1, -1), np.linalg.inv(A0), atol=1e-13)

    def test_aperiodic_window(self):
        c = linear_cocycle([np.diag([0.5, 0.5])])
        c = OrbitCocycle(c.space, c.fiber_maps, periodic=False)
        with pytest.raises(IndexError):
            c.linear(1)
        with pytest.raises(ValueError):
            c.monodromy()

    def test_serialization_roundtrip(self):
        c = linear_cocycle([np.diag([0.2, 0.5]), np.diag([0.3, 0.6])], block_dims=(1, 1))
        d = c.to_dict()
        c2 = OrbitCocycle.from_dict(d)
        assert c2.space == c.space
        assert c2.period == 2
        for a, b in zip(c.fiber_maps, c2.fiber_maps):
            assert a.coeffs == b.coeffs


class TestMonodromySpectrum:
    def test_period2_diagonal_exact(self):
        c = linear_cocycle([np.diag([0.2, 0.5]), np.diag([0.3, 0.6])])
        spec, bases = monodromy_spectrum(c, epsilon=0.05)
        assert spec.exponents == pytest.approx(
            (math.log(0.06) / 2.0, math.log(0.30) / 2.0), abs=1e-14
        )
        assert spec.multiplicities == (1, 1)
        assert len(bases) == 2
        for B in bases:
            assert np.allclose(np.abs(B), np.eye(2), atol=1e-12)

    def test_jordan_single_cluster(self):
        A = np.array([[math.exp(-1.0), 1.0], [0.0, math.exp(-1.0)]])
        c = linear_cocycle([A])
        spec, bases = monodromy_spectrum(c, epsilon=0.1)
        assert spec.multiplicities == (2,)
        assert spec.exponents[0] == pytest.approx(-1.0, abs=1e-12)
        assert np.allclose(bases[0], np.eye(2))

    def test_complex_pair_plus_real(self):
        A = np.zeros((3, 3))
        A[:2, :2] = 0.4 * rotation(0.9)
        A[2, 2] = 0.7
        c = linear_cocycle([A])
        spec, bases = monodromy_spectrum(c, epsilon=0.02)
        assert spec.exponents == pytest.approx((math.log(0.4), math.log(0.7)), abs=1e-12)
        assert spec.multiplicities == (2, 1)
        B = bases[0]
        P_fast = B[:, :2] @ B[:, :2].T
        expected = np.diag([1.0, 1.0, 0.0])
        assert np.allclose(P_fast, expected, atol=1e-10)
        assert np.allclose(np.abs(B[:, 2]), [0.0, 0.0, 1.0], atol=1e-10)

    def test_rotated_splitting_recovered(self):
        rng = np.random.default_rng(7)
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        D = np.diag([0.1, 0.1 * (1.0 + 5e-8), 0.5])
        A = Q @ D @ Q.T
        c = linear_cocycle([A])
        spec, bases = monodromy_spectrum(c, epsilon=0.01)
        # near-equal fast moduli merge into one block
        assert spec.multiplicities == (2, 1)
        B = bases[0]
        proj = B[:, :2] @ B[:, :2].T
        true_proj = Q[:, :2] @ Q[:, :2].T
        assert np.linalg.norm(proj - true_proj) <= 1e-9

    def test_invariance_along_orbit(self):
        A0 = np.diag([0.2, 0.5]) @ rotation(0.0)
        A1 = np.diag([0.3, 0.6])
        c = linear_cocycle([A0, A1])
        spec, bases = monodromy_spectrum(c, epsilon=0.05)
        space = GradedSpace(spec.multiplicities)
        for k in range(2):
            A = c.linear(k)
            Bn = bases[(k + 1) % 2]
            for i in range(1, space.n_blocks + 1):
                sl = space.block_slice(i)
                V = bases[k][:, sl]
                W = Bn[:, sl]
                resid = np.linalg.norm(A @ V - W @ (W.T @ A @ V))
                assert resid <= 1e-12

    def test_non_contracting_raises(self):
        c = linear_cocycle([np.diag([1.2, 0.5])])
        with pytest.raises(NonContractingError):
            monodromy_spectrum(c, epsilon=0.05)

    def test_cluster_gap_raises(self):
        c = linear_cocycle([np.diag([0.5, 0.5 * (1.0 + 3e-6)])])
        with pytest.raises(ClusterGapError):
            monodromy_spectrum(c, epsilon=0.05, cluster_tol=1e-6)

    def test_near_equal_moduli_merge(self):
        c = linear_cocycle([np.diag([0.5, 0.5 * (1.0 + 1e-9)])])
        spec, bases = monodromy_spectrum(c, epsilon=0.05, cluster_tol=1e-6)
        assert spec.multiplicities == (2,)
        assert spec.exponents[0] == pytest.approx(math.log(0.5), abs=1e-9)


class TestFiniteTimeExponents:
    def test_diagonal_exact(self):
        c = linear_cocycle([np.diag([0.5, 0.5])])
        ex = finite_time_exponents(c, 10)
        assert np.allclose(ex, [math.log(0.5)] * 2, atol=1e-14)

    def test_period2_converges(self):
        c = linear_cocycle([np.diag([0.2, 0.5]), np.diag([0.3, 0.6])])
        ex = finite_time_exponents(c, 200)
        assert np.allclose(ex, [math.log(0.06) / 2, math.log(0.30) / 2], atol=5e-3)

    def test_rotated_jordan_converges(self):
        J = np.array([[math.exp(-1.0), 1.0], [0.0, math.exp(-1.0)]])
        Q = rotation(0.3)
        c = linear_cocycle([Q @ J @ Q.T])
        ex = finite_time_exponents(c, 400)
        assert np.allclose(ex, [-1.0, -1.0], atol=2e-2)

    def test_aperiodic_bound(self):
        c = linear_cocycle([np.diag([0.5, 0.5])])
        c = OrbitCocycle(c.space, c.fiber_maps, periodic=False)
        with pytest.raises(ValueError):
            finite_time_exponents(c, 2)


class TestLyapunovFrames:
    def test_scalar_closed_form(self):
        c = linear_cocycle([np.array([[math.exp(-1.0)]])])
        spec, bases = monodromy_spectrum(c, epsilon=0.1)
        frames = lyapunov_frames(c, spec, bases)
        expected = math.sqrt(scalar_closed_form(0.1))
        assert frames[0].k_eps == pytest.approx(expected, rel=1e-9)
        assert frames[0].tail_bound <= 1e-10

    def test_two_block_diagonal(self):
        c = linear_cocycle([np.diag([math.exp(-2.0), math.exp(-1.0)])], block_dims=(1, 1))
        spec, bases = monodromy_spectrum(c, epsilon=0.1)
        frames = lyapunov_frames(c, spec, bases)
        G = frames[0].gram
        S = scalar_closed_form(0.1)
        assert abs(G[0, 1]) <= 1e-12
        assert G[0, 0] == pytest.approx(2.0 * S, rel=1e-9)
        assert G[1, 1] == pytest.approx(2.0 * S, rel=1e-9)

    def test_gram_dominates_euclidean(self):
        rng = np.random.default_rng(11)
        c = linear_cocycle(
            [np.diag([0.2, 0.5]) @ rotation(0.4), rotation(-0.2) @ np.diag([0.3, 0.6])]
        )
        spec, bases = monodromy_spectrum(c, epsilon=0.05)
        frames = lyapunov_frames(c, spec, bases)
        assert len(frames) == 2
        for fr in frames:
            lam = np.linalg.eigvalsh(fr.gram)
            assert lam[0] >= 1.0 - 1e-6
            for _ in range(20):
                u = rng.standard_normal(2)
                assert fr.norm(u) >= np.linalg.norm(u) * (1.0 - 1e-9)
                assert fr.norm(u) <= fr.k_eps * np.linalg.norm(u) * (1.0 + 1e-9)

    def test_jordan_block_certified(self):
        A = np.array([[math.exp(-1.0), 1.0], [0.0, math.exp(-1.0)]])
        c = linear_cocycle([A])
        spec, bases = monodromy_spectrum(c, epsilon=0.1)
        frames = lyapunov_frames(c, spec, bases)
        assert frames[0].tail_bound <= 1e-10
        assert frames[0].horizon > 10

    def test_zero_epsilon_rejected(self):
        c = linear_cocycle([np.array([[0.5]])])
        spec, bases = monodromy_spectrum(c, epsilon=0.05)
        spec0 = type(spec)(spec.exponents, spec.multiplicities, 0.0)
        with pytest.raises(ValueError):
            lyapunov_frames(c, spec0, bases)

    def test_norm_batch_matches(self):
        fr = LyapunovFrame(np.diag([4.0, 1.0]), np.eye(2))
        U = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
        nb = fr.norm_batch(U)
        for row, val in zip(U, nb):
            assert fr.norm(row) == pytest.approx(val, rel=1e-14)

    def test_indefinite_gram_rejected(self):
        with pytest.raises(ValueError):
            LyapunovFrame(np.array([[1.0, 2.0], [2.0, 1.0]]), np.eye(2))


def skewed_block_cocycle(rng, dim, period, chi, wobble=0.2):
    """Non-normal block cocycle M_{p+1} O_p M_p^{-1} scaled by e^{chi + delta_p}.

    The wobbles delta_p sum to zero over the period, so every eigenvalue of
    the monodromy has modulus e^{chi K}: one cluster, exponent chi.
    """
    conj = [np.eye(dim) + 0.3 * rng.standard_normal((dim, dim)) for _ in range(period)]
    deltas = rng.uniform(-wobble, wobble, period)
    deltas -= deltas.mean()
    out = []
    for p in range(period):
        O, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        out.append(math.exp(chi + deltas[p]) * conj[(p + 1) % period] @ O
                   @ np.linalg.inv(conj[p]))
    return out


def jordan_block(shear):
    return [np.array([[math.exp(-1.0), shear], [0.0, math.exp(-1.0)]])]


def assert_grams_match_reference(restrictions, chi, eps, tail_tol=1e-12):
    grams = _block_grams(restrictions, chi, eps, tail_tol)
    assert len(grams) == len(restrictions)
    for start, (G, horizon, tail) in enumerate(grams):
        G_ref, horizon_ref, tail_ref = gram_reference.block_gram(
            restrictions, chi, eps, start, tail_tol)
        assert horizon == horizon_ref
        assert np.max(np.abs(G - G_ref)) <= 1e-13 * np.max(np.abs(G_ref))
        assert abs(tail - tail_ref) <= 1e-12 * tail_ref
    return grams


class TestBlockGrams:
    @pytest.mark.parametrize("period", [1, 2, 3, 4])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_stepwise_reference(self, period, dim):
        rng = np.random.default_rng(100 * period + dim)
        restrictions = skewed_block_cocycle(rng, dim, period, chi=-0.7)
        assert_grams_match_reference(restrictions, -0.7, 0.05)

    @pytest.mark.parametrize("shear,q", [(1.0, 128), (3.0, 256), (10.0, 256)])
    def test_jordan_blocks_with_long_chunks(self, shear, q):
        restrictions = jordan_block(shear)
        assert _decay_certificate([math.exp(1.0) * restrictions[0]], 0.1)[0] == q
        ((_, horizon, _),) = assert_grams_match_reference(restrictions, -1.0, 0.1)
        assert horizon >= q

    def test_step_budget_raises_in_both(self, monkeypatch):
        restrictions = skewed_block_cocycle(np.random.default_rng(5), 2, 3, chi=-0.5)
        horizons = [h for _, h, _ in _block_grams(restrictions, -0.5, 0.05, 1e-12)]
        # a budget of exactly the longest horizon still settles every start ...
        monkeypatch.setattr(cocycle_module, "MAX_GRAM_STEPS", max(horizons))
        assert_grams_match_reference(restrictions, -0.5, 0.05)
        # ... one step less does not, in either implementation
        start = int(np.argmax(horizons))
        monkeypatch.setattr(cocycle_module, "MAX_GRAM_STEPS", max(horizons) - 1)
        with pytest.raises(TailCertificationError):
            _block_grams(restrictions, -0.5, 0.05, 1e-12)
        with pytest.raises(TailCertificationError):
            gram_reference.block_gram(restrictions, -0.5, 0.05, start, 1e-12)
        monkeypatch.setattr(cocycle_module, "MAX_GRAM_STEPS", 10)
        with pytest.raises(TailCertificationError):
            _block_grams(jordan_block(1.0), -1.0, 0.1, 1e-12)
        with pytest.raises(TailCertificationError):
            gram_reference.block_gram(jordan_block(1.0), -1.0, 0.1, 0, 1e-12)


class TestSandwich:
    def test_diagonal_tight(self):
        c = linear_cocycle([np.diag([math.exp(-2.0), math.exp(-1.0)])], block_dims=(1, 1))
        spec, bases = monodromy_spectrum(c, epsilon=0.1)
        frames = lyapunov_frames(c, spec, bases)
        rep = sandwich_check(c, spec, frames, seed=2)
        assert rep.max_violation <= 1e-8
        assert rep.keps_ok
        assert rep.lambda_min_gram >= 1.0 - 1e-6
        assert rep.passed

    def test_period2_wobble(self):
        # per-step rates chi +- 0.03 stay inside the eps = 0.05 envelope
        a1 = [math.exp(-2.0 + 0.03), math.exp(-2.0 - 0.03)]
        a2 = [math.exp(-1.0 - 0.03), math.exp(-1.0 + 0.03)]
        c = linear_cocycle(
            [np.diag([a1[0], a2[0]]), np.diag([a1[1], a2[1]])], block_dims=(1, 1)
        )
        spec, bases = monodromy_spectrum(c, epsilon=0.05)
        assert spec.exponents == pytest.approx((-2.0, -1.0), abs=1e-12)
        frames = lyapunov_frames(c, spec, bases)
        rep = sandwich_check(c, spec, frames, seed=5)
        assert rep.max_violation <= 1e-6
        assert rep.keps_ok

    def test_rotating_blocks(self):
        A0 = np.zeros((3, 3))
        A0[:2, :2] = math.exp(-1.5) * rotation(0.8)
        A0[2, 2] = math.exp(-0.5)
        A1 = np.zeros((3, 3))
        A1[:2, :2] = math.exp(-1.5) * rotation(-0.3)
        A1[2, 2] = math.exp(-0.5)
        c = linear_cocycle([A0, A1], block_dims=(2, 1))
        spec, bases = monodromy_spectrum(c, epsilon=0.05)
        assert spec.multiplicities == (2, 1)
        frames = lyapunov_frames(c, spec, bases)
        rep = sandwich_check(c, spec, frames, seed=9)
        assert rep.max_violation <= 1e-6
