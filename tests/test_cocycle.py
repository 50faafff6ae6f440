import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gram_reference
import sandwich_reference
import series_reference
from orbitnf import cocycle as cocycle_module
from orbitnf.cocycle import (
    ClusterGapError,
    LyapunovFrames,
    NonContractingError,
    OrbitCocycle,
    TailCertificationError,
    _transported_sum,
    log_envelopes,
    lyapunov_frames,
    monodromy_spectrum,
    sandwich_check,
)
from orbitnf.grading import Spectrum
from orbitnf.normalform import SolverContext
from orbitnf.polymap import GradedSpace, PolyMap
from orbitnf.scenarios import build_builtin, builtin_names, random_cocycle, random_scenario


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


def kronecker_gram(S, R, c):
    """Solution G of G = S + c R^T G R, the full one-direction series of a K = 1 block."""
    m = len(S)
    return np.linalg.solve(np.eye(m * m) - c * np.kron(R.T, R.T), S.ravel()).reshape(m, m)


class TestOrbitCocycle:
    def test_validation(self):
        space = GradedSpace((1,))
        good = PolyMap.from_linear(np.array([[0.5]]), space, space, 1)
        with pytest.raises(ValueError):
            OrbitCocycle(space, ())
        bad_const = PolyMap(space, space, 1, [0.1], good.coeffs)
        with pytest.raises(ValueError):
            OrbitCocycle(space, (bad_const,))
        singular = PolyMap(space, space, 1, np.zeros(1), {(0, (1,)): 0.0})
        with pytest.raises(ValueError):
            OrbitCocycle(space, (singular,))
        # the one stacked conditioning test names the first bad map
        plane = GradedSpace((2,))
        maps = [PolyMap.from_linear(np.diag(d), plane, plane, 1)
                for d in ([0.5, 0.5], [0.5, 1e-13], np.zeros(2))]
        with pytest.raises(ValueError, match="fiber map 1 has a non-invertible"):
            OrbitCocycle(plane, maps)

    def test_linear_iterate_composition(self):
        # the n-step products of the sampled reference sandwich check, whose
        # steps are taken modulo the period
        A0 = np.diag([0.2, 0.5]) @ rotation(0.3)
        A1 = rotation(-0.7) @ np.diag([0.3, 0.6])
        c = linear_cocycle([A0, A1])
        fwd = sandwich_reference.linear_iterate(c, 0, 3)
        assert np.allclose(fwd, A0 @ A1 @ A0, atol=1e-14)
        back = sandwich_reference.linear_iterate(c, 3, -3)
        assert np.allclose(back @ fwd, np.eye(2), atol=1e-12)
        assert np.allclose(sandwich_reference.linear_iterate(c, 1, -1), np.linalg.inv(A0),
                           atol=1e-13)

    def test_aperiodic_dict_rejected(self):
        c = linear_cocycle([np.diag([0.5, 0.5])])
        assert c.linears.shape == (1, 2, 2) and not c.linears.flags.writeable
        d = c.to_dict()
        assert "periodic" not in d
        assert OrbitCocycle.from_dict(dict(d, periodic=True)).period == 1
        with pytest.raises(ValueError, match="periodic"):
            OrbitCocycle.from_dict(dict(d, periodic=False))

    def test_random_cocycle_draws_admissible_slots_only(self):
        # with a structure every nonlinear coefficient sits in an admissible
        # slot, and the draws fill all of them
        spectrum = Spectrum((-2.0, -0.9), (2, 2), 0.05)
        c = random_cocycle(np.random.default_rng(3), (-2.0, -0.9), (2, 2), 2, degree=3,
                           structure=spectrum.structure)
        keep = spectrum.structure.keep(3)[:, 5:]  # past the constant and linear columns
        assert keep.any() and not keep.all()
        for pm in c.fiber_maps:
            assert not pm.jet[:, 5:][~keep].any()
            assert pm.jet[:, 5:][keep].all()

    def test_serialization_roundtrip(self):
        c = linear_cocycle([np.diag([0.2, 0.5]), np.diag([0.3, 0.6])], block_dims=(1, 1))
        d = c.to_dict()
        c2 = OrbitCocycle.from_dict(d)
        assert c2.space == c.space
        assert c2.period == 2
        for a, b in zip(c.fiber_maps, c2.fiber_maps):
            assert a.coeffs == b.coeffs


def two_rates(block, low, high):
    """The error of a coordinate block carrying the rates low and high."""
    return (f"coordinate block {block} carries two rates, {low:.6g} and {high:.6g} "
            r"\(log modulus / period\)")


class TestMonodromySpectrum:
    def test_period2_diagonal_exact(self):
        rates = (math.log(0.06) / 2.0, math.log(0.30) / 2.0)
        steps = [np.diag([0.2, 0.5]), np.diag([0.3, 0.6])]
        spec = monodromy_spectrum(linear_cocycle(steps, block_dims=(1, 1)), epsilon=0.05)
        assert spec.exponents == pytest.approx(rates, abs=1e-14)
        assert spec.multiplicities == (1, 1)
        # one coordinate block carrying both rates is no splitting
        with pytest.raises(ValueError, match=two_rates(1, *rates)):
            monodromy_spectrum(linear_cocycle(steps), epsilon=0.05)

    def test_jordan_single_cluster(self):
        A = np.array([[math.exp(-1.0), 1.0], [0.0, math.exp(-1.0)]])
        c = linear_cocycle([A])
        spec = monodromy_spectrum(c, epsilon=0.1)
        assert spec.multiplicities == (2,)
        assert spec.exponents[0] == pytest.approx(-1.0, abs=1e-12)

    def test_complex_pair_plus_real(self):
        A = np.zeros((3, 3))
        A[:2, :2] = 0.4 * rotation(0.9)
        A[2, 2] = 0.7
        spec = monodromy_spectrum(linear_cocycle([A], block_dims=(2, 1)), epsilon=0.02)
        assert spec.exponents == pytest.approx((math.log(0.4), math.log(0.7)), abs=1e-12)
        assert spec.multiplicities == (2, 1)
        with pytest.raises(ValueError, match=two_rates(1, math.log(0.4), math.log(0.7))):
            monodromy_spectrum(linear_cocycle([A]), epsilon=0.02)

    def test_rotated_splitting_recovered(self):
        # a splitting that is not the coordinate blocks is not recovered: the
        # blocks (2, 1) are not invariant, and one block carries two rates
        rng = np.random.default_rng(7)
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        D = np.diag([0.1, 0.1 * (1.0 + 5e-8), 0.5])
        A = Q @ D @ Q.T
        with pytest.raises(ValueError, match="fiber map 0 is not grading-adapted"):
            monodromy_spectrum(linear_cocycle([A], block_dims=(2, 1)), epsilon=0.01)
        # the near-equal fast moduli chain into one rate
        with pytest.raises(ValueError, match=two_rates(1, math.log(0.1), math.log(0.5))):
            monodromy_spectrum(linear_cocycle([A]), epsilon=0.01)
        # in the adapted coordinates the fast pair is one block
        spec = monodromy_spectrum(linear_cocycle([D], block_dims=(2, 1)), epsilon=0.01)
        assert spec.multiplicities == (2, 1)
        assert spec.exponents == pytest.approx((math.log(0.1), math.log(0.5)), abs=1e-7)

    def test_invariance_along_orbit(self):
        # the coordinate blocks are invariant: every frame Gram is exactly
        # zero off them
        A0 = np.diag([0.2, 0.5]) @ rotation(0.0)
        A1 = np.diag([0.3, 0.6])
        c = linear_cocycle([A0, A1], block_dims=(1, 1))
        spec = monodromy_spectrum(c, epsilon=0.05)
        frames = lyapunov_frames(c, spec)
        assert np.all(frames.grams[:, 0, 1] == 0.0) and np.all(frames.grams[:, 1, 0] == 0.0)

    def test_non_contracting_raises(self):
        c = linear_cocycle([np.diag([0.5, 1.2])], block_dims=(1, 1))
        with pytest.raises(NonContractingError, match="coordinate block 2 has the exponent"):
            monodromy_spectrum(c, epsilon=0.05)
        with pytest.raises(ValueError, match=two_rates(1, math.log(0.5), math.log(1.2))):
            monodromy_spectrum(linear_cocycle([np.diag([1.2, 0.5])]), epsilon=0.05)

    def test_cluster_gap_raises(self):
        # rates 3e-6 apart, between one and ten margins of 1e-6: inside the
        # margin whether they sit in two blocks or in one
        A = np.diag([0.5, 0.5 * (1.0 + 3e-6)])
        for dims in ((1, 1), (2,)):
            with pytest.raises(ClusterGapError, match="inside the clustering margin"):
                monodromy_spectrum(linear_cocycle([A], dims), epsilon=0.05, cluster_tol=1e-6)

    def test_near_equal_moduli_merge(self):
        c = linear_cocycle([np.diag([0.5, 0.5 * (1.0 + 1e-9)])])
        spec = monodromy_spectrum(c, epsilon=0.05, cluster_tol=1e-6)
        assert spec.multiplicities == (2,)
        assert spec.exponents[0] == pytest.approx(math.log(0.5), abs=1e-9)
        # a hundredth of that margin tells the two rates apart
        with pytest.raises(ValueError, match="coordinate block 1 carries two rates"):
            monodromy_spectrum(c, epsilon=0.05, cluster_tol=1e-11)

    @pytest.mark.parametrize("period", [32, 64, 256, 1024])
    def test_long_period_prepare(self, period):
        # the product over a period sinks the fast block e^(-1.2 K) below the
        # slow one's rounding from K ~ 32 and underflows at 1024; read block
        # by block, each exponent stays exact
        c = random_cocycle(np.random.default_rng(1), (-2.0, -0.8), (2, 2), period,
                           amp=0.05, degree=4, wobble=0.05)
        ctx = SolverContext.prepare(c, 0.04, 4)
        assert ctx.spectrum.multiplicities == (2, 2)
        assert ctx.spectrum.exponents == pytest.approx((-2.0, -0.8), abs=1e-12)
        # as one block, the fast rate may sink below what the renormalised
        # product resolves, and still splits off
        with pytest.raises(ValueError, match="coordinate block 1 carries two rates"):
            monodromy_spectrum(linear_cocycle(c.linears), 0.04)

    def test_unresolved_fast_rate_named(self):
        # at K = 1024 the fast rates of the (2, 2) cocycle read as one block
        # sink below what one renormalised product resolves, their moduli 0;
        # the rates of a block sum to m_i chi_i, so they share 4 chi - 2 (-0.8)
        c = random_cocycle(np.random.default_rng(1), (-2.0, -0.8), (2, 2), 1024,
                           amp=0.05, degree=4, wobble=0.05)
        with pytest.raises(ValueError, match=two_rates(1, -2.0, -0.8)):
            monodromy_spectrum(linear_cocycle(c.linears), 0.04)

    def test_prepare_reads_the_rates_once(self, monkeypatch):
        # the K-step rate loop of a block ends in one eigvals call; the
        # spectrum and the context's check read the same rates
        calls = []

        def counted(a, _fn=np.linalg.eigvals):
            calls.append(a.shape)
            return _fn(a)

        c = random_cocycle(np.random.default_rng(1), (-2.0, -0.8), (2, 2), 64,
                           amp=0.05, degree=4, wobble=0.05)
        monkeypatch.setattr(np.linalg, "eigvals", counted)
        ctx = SolverContext.prepare(c, 0.04, 4)
        assert calls == [(2, 2), (2, 2)]
        # a context built from a supplied spectrum still checks it, on the
        # rates its cocycle read once
        SolverContext(c, ctx.spectrum, 4)
        assert calls == [(2, 2), (2, 2)]
        steps = [np.diag([math.exp(-0.5), math.exp(-2.0)])]
        with pytest.raises(ValueError, match="coordinate block 1 does not carry its "
                                             "exponent chi_1 = -2:"):
            SolverContext(linear_cocycle(steps, block_dims=(1, 1)),
                          Spectrum((-2.0, -0.5), (1, 1), 0.05), 6)
        assert calls == [(2, 2), (2, 2), (1, 1), (1, 1)]


class TestLyapunovFrames:
    def test_scalar_closed_form(self):
        c = linear_cocycle([np.array([[math.exp(-1.0)]])])
        spec = monodromy_spectrum(c, epsilon=0.1)
        frames = lyapunov_frames(c, spec)
        expected = math.sqrt(scalar_closed_form(0.1))
        assert frames.k_eps[0] == pytest.approx(expected, rel=1e-9)
        assert frames.tail_bound[0] <= 1e-10

    def test_two_block_diagonal(self):
        c = linear_cocycle([np.diag([math.exp(-2.0), math.exp(-1.0)])], block_dims=(1, 1))
        spec = monodromy_spectrum(c, epsilon=0.1)
        frames = lyapunov_frames(c, spec)
        G = frames.grams[0]
        S = scalar_closed_form(0.1)
        assert abs(G[0, 1]) <= 1e-12
        assert G[0, 0] == pytest.approx(2.0 * S, rel=1e-9)
        assert G[1, 1] == pytest.approx(2.0 * S, rel=1e-9)

    def test_gram_dominates_euclidean(self):
        # a rotating two-dimensional block beside a scalar one, each carrying
        # one rate
        rng = np.random.default_rng(11)
        steps = []
        for fast, slow, theta in ((0.2, 0.5, 0.4), (0.3, 0.6, -0.2)):
            A = np.zeros((3, 3))
            A[:2, :2], A[2, 2] = fast * rotation(theta), slow
            steps.append(A)
        c = linear_cocycle(steps, block_dims=(2, 1))
        spec = monodromy_spectrum(c, epsilon=0.05)
        assert spec.exponents == pytest.approx((math.log(0.06) / 2.0, math.log(0.30) / 2.0),
                                               abs=1e-14)
        frames = lyapunov_frames(c, spec)
        assert frames.grams.shape == (2, 3, 3)
        for k, G in enumerate(frames.grams):
            lam = np.linalg.eigvalsh(G)
            assert lam[0] >= 1.0 - 1e-6
            assert frames.lambda_min[k] == lam[0]
            for _ in range(20):
                u = rng.standard_normal(3)
                norm = sandwich_reference.frame_norm(frames, k, u)
                assert norm >= np.linalg.norm(u) * (1.0 - 1e-9)
                assert norm <= frames.k_eps[k] * np.linalg.norm(u) * (1.0 + 1e-9)

    def test_jordan_block_certified(self):
        A = np.array([[math.exp(-1.0), 1.0], [0.0, math.exp(-1.0)]])
        c = linear_cocycle([A])
        spec = monodromy_spectrum(c, epsilon=0.1)
        frames = lyapunov_frames(c, spec)
        assert frames.tail_bound[0] <= 1e-10
        assert frames.horizon[0] > 10

    @pytest.mark.parametrize("shear", [1.0, 10.0, 100.0])
    def test_slow_jordan_blocks_certified(self, shear):
        # at eps = 0.02 the weighted period map first contracts after ~1000
        # periods, past the 256 a fixed decay certificate allowed
        eps = 0.02
        A = np.array([[math.exp(-1.0), shear], [0.0, math.exp(-1.0)]])
        c = linear_cocycle([A])
        spec = monodromy_spectrum(c, epsilon=eps)
        frames = lyapunov_frames(c, spec)
        rep = sandwich_check(c, spec, frames)
        assert rep.max_violation <= 1e-8
        assert rep.keps_ok and rep.passed
        R = math.exp(-spec.exponents[0]) * A
        R_inv = np.linalg.inv(R)
        G = (kronecker_gram(np.eye(2), R, math.exp(-eps))
             + kronecker_gram(math.exp(-eps) * R_inv.T @ R_inv, R_inv, math.exp(-eps)))
        expected = 2.0 * G
        assert np.max(np.abs(frames.grams[0] - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_one_stacked_factorisation_equals_per_point(self):
        # each Gram is factorised once, in (K, m, m) stacks that give the
        # bits of one factorisation per orbit point
        c = random_cocycle(np.random.default_rng(3), (-2.0, -0.8), (2, 1), 3,
                           degree=1, wobble=0.3)
        spec = monodromy_spectrum(c, epsilon=0.05)
        frames = lyapunov_frames(c, spec)
        assert frames.horizon.shape == frames.tail_bound.shape == (3,)
        for k, G in enumerate(frames.grams):
            lam = np.linalg.eigvalsh(G)
            assert frames.lambda_min[k] == lam[0]
            assert frames.k_eps[k] == math.sqrt(lam[-1])

    def test_zero_epsilon_rejected(self):
        c = linear_cocycle([np.array([[0.5]])])
        spec = monodromy_spectrum(c, epsilon=0.05)
        spec0 = type(spec)(spec.exponents, spec.multiplicities, 0.0)
        with pytest.raises(ValueError):
            lyapunov_frames(c, spec0)

    def test_indefinite_gram_rejected(self):
        with pytest.raises(ValueError, match="not positive definite"):
            LyapunovFrames(np.array([[[1.0, 2.0], [2.0, 1.0]]]))

    @pytest.mark.parametrize("entry", [math.nan, math.inf])
    def test_non_finite_gram_rejected(self, entry):
        # a NaN or an infinite entry is no inner product, on or off the diagonal
        for where in ((0, 0), (0, 1)):
            G = np.eye(2)[None].repeat(2, axis=0)
            G[1][where] = entry
            with pytest.raises(ValueError, match="gram matrix is not positive definite"):
                LyapunovFrames(G)


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


def block_frames(restrictions, chi, eps, tail_tol=1e-12):
    """Frames of the one-block cocycle stepping by the restrictions."""
    mc = len(restrictions[0])
    return lyapunov_frames(linear_cocycle(restrictions), Spectrum((chi,), (mc,), eps),
                           tail_tol)


def assert_gram_within_tails(G, tail, restrictions, chi, eps, start, tail_tol):
    """G, a block sum from start whose dropped tail has Frobenius norm at
    most tail, and the stepwise sum, whose tail is bounded relative to its
    trace, fall short of the full series by at most their certified tails,
    up to rounding of the stepwise sum."""
    G_ref, _, tail_ref = gram_reference.block_gram(restrictions, chi, eps, start, tail_tol)
    gap = np.max(np.abs(G - G_ref))
    assert gap <= tail + tail_ref * np.trace(G_ref) + 1e-13 * np.max(np.abs(G_ref))


def assert_grams_match_reference(restrictions, chi, eps, tail_tol=1e-12):
    frames = block_frames(restrictions, chi, eps, tail_tol)
    K, mc = len(restrictions), len(restrictions[0])
    # T periods summed by doubling from every start, T a power of two
    horizon = int(frames.horizon[0])
    assert np.all(frames.horizon == horizon)
    assert horizon % K == 0 and (horizon // K).bit_count() == 1
    assert np.all((0.0 < frames.tail_bound) & (frames.tail_bound <= tail_tol))
    # the ambient Gram is dim times the block sum, and the tail bound is
    # relative to its Frobenius norm
    for start, G in enumerate(frames.grams / mc):
        assert_gram_within_tails(G, frames.tail_bound[start] * np.linalg.norm(G),
                                 restrictions, chi, eps, start, tail_tol)


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
        assert gram_reference.decay_certificate([math.exp(1.0) * restrictions[0]], 0.1)[0] == q
        assert_grams_match_reference(restrictions, -1.0, 0.1)

    def test_step_budget_raises_in_both(self, monkeypatch):
        restrictions = skewed_block_cocycle(np.random.default_rng(5), 2, 3, chi=-0.5)
        horizon = int(block_frames(restrictions, -0.5, 0.05).horizon[0])
        ref_horizons = [gram_reference.block_gram(restrictions, -0.5, 0.05, start, 1e-12)[1]
                        for start in range(3)]
        # a budget of exactly the horizon still settles ...
        monkeypatch.setattr(cocycle_module, "MAX_GRAM_STEPS", horizon)
        assert block_frames(restrictions, -0.5, 0.05).horizon[0] == horizon
        # ... half of it does not, as the last doubling would pass it
        monkeypatch.setattr(cocycle_module, "MAX_GRAM_STEPS", horizon // 2)
        with pytest.raises(TailCertificationError, match=f"within {horizon // 2} terms"):
            block_frames(restrictions, -0.5, 0.05)
        # the stepwise reference settles on its own horizon, not one step less
        start = int(np.argmax(ref_horizons))
        monkeypatch.setattr(cocycle_module, "MAX_GRAM_STEPS", max(ref_horizons) - 1)
        with pytest.raises(TailCertificationError):
            gram_reference.block_gram(restrictions, -0.5, 0.05, start, 1e-12)
        monkeypatch.setattr(cocycle_module, "MAX_GRAM_STEPS", 10)
        with pytest.raises(TailCertificationError):
            block_frames(jordan_block(1.0), -1.0, 0.1)
        with pytest.raises(TailCertificationError):
            gram_reference.block_gram(jordan_block(1.0), -1.0, 0.1, 0, 1e-12)

    def test_epsilon_below_cluster_spread_raises(self):
        # one cluster with exponents -1 +- 0.01: at eps = 0.005 the weighted
        # period map grows in both time directions, so the doubled norms
        # overflow before any stop
        restrictions = [np.diag([math.exp(-0.99), math.exp(-1.01)])]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TailCertificationError,
                               match="no certified contraction: .* rho = "):
                block_frames(restrictions, -1.0, 0.005)

    def test_random_scenario_blocks_match_stepwise_reference(self):
        # one scenario of each period and block shape
        for index in range(12, 24):
            scenario = random_scenario(index)
            c, config = scenario.cocycle, scenario.config
            spectrum = monodromy_spectrum(c, float(config["epsilon"]),
                                          float(config["resonance_tol"]),
                                          float(config["cluster_tol"]))
            tail_tol = float(config["tail_tol"])
            frames = lyapunov_frames(c, spectrum, tail_tol)
            assert np.all((0.0 < frames.tail_bound) & (frames.tail_bound <= tail_tol))
            # dim times the block-diagonal sums
            G = frames.grams / c.dim
            tails = frames.tail_bound * np.linalg.norm(G, axis=(1, 2))
            space = GradedSpace(spectrum.multiplicities)
            for i, chi in enumerate(spectrum.exponents, start=1):
                sl = space.block_slice(i)
                restrictions = list(c.linears[:, sl, sl])
                for k in range(c.period):
                    assert_gram_within_tails(G[k, sl, sl], tails[k], restrictions, chi,
                                             spectrum.epsilon, k, tail_tol)


class TestStopGroups:
    """One ``_transported_sum`` call over several stop groups gives every
    group the bits of a call of its own."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.data(), st.integers(1, 4), st.integers(1, 3))
    def test_groups_have_the_bits_of_calls_of_their_own(self, data, K, groups):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        types, r, c = rng.integers(1, 4, 3)
        X = rng.uniform(-1, 1, (types, K, r, r)) * rng.uniform(0.2, 0.9) / r
        Y = rng.uniform(-1, 1, (types, K, c, c)) * rng.uniform(0.2, 0.9) / c
        # sources of many sizes stop at different doublings; one group may have none
        Q = rng.uniform(-1, 1, (groups, types, K, r, c)) * 10.0 ** rng.integers(
            -8, 4, (groups, 1, 1, 1, 1))
        zero = data.draw(st.integers(0, groups))
        if zero < groups:
            Q[zero] = 0.0
        nxt = (np.arange(K) + 1) % K
        G, terms, tails = _transported_sum(Q, X, Y, nxt, K, 1e-13, 10_000, "the test")
        assert G.shape == Q.shape and terms.shape == (groups,) and tails.shape == (groups, K)
        for g in range(groups):
            alone = _transported_sum(Q[g], X, Y, nxt, K, 1e-13, 10_000, "the test")
            want = series_reference.transported_sum(Q[g], X, Y, nxt, K, 1e-13, 10_000, "x")
            for got in (alone, want):
                assert G[g].tobytes() == got[0].tobytes() and terms[g] == got[1]
                assert tails[g].tobytes() == got[2].tobytes()

    def test_frames_are_one_stop_group(self, monkeypatch):
        # both time directions of every block are one group: the frames are
        # those of the single-group doubling, bit for bit
        calls = []

        def single(Q, *args):
            calls.append(Q.ndim)
            return series_reference.transported_sum(Q, *args)

        for index in range(12, 24):
            scenario = random_scenario(index)
            c, config = scenario.cocycle, scenario.config
            spectrum = monodromy_spectrum(c, float(config["epsilon"]))
            got = lyapunov_frames(c, spectrum, float(config["tail_tol"]))
            monkeypatch.setattr(cocycle_module, "_transported_sum", single)
            want = lyapunov_frames(c, spectrum, float(config["tail_tol"]))
            monkeypatch.undo()
            assert calls.pop() == 4
            for field in ("grams", "horizon", "tail_bound", "k_eps", "lambda_min"):
                assert getattr(got, field).tobytes() == getattr(want, field).tobytes()


class TestSandwich:
    def test_diagonal_tight(self):
        c = linear_cocycle([np.diag([math.exp(-2.0), math.exp(-1.0)])], block_dims=(1, 1))
        spec = monodromy_spectrum(c, epsilon=0.1)
        frames = lyapunov_frames(c, spec)
        rep = sandwich_check(c, spec, frames)
        assert rep.max_violation <= 1e-8
        assert rep.keps_ok
        assert rep.lambda_min_gram >= 1.0 - 1e-6
        # one (point, block, n) envelope per block and n = +-1..+-12
        assert rep.n_envelopes == 2 * 24
        assert rep.passed

    def test_tolerance_decides_the_verdict(self):
        # in euclidean frames the per-step rates chi +- 0.03 leave the
        # envelope of eps = 0.01 by 0.02
        a1 = [math.exp(-2.0 + 0.03), math.exp(-2.0 - 0.03)]
        a2 = [math.exp(-1.0 - 0.03), math.exp(-1.0 + 0.03)]
        c = linear_cocycle(
            [np.diag([a1[0], a2[0]]), np.diag([a1[1], a2[1]])], block_dims=(1, 1)
        )
        spec = monodromy_spectrum(c, epsilon=0.05)
        frames = sandwich_reference.euclidean_frames(2, 2)
        narrow = dataclasses.replace(spec, epsilon=0.01)
        violation = sandwich_check(c, narrow, frames).max_violation
        assert violation == pytest.approx(0.02, abs=1e-12)
        for tol, verdict in ((0.5 * violation, False), (2.0 * violation, True)):
            rep = sandwich_check(c, narrow, frames, tol=tol)
            assert rep.max_violation == violation
            assert rep.passed is verdict
            assert rep.to_dict()["tol"] == tol and rep.to_dict()["passed"] is verdict

    def test_period2_wobble(self):
        # per-step rates chi +- 0.03 stay inside the eps = 0.05 envelope
        a1 = [math.exp(-2.0 + 0.03), math.exp(-2.0 - 0.03)]
        a2 = [math.exp(-1.0 - 0.03), math.exp(-1.0 + 0.03)]
        c = linear_cocycle(
            [np.diag([a1[0], a2[0]]), np.diag([a1[1], a2[1]])], block_dims=(1, 1)
        )
        spec = monodromy_spectrum(c, epsilon=0.05)
        assert spec.exponents == pytest.approx((-2.0, -1.0), abs=1e-12)
        frames = lyapunov_frames(c, spec)
        rep = sandwich_check(c, spec, frames)
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
        spec = monodromy_spectrum(c, epsilon=0.05)
        assert spec.multiplicities == (2, 1)
        frames = lyapunov_frames(c, spec)
        rep = sandwich_check(c, spec, frames)
        assert rep.max_violation <= 1e-6

    def test_violation_sampling_misses(self):
        # one 2-dimensional block whose per-step rates are chi +- 0.03 along
        # the two axes: in euclidean frames one step leaves the envelope of
        # eps = 0.01 by exactly 0.02, but only along the axes themselves
        A0 = np.diag([math.exp(-1.0 + 0.03), math.exp(-1.0 - 0.03)])
        A1 = np.diag([math.exp(-1.0 - 0.03), math.exp(-1.0 + 0.03)])
        c = linear_cocycle([A0, A1])
        spec = monodromy_spectrum(c, epsilon=0.01)
        assert spec.multiplicities == (2,)
        frames = sandwich_reference.euclidean_frames(2, 2)
        rep = sandwich_check(c, spec, frames)
        assert rep.max_violation == pytest.approx(0.02, abs=1e-12)
        assert rep.passed is False
        sampled, _, _ = sandwich_reference.sandwich_sample(c, spec, frames)
        assert sampled < 0.02 - 1e-6

    def test_nan_envelope_fails(self, monkeypatch):
        # a NaN in one envelope is a violation that fails the check, not
        # one that a running maximum drops
        scenario = build_builtin("koenigs_period2")
        c = scenario.cocycle
        spec = monodromy_spectrum(c, float(scenario.config["epsilon"]))
        frames = lyapunov_frames(c, spec)
        assert sandwich_check(c, spec, frames).passed

        def with_nan(*args, _fn=cocycle_module.log_envelopes):
            steps, envelopes = _fn(*args)
            envelopes[0][1, 0, 1] = np.nan
            return steps, envelopes

        monkeypatch.setattr(cocycle_module, "log_envelopes", with_nan)
        rep = sandwich_check(c, spec, frames)
        assert math.isnan(rep.max_violation)
        assert rep.passed is False and rep.to_dict()["passed"] is False

    @pytest.mark.parametrize("period, wobble", [
        (32, 0.05), (64, 0.05), (256, 0.05), (32, 2.0), (64, 2.0), (256, 2.0)],
        ids=["32", "64", "256", "32-wobble2", "64-wobble2", "256-wobble2"])
    def test_long_period_verdict(self, period, wobble):
        # a splitting off the coordinate blocks by rounding alone leaks the
        # slow block into the fast one by e^(1.2 n) times that rounding;
        # block-diagonal products keep exact zeros off the blocks.  Unscaled,
        # the backward products over n = 2K steps grow as e^(2 n) and leave
        # the float range at K = 256; scaled by exp(-chi_i) they do not
        c = random_cocycle(np.random.default_rng(1), (-2.0, -0.8), (2, 2), period,
                           amp=0.05, degree=4, wobble=wobble)
        ctx = SolverContext.prepare(c, 0.04, 4)
        rep = sandwich_check(c, ctx.spectrum, ctx.frames)
        assert rep.max_violation <= rep.tol and rep.passed

    @pytest.mark.parametrize("n_max", [0, -3])
    def test_n_max_below_one_rejected(self, n_max):
        c = linear_cocycle([np.diag([math.exp(-2.0), math.exp(-1.0)])], block_dims=(1, 1))
        spec = monodromy_spectrum(c, epsilon=0.1)
        frames = lyapunov_frames(c, spec)
        with pytest.raises(ValueError, match=r"n_max must satisfy n_max >= 1"):
            sandwich_check(c, spec, frames, n_max=n_max)

    def test_off_block_linear_entry_rejected(self):
        # block slices of the n-step maps are exact only on a grading-adapted
        # cocycle, so one with an off-block linear entry is refused by name
        A1 = np.diag([math.exp(-2.0), math.exp(-1.0)])
        A1[1, 0] = 0.1
        c = linear_cocycle([np.diag([math.exp(-2.0), math.exp(-1.0)]), A1], block_dims=(1, 1))
        frames = sandwich_reference.euclidean_frames(2, 2)
        spec = Spectrum((-2.0, -1.0), (1, 1), 0.1)
        for run in (lambda: log_envelopes(c, frames, 3), lambda: sandwich_check(c, spec, frames)):
            with pytest.raises(ValueError, match="fiber map 1 is not grading-adapted"):
                run()

    @pytest.mark.parametrize("seed", [1, 7])
    @pytest.mark.parametrize("name", builtin_names())
    def test_builtin_envelopes_match_ambient_reference(self, name, seed):
        scenario = build_builtin(name, seed)
        c = scenario.cocycle
        frames = lyapunov_frames(c, monodromy_spectrum(c, float(scenario.config["epsilon"])))
        assert envelope_gap(c, frames, max(2 * c.period, 12)) <= 1e-12

    def test_random_envelopes_match_ambient_reference(self):
        for index in range(48):
            scenario = random_scenario(index)
            c = scenario.cocycle
            spec = monodromy_spectrum(c, float(scenario.config["epsilon"]))
            frames = lyapunov_frames(c, spec, float(scenario.config["tail_tol"]))
            assert envelope_gap(c, frames, max(2 * c.period, 12)) <= 1e-12, index

    def test_narrow_gram_deficit_fails_comparison(self):
        # a frame whose Gram dips just below 1 along one eigenvector, a
        # direction random vectors all but never hit
        c = linear_cocycle([np.diag([math.exp(-2.0), math.exp(-1.0)])], block_dims=(1, 1))
        spec = monodromy_spectrum(c, epsilon=0.1)
        frames = lyapunov_frames(c, spec)
        lam, U = np.linalg.eigh(frames.grams[0])
        lam[0] = 1.0 - 1e-8
        narrow = LyapunovFrames(((U * lam) @ U.T)[None])
        rep = sandwich_check(c, spec, narrow)
        assert rep.lambda_min_gram == pytest.approx(1.0 - 1e-8, abs=1e-12)
        assert rep.keps_ok is False and rep.passed is False
        assert sandwich_reference.sandwich_sample(c, spec, narrow)[1] is True


def envelope_gap(c, frames, n_max):
    """Largest gap, in log units, between the block envelopes and those of
    the ambient products of the reference."""
    steps, envelopes = log_envelopes(c, frames, n_max)
    ref_steps, reference = sandwich_reference.ambient_log_envelopes(c, frames, n_max)
    assert steps.tobytes() == ref_steps.tobytes()
    return max(float(np.max(np.abs(e - r))) for e, r in zip(envelopes, reference))


EXPONENTS = {1: (-1.0,), 2: (-2.0, -0.8), 3: (-1.2, -0.8, -0.4)}


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.integers(1, 3), st.lists(st.integers(1, 3), min_size=1, max_size=3),
       st.integers(0, 2**32 - 1), st.booleans())
def test_envelopes_contain_every_sampled_ratio(period, dims, seed, built_frames):
    rng = np.random.default_rng(seed)
    exponents = EXPONENTS[len(dims)]
    c = random_cocycle(rng, exponents, dims, period, degree=1, wobble=0.3)
    if built_frames:
        spec = monodromy_spectrum(c, epsilon=0.05)
        frames = lyapunov_frames(c, spec)
    else:
        # any positive definite Grams over the coordinate blocks
        spec = Spectrum(exponents, tuple(dims), 0.05)
        m = c.dim
        C = rng.standard_normal((period, m, m))
        frames = LyapunovFrames(np.eye(m) + C @ C.transpose(0, 2, 1))
    n_max = 4
    steps, envelopes = log_envelopes(c, frames, n_max)
    assert envelope_gap(c, frames, n_max) <= 1e-12
    rep = sandwich_check(c, spec, frames, n_max=n_max)
    sampled, keps_ok, ratios = sandwich_reference.sandwich_sample(c, spec, frames, n_max=n_max)
    for (k, i, n), values in ratios.items():
        lo, hi = envelopes[i - 1][k, list(steps).index(n)]
        assert lo - 1e-12 <= min(values) and max(values) <= hi + 1e-12
    assert rep.max_violation >= sampled - 1e-12
    assert keps_ok or not rep.keps_ok
