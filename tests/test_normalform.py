import itertools
import math
import tracemalloc
import warnings

import index_reference
import numpy as np
import pytest
import series_reference
import transfer_reference
import window_reference
from check_reference import coeff_diff, gauge_lift, subresonance_split
from dict_reference import reference_compose
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitnf import grading, normalform, polymap
from orbitnf.cli import _gauge_lift, _prepare_context, run_checks, run_scenario
from orbitnf.cocycle import OrbitCocycle
from orbitnf.grading import Spectrum, contraction_factor
from orbitnf.normalform import (
    NormalFormResult,
    SeriesBudgetError,
    SeriesStagnationError,
    SolverContext,
    _degree_loop,
    _DegreeOperator,
    _series,
    _source_vecs,
    _window_sweep,
    solve_cycles,
    solve_homogeneous_degree,
    solve_normal_form,
    solve_window,
)
from orbitnf.polymap import (
    GradedSpace,
    PolyMap,
    _linear_jets,
    _linear_parts,
    _mono_table,
    composition_table,
    compose_truncated,
    degree_cols,
    jet_width,
    stack_jets,
)
from orbitnf.scenarios import build_builtin, builtin_names, random_cocycle, random_scenario
from orbitnf.verify import direct_normal_form, direct_solve_oracle

SETTINGS = settings(derandomize=True, max_examples=40, deadline=None)
S1 = GradedSpace((1,))
S11 = GradedSpace((1, 1))


def scalar_cocycle(coeff_lists):
    maps = []
    for coeffs_by_degree in coeff_lists:
        coeffs = {(0, (n,)): c for n, c in coeffs_by_degree.items() if c != 0.0}
        deg = max(coeffs_by_degree)
        maps.append(PolyMap(S1, S1, deg, np.zeros(1), coeffs))
    return OrbitCocycle(S1, tuple(maps))


def koenigs_cocycle(quad=0.1):
    return scalar_cocycle([{1: 0.5, 2: quad}])


def resonant2_cocycle():
    coeffs = {
        (0, (1, 0)): math.exp(-2.0),
        (0, (0, 2)): 0.3,
        (1, (0, 1)): math.exp(-1.0),
    }
    return OrbitCocycle(S11, (PolyMap(S11, S11, 2, np.zeros(2), coeffs),))


def nonresonant2_cocycle():
    coeffs = {
        (0, (1, 0)): math.exp(-1.0),
        (1, (0, 1)): math.exp(-0.4),
        (1, (2, 0)): 0.2,
    }
    return OrbitCocycle(S11, (PolyMap(S11, S11, 2, np.zeros(2), coeffs),))


def twisted_reference(pmap, linear, max_degree=None):
    """Phi(R) = A^{-1} o R o A by dict composition, independent of the operator."""
    A = np.asarray(linear, dtype=float)
    deg = pmap.degree if max_degree is None else max_degree
    outer = PolyMap.from_linear(np.linalg.inv(A), pmap.target, pmap.target, 1)
    inner = PolyMap.from_linear(A, pmap.source, pmap.source, 1)
    return reference_compose(outer, reference_compose(pmap, inner, deg), deg)


def homogeneous(space, n, c):
    """The degree-n map with coefficient array c."""
    jet = np.zeros((space.dim, jet_width(space.dim, n)))
    jet[:, degree_cols(space.dim, n)] = c
    return PolyMap.from_jet(space, space, n, jet)


def jet_stacks(h_maps, p_maps, degree):
    """Jet stacks of the conjugators and normal forms of one cycle of the
    degree loop, and the successor map of the normal forms: the cycle
    k -> k + 1 mod K with as many conjugators as maps, the chain k -> k + 1
    with one more."""
    nxt = np.arange(1, len(p_maps) + 1) % len(h_maps)
    return [stack_jets(group, degree)[None] for group in (h_maps, p_maps)] + [nxt]


def series_alone(op, q_vecs, series_tol, max_terms):
    """``_series`` on the (K, m, n) sources of one cycle: its conjugator
    terms and diagnostics."""
    H, (info,) = _series(op, np.asarray(q_vecs)[None], series_tol, max_terms)
    return H[0], info


def sweep_alone(rows, op, q_vecs):
    """``_window_sweep(rows)`` on the sources of one forest: R and its diagnostics."""
    R, (info,) = _window_sweep(rows)(op, q_vecs[None])
    return R[0], info


def table_operator(space, structure, n, jets, order):
    """Degree-n operator over the composition table of a jet stack through
    `order`, its linear parts inverted at this degree alone."""
    linears = np.ascontiguousarray(_linear_parts(jets, space.dim))
    return _DegreeOperator(space, structure, n, composition_table(jets, space.dim, order),
                           linears, np.linalg.inv(linears))


def linear_operator(space, structure, n, linears):
    """Degree-n operator of bare linear parts, over the table of those linear maps."""
    return table_operator(space, structure, n, _linear_jets(np.asarray(linears, dtype=float)), n)


def apply(op, k, c):
    """Masked transfer of a coefficient array through step k."""
    return op.mask * (op.ainvs[k] @ c @ op.substs[k])


def dense_phi(op, k):
    """Dense matrix of apply(op, k, .) on row-major flattened coefficients."""
    return op.mask.ravel()[:, None] * np.kron(op.ainvs[k], op.substs[k].T)


def dense_certificate(op, period):
    """(q, rho) from products and norms of the dense one-step matrices."""
    phis = [dense_phi(op, k) for k in range(period)]
    psis = []
    for p in range(period):
        P = np.eye(phis[0].shape[0])
        for j in range(period):
            P = P @ phis[(p + j) % period]
        psis.append(P)
    q = 1
    while q <= transfer_reference.MAX_SERIES_CERT_POWER:
        rho = max(float(np.linalg.norm(P, ord=2)) for P in psis)
        if rho < 1.0:
            return q, rho
        psis = [P @ P for P in psis]
        q *= 2
    raise AssertionError("dense reference found no contraction")


def dense_oracle(op, q_vecs):
    """(I - T) x = q over the non-admissible slots of every orbit point at once."""
    K = len(q_vecs)
    idx = np.flatnonzero(op.mask.ravel())
    nn = idx.size
    L = np.eye(K * nn)
    rhs = np.zeros(K * nn)
    for k in range(K):
        nxt = (k + 1) % K
        L[k * nn:(k + 1) * nn, nxt * nn:(nxt + 1) * nn] -= dense_phi(op, k)[np.ix_(idx, idx)]
        rhs[k * nn:(k + 1) * nn] = q_vecs[k].ravel()[idx]
    x = np.linalg.solve(L, rhs)
    out = []
    for k in range(K):
        flat = np.zeros(op.mask.size)
        flat[idx] = x[k * nn:(k + 1) * nn]
        out.append(flat.reshape(op.mask.shape))
    return out


def rotation(theta):
    return np.array([[math.cos(theta), -math.sin(theta)],
                     [math.sin(theta), math.cos(theta)]])


def sheared_operator(period, n):
    """Operator over dims (2, 1) whose fast block is a sheared rotation.

    The fast blocks of different steps do not commute, so the order of the
    one-period product matters, and the shear makes some one-period norms
    exceed one, so the reference certificate needs q > 1.
    """
    space = GradedSpace((2, 1))
    structure = Spectrum((-2.0, -1.0), (2, 1), 0.05).structure
    linears = []
    for k in range(period):
        A = np.zeros((3, 3))
        A[:2, :2] = math.exp(-2.0) * rotation(0.3 + 0.5 * k) @ np.array([[1.0, 1.0],
                                                                         [0.0, 1.0]])
        A[2, 2] = math.exp(-1.0 + 0.1 * k)
        linears.append(A)
    return linear_operator(space, structure, n, linears)


def koenigs_start(ctx):
    """Operator inputs before degree 2: identity conjugator, linear normal form."""
    h = [PolyMap.identity(S1, ctx.order)]
    p = [PolyMap.from_linear(np.array([[0.5]]), S1, S1, 1)]
    return h, p


class TestTwistedTransfer:
    def test_scalar_quadratic(self):
        a = math.exp(-0.7)
        R = PolyMap(S1, S1, 2, np.zeros(1), {(0, (2,)): 1.0})
        out = twisted_reference(R, np.array([[a]]))
        # Ainv R(At) = a^{-1} a^2 t^2 = a t^2
        assert out.coeffs[(0, (2,))] == pytest.approx(a, rel=1e-14)
        structure = Spectrum((-0.7,), (1,), 0.05).structure
        op = linear_operator(S1, structure, 2, [np.array([[a]])])
        assert apply(op, 0, R.part(2))[0, 0] == pytest.approx(a, rel=1e-14)

    def test_cross_block_linear_scale(self):
        A = np.diag([math.exp(-2.0), math.exp(-1.0)])
        R = PolyMap(S11, S11, 1, np.zeros(2), {(1, (1, 0)): 1.0})
        out = twisted_reference(R, A)
        # target block 2, source block 1: factor exp(chi_1 - chi_2) = e^{-1}
        assert out.coeffs[(1, (1, 0))] == pytest.approx(math.exp(-1.0), rel=1e-14)
        structure = Spectrum((-2.0, -1.0), (1, 1), 0.05).structure
        op = linear_operator(S11, structure, 1, [A])
        via_matrix = apply(op, 0, R.part(1))
        assert via_matrix[1, _mono_table(2, 1)[1][(1, 0)]] == pytest.approx(math.exp(-1.0),
                                                                         rel=1e-14)

    def test_matches_matrix_operator(self):
        rng = np.random.default_rng(17)
        for dims, exponents in (((2, 1), (-2.0, -1.0)), ((2, 3), (-2.0, -0.8))):
            space = GradedSpace(dims)
            structure = Spectrum(exponents, dims, 0.03).structure
            A = np.zeros((space.dim, space.dim))
            A[:2, :2] = 0.1 * rotation(0.4)
            Q, _ = np.linalg.qr(rng.standard_normal((dims[1], dims[1])))
            A[2:, 2:] = math.exp(exponents[1]) * Q
            for n in (2, 3, 4, 5):
                op = linear_operator(space, structure, n, [A])
                coeffs = {}
                for i in range(space.dim):
                    for alpha in _mono_table(space.dim, n)[0]:
                        coeffs[(i, alpha)] = float(rng.uniform(-1, 1))
                R = PolyMap(space, space, n, np.zeros(space.dim), coeffs)
                via_matrix = apply(op, 0, R.part(n))
                full = twisted_reference(R, A, max_degree=n)
                _, n_part = subresonance_split(full, structure)
                assert np.max(np.abs(via_matrix - n_part.part(n))) <= 1e-13


class TestTypedOperator:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_dense_operator_is_type_diagonal(self, n):
        op = sheared_operator(2, n)
        label = -np.ones(op.mask.shape, dtype=int)
        for t, (rows, cols) in enumerate(op.types):
            label[rows, cols] = t
        assert np.array_equal(label >= 0, op.mask)
        label = label.ravel()
        rng = np.random.default_rng(n)
        for k in range(2):
            phi = dense_phi(op, k)
            c = rng.uniform(-1, 1, op.mask.shape)
            assert np.max(np.abs(phi @ c.ravel() - apply(op, k, c).ravel())) <= 1e-13
            assert not phi[label[:, None] != label[None, :]].any()

    def test_types_read_the_block_degree_groups(self, monkeypatch):
        # the types come from the cached grouping of the monomials, with no
        # block-degree call per monomial; in sorted block degrees, then blocks
        space = GradedSpace((2, 2, 1))
        structure = Spectrum((-1.2, -0.8, -0.4), (2, 2, 1), 0.02).structure
        A = np.diag(np.exp([-1.2, -1.2, -0.8, -0.8, -0.4]))
        monos = _mono_table(space.dim, 3)[0]
        want = [(i, [j for j, a in enumerate(monos) if space.block_degrees(a) == s])
                for s in sorted({space.block_degrees(a) for a in monos})
                for i in (1, 2, 3) if (i, s) not in structure.admissible(sum(s))]
        assert len(want) > 1

        def per_monomial(self, alpha):
            raise AssertionError("block degrees of one monomial")

        monkeypatch.setattr(GradedSpace, "block_degrees", per_monomial)
        op = linear_operator(space, structure, 3, [A])
        assert [(rows, list(cols)) for rows, cols in op.types] == \
            [(space.block_slice(i), cols) for i, cols in want]

    @pytest.mark.parametrize("period", [1, 2, 3])
    def test_certificate_matches_dense_reference(self, period):
        qs = []
        for n in (2, 3, 4):
            op = sheared_operator(period, n)
            q, rho = transfer_reference.series_certificate(op, period)
            q_ref, rho_ref = dense_certificate(op, period)
            assert q == q_ref
            assert abs(rho - rho_ref) <= 1e-14 * rho_ref
            qs.append(q)
        if period > 1:
            assert max(qs) > 1

    def test_certificate_all_admissible_degree(self):
        # a single block at degree 1 keeps every type: nothing to transfer
        space = GradedSpace((2,))
        structure = Spectrum((-1.0,), (2,), 0.05).structure
        op = linear_operator(space, structure, 1,
                             [0.4 * rotation(0.7), 0.3 * rotation(-0.2)])
        assert op.types == [] and not op.mask.any()
        q, rho = transfer_reference.series_certificate(op, 2)
        assert (q, rho) == (1, 0.0) == dense_certificate(op, 2)
        H, info = series_alone(op, np.zeros((2,) + op.mask.shape), 1e-13, 10_000)
        assert info["short_circuit"] and info["series_terms"] == 0 and not H.any()

    def test_certificate_memory_on_ladder_degree5(self):
        coc = random_cocycle(np.random.default_rng(1), (-2.0, -0.8), (2, 3), 2, amp=0.05)
        op = SolverContext.prepare(coc, 0.03, 5).operator(5)
        q_vecs = op.mask * np.random.default_rng(5).uniform(-1, 1, (2,) + op.mask.shape)
        tracemalloc.start()
        try:
            H, info = series_alone(op, q_vecs, 1e-13, 10_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000
        assert_series_matches_reference(op, q_vecs, H, info)

    def test_certificate_overflow_stops_at_once(self):
        # the T-period norms grow like e^{8T}: the doubling overflows near
        # T = 64 and must end with a named error, not a numpy warning
        structure = Spectrum((-2.0, -1.0), (2, 1), 0.02).structure
        A = np.zeros((3, 3))
        A[:2, :2] = math.exp(-2.0) * np.array([[1.0, 1.2], [0.0, 1.0]])
        A[2, 2] = math.exp(-12.0)
        op = linear_operator(GradedSpace((2, 1)), structure, 2, [A])
        q_vecs = op.mask * np.ones((1,) + op.mask.shape)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SeriesStagnationError, match=r"degree 2 .* rho = "):
                series_alone(op, q_vecs, 1e-13, 10_000)

    def test_expanding_type_without_source_refused(self):
        # linear parts diag(0.5, 0.1) against declared exponents (-2, -1): the
        # type (2, x1^2) grows by 2.5 a period.  With no source its tail
        # bound is 0 * inf = NaN, which must not pass the stop test, though
        # every other type certifies at T = 64
        structure = Spectrum((-2.0, -1.0), (1, 1), 0.05).structure
        op = linear_operator(S11, structure, 2, [np.diag([0.5, 0.1])])
        q_vecs = op.mask * np.ones((1,) + op.mask.shape)
        q_vecs[0, 1, _mono_table(2, 2)[1][(2, 0)]] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SeriesStagnationError, match="degree 2"):
                series_alone(op, q_vecs, 1e-13, 10_000)

    @pytest.mark.parametrize("period", [1, 2, 3])
    def test_oracle_matches_dense_solve(self, period):
        rng = np.random.default_rng(period)
        for n in (2, 3):
            op = sheared_operator(period, n)
            q_vecs = [op.mask * rng.uniform(-1, 1, op.mask.shape) for _ in range(period)]
            (h_vecs,), _ = direct_solve_oracle(op, np.array(q_vecs)[None])
            for h, h_ref in zip(h_vecs, dense_oracle(op, q_vecs)):
                assert np.max(np.abs(h - h_ref)) <= 1e-12 * max(1.0, np.max(np.abs(h_ref)))


# the benchmark's scaling ladder: (dims, period, order, epsilon)
LADDER = [((2, 2), 2, 4, 0.04), ((1, 1, 1), 3, 5, 0.02), ((2, 2), 2, 6, 0.04),
          ((2, 3), 2, 5, 0.03), ((3, 3), 1, 4, 0.03)]
LADDER_EXPONENTS = {2: (-2.0, -0.8), 3: (-1.2, -0.8, -0.4)}


def ladder_context(dims, period, order, epsilon, seed=1):
    coc = random_cocycle(np.random.default_rng(seed), LADDER_EXPONENTS[len(dims)], dims,
                         period, amp=0.05)
    return SolverContext.prepare(coc, epsilon, order)


def ladder_operators():
    """(operator, period) for every degree of every ladder row."""
    out = []
    for dims, period, order, epsilon in LADDER:
        ctx = ladder_context(dims, period, order, epsilon)
        out += [(ctx.operator(n), period) for n in range(2, order + 1)]
    return out


def assert_series_matches_reference(op, q_vecs, H, info, series_tol=1e-13):
    """H from ``_series`` against the stepwise reference, within both tails.

    Also checks the diagnostics: T K terms with T a power of two, and a tail
    within series_tol of the largest solution norm.
    """
    period = len(q_vecs)
    H_ref, info_ref = transfer_reference.run_series(op, q_vecs, series_tol, 10_000, period)
    gap = info["tail_bound"] + info_ref["tail_bound"] + 1e-15 * np.max(np.abs(H_ref))
    assert np.max(np.abs(H - np.array(H_ref))) <= gap
    assert not (~op.mask * H).any()
    T, rest = divmod(info["series_terms"], period)
    assert rest == 0 and T & (T - 1) == 0
    h_norm = float(np.linalg.norm(H, axis=(-2, -1)).max())
    assert 0.0 < info["tail_bound"] <= series_tol * max(1.0, h_norm)


class TestBatchedTransfer:
    """The doubled series against the per-type, per-phase loops."""

    @staticmethod
    def check(op, period, seed):
        rng = np.random.default_rng(seed)
        q_vecs = op.mask * rng.uniform(-1, 1, (period,) + op.mask.shape)
        H, info = series_alone(op, q_vecs, 1e-13, 10_000)
        assert_series_matches_reference(op, q_vecs, H, info)

    @pytest.mark.parametrize("period", [1, 2, 3])
    def test_sheared_operator(self, period):
        for n in (2, 3, 4):
            self.check(sheared_operator(period, n), period, 10 * period + n)

    def test_ladder_operators(self):
        for t, (op, period) in enumerate(ladder_operators()):
            self.check(op, period, t)

    def test_term_budget(self):
        op = sheared_operator(2, 2)
        q_vecs = op.mask * np.random.default_rng(3).uniform(-1, 1, (2,) + op.mask.shape)
        H, info = series_alone(op, q_vecs, 1e-13, 10_000)
        terms = info["series_terms"]
        H_cap, info_cap = series_alone(op, q_vecs, 1e-13, terms)
        assert np.array_equal(H, H_cap) and info_cap == info
        for cap in (terms - 1, 1):
            # one term is below the period: not even the first period fits
            with pytest.raises(SeriesBudgetError, match=f"degree 2 .* within {cap} terms"):
                series_alone(op, q_vecs, 1e-13, cap)

    def test_every_phase_certified(self):
        # X -> a_k X at degree 2 with a = (0.5, 0.01) and sources at phase 0
        # only: H(1) = 0.01 H(0), so after T periods the tail bound is
        # 0.005^T at phase 0 and 0.01 * 0.005^T at phase 1.  At T = 4 only
        # phase 1 is within 1e-11; both are at T = 8, 16 terms.
        structure = Spectrum((-0.7,), (1,), 0.05).structure
        op = linear_operator(S1, structure, 2, [np.array([[0.5]]), np.array([[0.01]])])
        q_vecs = np.zeros((2,) + op.mask.shape)
        q_vecs[0] = 1.0
        H, info = series_alone(op, q_vecs, 1e-11, 10_000)
        assert info["series_terms"] == 16
        assert info["tail_bound"] == pytest.approx(0.005 ** 8, rel=1e-12)
        exact = np.array([1.0, 0.01]) / (1.0 - 0.005)
        assert np.max(np.abs(H[:, 0, 0] - exact)) <= 1e-15

    def test_nan_source_never_certifies(self):
        op = sheared_operator(1, 2)
        q_vecs = op.mask * np.ones((1,) + op.mask.shape)
        rows, cols = op.types[0]
        q_vecs[0, rows.start, cols[0]] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SeriesStagnationError, match="degree 2"):
                series_alone(op, q_vecs, 1e-13, 10_000)


def series_inputs(ctx):
    """(operator, twisted sources) of every degree the series solves in ctx."""
    seen = []

    def transfer(op, q_vecs):
        seen.append((op, q_vecs[0].copy()))
        return _series(op, q_vecs, ctx.series_tol, ctx.max_series_terms)

    solve_cycles(ctx, [(transfer, None)])
    return seen


def assert_series_as_reference(op, q_vecs, series_tol=1e-13, max_terms=10_000):
    """_series gives the reference's bytes and diagnostics, or its error."""
    try:
        want = series_reference.series(op, q_vecs, series_tol, max_terms)
    except (SeriesBudgetError, SeriesStagnationError) as exc:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(type(exc)) as got:
                series_alone(op, q_vecs, series_tol, max_terms)
        assert str(got.value) == str(exc)
        return
    H, info = series_alone(op, q_vecs, series_tol, max_terms)
    assert H.dtype == want[0].dtype and H.shape == want[0].shape
    assert H.tobytes() == want[0].tobytes()
    assert info == want[1]


class TestSeriesReference:
    """The batched gathers and norm-taken exponents change no bit of the series."""

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("row", LADDER + [((3, 3), 1, 5, 0.03), ((2, 2), 2, 7, 0.04)],
                             ids=str)
    def test_ladder(self, row, seed):
        ctx = ladder_context(*row, seed=seed)
        inputs = series_inputs(ctx)
        assert len(inputs) == ctx.order - 1
        for op, q_vecs in inputs:
            assert_series_as_reference(op, q_vecs, ctx.series_tol, ctx.max_series_terms)

    def test_random_scenarios(self):
        periods = set()
        for index in range(12, 72):
            scenario = random_scenario(index)
            ctx = _prepare_context(scenario.cocycle, scenario.config)
            periods.add(ctx.cocycle.period)
            for op, q_vecs in series_inputs(ctx):
                assert_series_as_reference(op, q_vecs, ctx.series_tol, ctx.max_series_terms)
        assert periods == {1, 2, 3, 4}

    def test_nan_source(self):
        op = sheared_operator(2, 3)
        q_vecs = op.mask * np.ones((2,) + op.mask.shape)
        rows, cols = op.types[-1]
        q_vecs[1, rows.start, cols[-1]] = np.nan
        assert_series_as_reference(op, q_vecs)

    def test_source_free_expanding_type(self):
        # diag(0.5, 0.1) against declared exponents (-2, -1): the type
        # (2, x1^2) grows by 2.5 a period and has no source
        structure = Spectrum((-2.0, -1.0), (1, 1), 0.05).structure
        op = linear_operator(S11, structure, 2, [np.diag([0.5, 0.1])])
        q_vecs = op.mask * np.ones((1,) + op.mask.shape)
        q_vecs[0, 1, _mono_table(2, 2)[1][(2, 0)]] = 0.0
        assert_series_as_reference(op, q_vecs)

    def test_budget(self):
        op = sheared_operator(3, 2)
        q_vecs = op.mask * np.ones((3,) + op.mask.shape)
        assert_series_as_reference(op, q_vecs, 1e-13, 6)


class TestSources:
    def test_koenigs_q2(self):
        c = koenigs_cocycle()
        ctx = SolverContext.prepare(c, 0.05, 6)
        h, p = koenigs_start(ctx)
        op = ctx.operator(2)
        (s_vecs,) = _source_vecs(op, *jet_stacks(h, p, ctx.order))
        assert homogeneous(S1, 2, s_vecs[0]).coeffs == {(0, (2,)): 0.1}
        q = op.source(s_vecs)[0]
        assert q[0, _mono_table(1, 2)[1][(2,)]] == pytest.approx(0.2, abs=1e-15)

    def test_koenigs_q3_after_degree2(self):
        c = koenigs_cocycle()
        ctx = SolverContext.prepare(c, 0.05, 6)
        h, p = koenigs_start(ctx)
        op2 = ctx.operator(2)
        (H2,), (P2,), _ = solve_homogeneous_degree(op2, *jet_stacks(h, p, ctx.order),
                                                   [(ctx.series, None)])
        jet = h[0].jet.copy()
        jet[:, degree_cols(1, 2)] += H2[0]
        h[0] = PolyMap.from_jet(S1, S1, h[0].degree, jet)
        op3 = ctx.operator(3)
        q = op3.source(_source_vecs(op3, *jet_stacks(h, p, ctx.order)))[0, 0]
        assert q[0, _mono_table(1, 3)[1][(3,)]] == pytest.approx(0.08, abs=1e-12)

    def test_source_composition_memory_on_ladder_degree5(self):
        # H o F reads the prebuilt composition table; the composition P o H
        # holds one row of the stack and one multiplication matrix at a time
        ctx = ladder_context((2, 3), 2, 5, 0.03)
        res = solve_normal_form(ctx)
        cols = degree_cols(5, 5)
        stacks = []
        for maps in (res.conjugator, res.normal_form):
            jets = stack_jets(maps, 5)
            jets[..., cols] = 0.0
            stacks.append(jets[None])
        stacks.append((np.arange(ctx.cocycle.period) + 1) % ctx.cocycle.period)
        op = ctx.operator(5)
        expected = _source_vecs(op, *stacks)
        tracemalloc.start()
        try:
            s_vecs = _source_vecs(op, *stacks)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert np.array_equal(s_vecs, expected)


def window_case(seed):
    """Two flag-preserving maps over dims (2, 1) and conjugators with degree-2 terms."""
    rng = np.random.default_rng(seed)
    space = GradedSpace((2, 1))
    structure = Spectrum((-2.0, -1.0), (2, 1), 0.05).structure
    quad = _mono_table(3, 2)[0]

    def random_quadratic(base):
        """base with random coefficients in every degree-2 slot."""
        coeffs = dict(base.coeffs)
        coeffs.update({(i, a): float(rng.uniform(-1, 1)) for i in range(3) for a in quad})
        return PolyMap(space, space, base.degree, np.zeros(3), coeffs)

    linears, maps = [], []
    for _ in range(2):
        # block upper triangular with a full fast block: flag preserving, not adapted
        A = np.triu(rng.uniform(-0.3, 0.3, (3, 3)), 1) + np.diag([0.14, 0.13, 0.37])
        A[1, 0] = rng.uniform(-0.1, 0.1)
        linears.append(A)
        maps.append(random_quadratic(PolyMap.from_linear(A, space, space, 2)))
    h_maps = [random_quadratic(PolyMap.identity(space, 3)) for _ in range(3)]
    p_maps = [PolyMap.from_linear(A, space, space, 1) for A in linears]
    return space, structure, maps, linears, h_maps, p_maps, rng


class TestFinishDegree:
    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_compose_reference(self, n):
        space, structure, maps, linears, h_maps, p_maps, rng = window_case(5 + n)
        op = table_operator(space, structure, n, stack_jets(maps, 3), 3)
        h_vecs = [rng.uniform(-1, 1, op.mask.shape) for _ in range(3)]

        def given(op_, q_vecs):
            return np.array([h_vecs]), [{}]

        _, (p_vecs,), (diag,) = solve_homogeneous_degree(
            op, *jet_stacks(h_maps, p_maps, 3), [(given, None)])
        residue = 0.0
        for k in range(2):
            A_map = PolyMap.from_linear(linears[k], space, space, 1)
            Hk, Hnext = homogeneous(space, n, h_vecs[k]), homogeneous(space, n, h_vecs[k + 1])
            source = homogeneous(space, n, reference_compose(h_maps[k + 1], maps[k], n).part(n)
                                 - reference_compose(p_maps[k], h_maps[k], n).part(n))
            term = PolyMap.from_jet(space, space, n, source.jet
                                    + reference_compose(Hnext, A_map, n).jet
                                    - reference_compose(A_map, Hk, n).jet)
            s_part, _ = subresonance_split(term, structure)
            assert np.max(np.abs(p_vecs[k] - s_part.part(n))) <= 1e-13
            residue = max(residue, coeff_diff(term, s_part))
        if n <= structure.degree_bound:
            assert p_vecs[0].any()
            assert diag["defect"] is None
            assert abs(diag["admissible_violation"] - residue) <= 1e-13
        else:
            assert diag["admissible_violation"] is None
            assert abs(diag["defect"] - residue) <= 1e-13


class TestScalarSolves:
    def test_koenigs_closed_form(self):
        c = koenigs_cocycle()
        ctx = SolverContext.prepare(c, 0.05, 6)
        res = solve_normal_form(ctx)
        h = res.conjugator[0]
        assert h.coeffs[(0, (2,))] == pytest.approx(0.4, abs=1e-12)
        assert h.coeffs[(0, (3,))] == pytest.approx(8.0 / 75.0, abs=1e-12)
        p = res.normal_form[0]
        assert p.coeffs == {(0, (1,)): 0.5}
        assert res.structure.degree_bound == 1

    def test_koenigs_conjugacy_identity(self):
        c = koenigs_cocycle()
        ctx = SolverContext.prepare(c, 0.05, 6)
        res = solve_normal_form(ctx)
        h = res.conjugator[0]
        p = res.normal_form[0]
        lhs = compose_truncated(h, c.map_at(0), 6)
        rhs = compose_truncated(p, h, 6)
        assert coeff_diff(lhs, rhs) <= 1e-13

    def test_quadratic_scaling_linearity(self):
        for eta in (0.5, 2.0):
            c = koenigs_cocycle(quad=0.1 * eta)
            ctx = SolverContext.prepare(c, 0.05, 3)
            res = solve_normal_form(ctx)
            h2 = res.conjugator[0].coeffs[(0, (2,))]
            assert h2 == pytest.approx(0.4 * eta, abs=1e-12)

    def test_period2_closed_form(self):
        c = scalar_cocycle([{1: 0.5, 2: 0.1}, {1: 0.4}])
        ctx = SolverContext.prepare(c, 0.05, 5)
        res = solve_normal_form(ctx)
        assert res.conjugator[0].coeffs[(0, (2,))] == pytest.approx(0.25, abs=1e-12)
        assert res.conjugator[1].coeffs[(0, (2,))] == pytest.approx(0.1, abs=1e-12)
        assert not res.normal_form_jets[..., 2:].any()

    def test_series_diagnostics(self):
        c = koenigs_cocycle()
        ctx = SolverContext.prepare(c, 0.05, 3)
        res = solve_normal_form(ctx)
        d2 = res.diagnostics["degrees"][0]
        assert d2["degree"] == 2
        assert d2["tail_bound"] <= 1e-13 * max(1.0, d2["solution_norm"])
        # X -> X / 2 per period and H = 0.4: the tail bound 0.4 / 2^T first
        # drops below 1e-13 at T = 64, exactly
        assert d2["series_terms"] == 64
        assert d2["tail_bound"] == pytest.approx(0.4 * 0.5 ** 64, rel=1e-12)
        assert {"certificate_q", "certificate_rho", "measured_period_ratio"}.isdisjoint(d2)
        # the one-period transfer contracts at the spectral rate
        q, rho = transfer_reference.series_certificate(ctx.operator(2), 1)
        assert q == 1 and rho <= contraction_factor(ctx.spectrum, 2) * 1.05
        # the defect is the series truncation residue, bounded by series_tol
        assert d2["defect"] <= 10.0 * ctx.series_tol


class TestPlanarSolves:
    def test_resonant_pair_exact(self):
        c = resonant2_cocycle()
        ctx = SolverContext.prepare(c, 0.05, 4)
        res = solve_normal_form(ctx)
        h = res.conjugator[0]
        assert h.coeffs == {(0, (1, 0)): 1.0, (1, (0, 1)): 1.0}
        assert res.normal_form[0].coeffs == c.map_at(0).coeffs
        d2 = res.diagnostics["degrees"][0]
        assert d2["short_circuit"] is True

    def test_nonresonant_pair_closed_form(self):
        c = nonresonant2_cocycle()
        ctx = SolverContext.prepare(c, 0.02, 3)
        res = solve_normal_form(ctx)
        h = res.conjugator[0]
        expected = 0.2 / (math.exp(-0.4) - math.exp(-2.0))
        assert h.coeffs[(1, (2, 0))] == pytest.approx(expected, abs=1e-10)
        assert coeff_diff(res.normal_form[0], res.normal_form[0].truncated(1)) <= 1e-15

    def test_admissible_violation_small(self):
        c = resonant2_cocycle()
        ctx = SolverContext.prepare(c, 0.05, 4)
        res = solve_normal_form(ctx)
        for diag in res.diagnostics["degrees"]:
            if diag["admissible_violation"] is not None:
                assert diag["admissible_violation"] <= 1e-14
            if diag["defect"] is not None:
                assert diag["defect"] <= 1e-14


class TestLift:
    def test_lift_changes_gauge_only(self):
        c = resonant2_cocycle()
        delta = 0.3
        lift = PolyMap(S11, S11, 2, np.zeros(2), {(0, (0, 2)): delta})
        ctx = SolverContext.prepare(c, 0.05, 4)
        res = solve_normal_form(ctx, lift)
        h = res.conjugator[0]
        assert h.coeffs[(0, (0, 2))] == pytest.approx(delta, abs=1e-14)
        # conjugacy identity still holds
        lhs = compose_truncated(h, c.map_at(0), 4)
        rhs = compose_truncated(res.normal_form[0], h, 4)
        assert coeff_diff(lhs, rhs) <= 1e-12

    def test_non_admissible_lift_ignored(self):
        c = resonant2_cocycle()
        # below-flag quadratic is not admissible: must be dropped
        lift = PolyMap(S11, S11, 2, np.zeros(2), {(1, (2, 0)): 0.5})
        ctx = SolverContext.prepare(c, 0.05, 4)
        res = solve_normal_form(ctx, lift)
        assert res.conjugator[0].coeffs == {(0, (1, 0)): 1.0, (1, (0, 1)): 1.0}

    def test_lift_leaves_no_state_behind(self, monkeypatch):
        # one context solves lifted, unlifted and lifted again, then runs the
        # dense oracle lifted: one table, one operator per degree and one
        # inversion of the linear parts serve them all, and the unlifted
        # solve has the bits of a fresh context's
        scenario = random_scenario(14)  # period 3, degree bound 3
        c = scenario.cocycle
        plain_fresh = solve_normal_form(_prepare_context(c, scenario.config))
        ctx = _prepare_context(c, scenario.config)
        lift = gauge_lift(ctx, 0.05)
        (slot,) = lift.coeffs
        built = []

        class Counted(_DegreeOperator):
            def __init__(self, *args):
                built.append(args[2])
                super().__init__(*args)

        def counted(name, fn):
            def wrapper(*args):
                built.append(name)
                return fn(*args)
            return wrapper

        monkeypatch.setattr(normalform, "_DegreeOperator", Counted)
        monkeypatch.setattr(normalform, "composition_table",
                            counted("table", normalform.composition_table))
        monkeypatch.setattr(np.linalg, "inv", counted("inv", np.linalg.inv))
        lifted = solve_normal_form(ctx, lift)
        assert built == ["table", "inv", *range(2, ctx.order + 1)]
        built.clear()
        plain = solve_normal_form(ctx)
        lifted_again = solve_normal_form(ctx, lift)
        direct = direct_normal_form(ctx, lift)
        assert built == []
        for a, b in ((plain, plain_fresh), (lifted_again, lifted)):
            assert a.conjugator_jets.tobytes() == b.conjugator_jets.tobytes()
            assert a.normal_form_jets.tobytes() == b.normal_form_jets.tobytes()
        assert plain.conjugator[0].coeffs.get(slot, 0.0) == 0.0
        assert all(h.coeffs[slot] == 0.05 for h in lifted.conjugator)
        assert coeff_diff(lifted.conjugator_jets, direct.conjugator_jets) <= 1e-10
        assert coeff_diff(lifted.normal_form_jets, direct.normal_form_jets) <= 1e-10


class TestValidation:
    def test_order_below_degree_bound(self):
        c = resonant2_cocycle()
        with pytest.raises(ValueError):
            SolverContext.prepare(c, 0.05, 1)

    def test_non_adapted_rejected(self):
        theta = 0.3
        A = np.array([[0.2 * math.cos(theta), -0.2 * math.sin(theta)],
                      [0.2 * math.sin(theta), 0.2 * math.cos(theta)]])
        # declared grading (1, 1) but the linear part mixes the blocks
        pm = PolyMap.from_linear(A, S11, S11, 1)
        c = OrbitCocycle(S11, (pm,))
        spec = Spectrum((-2.0, -1.0), (1, 1), 0.05)
        with pytest.raises(ValueError):
            SolverContext(c, spec, 4)

    def test_misordered_blocks_rejected(self):
        # coordinate block 1 contracts at the rate -0.5 and block 2 at -2,
        # so the sorted exponents (-2, -0.5) belong to the blocks swapped
        coeffs = {(0, (1, 0)): math.exp(-0.5), (0, (0, 2)): 0.3, (1, (0, 1)): math.exp(-2.0)}
        c = OrbitCocycle(S11, (PolyMap(S11, S11, 2, np.zeros(2), coeffs),))
        with pytest.raises(ValueError, match="coordinate block 1 does not carry its "
                                             "exponent chi_1 = -2:"):
            SolverContext.prepare(c, 0.05, 6)

    def test_grading_mismatch_rejected(self):
        c = resonant2_cocycle()
        spec = Spectrum((-1.5,), (2,), 0.05)
        with pytest.raises(ValueError):
            SolverContext(c, spec, 4)


def same_solve(got, want) -> bool:
    """Two results with the same bytes of jets and the same diagnostics."""
    return (got.conjugator_jets.tobytes() == want.conjugator_jets.tobytes()
            and got.normal_form_jets.tobytes() == want.normal_form_jets.tobytes()
            and repr(got.diagnostics) == repr(want.diagnostics))


class TestOneLoop:
    """The main solve, the gauge check's lifted twin and the oracle's dense
    re-solve as cycles of one degree loop, each with the bits of its own loop."""

    @pytest.mark.parametrize("case", builtin_names() + list(range(48)), ids=str)
    def test_cycles_have_the_bits_of_loops_of_their_own(self, case):
        scenario = build_builtin(case) if isinstance(case, str) else random_scenario(case)
        ctx = _prepare_context(scenario.cocycle, scenario.config)
        lift = _gauge_lift(ctx, {"delta": 0.05})[0]
        fused = solve_cycles(ctx, [(ctx.series, None), (ctx.series, lift),
                                   (direct_solve_oracle, None)])
        alone = [solve_normal_form(ctx), solve_normal_form(ctx, lift), direct_normal_form(ctx)]
        assert all(same_solve(got, want) for got, want in zip(fused, alone, strict=True))

    def test_series_cycles_share_one_sum(self, monkeypatch):
        # both series cycles go through one doubling per degree, the oracle
        # through one call of its own
        scenario = build_builtin("koenigs_period2")
        ctx = _prepare_context(scenario.cocycle, scenario.config)
        sums, oracles = [], []

        def counted_sum(Q, *args, _fn=normalform._transported_sum):
            sums.append(Q.shape[:-4])
            return _fn(Q, *args)

        def counted_oracle(op, q_vecs):
            oracles.append(len(q_vecs))
            return direct_solve_oracle(op, q_vecs)

        monkeypatch.setattr(normalform, "_transported_sum", counted_sum)
        lift = _gauge_lift(ctx, {"delta": 0.05})[0]
        solve_cycles(ctx, [(ctx.series, None), (ctx.series, lift), (counted_oracle, None)])
        assert sums == [(2,)] * (ctx.order - 1) and oracles == [1] * (ctx.order - 1)


class TestLazyFrames:
    def test_solve_builds_no_frames(self, monkeypatch):
        calls = []

        def counted(*args, _fn=normalform.lyapunov_frames, **kwargs):
            calls.append(args)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(normalform, "lyapunov_frames", counted)
        ctx = ladder_context(*LADDER[0])
        solve_normal_form(ctx)
        assert calls == []
        frames = ctx.frames
        assert ctx.frames is frames and len(calls) == 1
        assert frames.grams.shape == (ctx.cocycle.period, ctx.cocycle.dim, ctx.cocycle.dim)


def window_jets(maps, degree):
    """Window-major jet stack of one window, shape (W, 1, m, w)."""
    return stack_jets(maps, degree)[:, None]


class TestWindow:
    def test_matches_periodic_solution(self):
        c = koenigs_cocycle()
        ctx = SolverContext.prepare(c, 0.05, 4)
        res = solve_normal_form(ctx)
        h, p, diag = solve_window(window_jets([c.map_at(0)] * 80, 2), S1, ctx.structure, 4)
        assert h.shape == (81, 1, 1, jet_width(1, 4)) and p.shape == (80, 1, 1, jet_width(1, 4))
        assert diag["window"] == 80
        assert coeff_diff(h[0, 0], res.conjugator_jets[0]) <= 1e-10
        assert np.max(np.abs(p[0, 0][:, 2:])) <= 1e-12  # the nonlinear part

    def test_below_flag_window_rejected(self):
        c = nonresonant2_cocycle()
        spec = Spectrum((-1.0, -0.4), (1, 1), 0.02)
        structure = spec.structure
        # recenter at a nonzero point: the linearization gains a below-flag entry
        F = c.map_at(0)
        y = np.array([0.1, 0.0])
        shifted = compose_truncated(F, PolyMap(S11, S11, 2, y, PolyMap.identity(S11, 2).coeffs), 2)
        recentered = PolyMap(S11, S11, 2, np.zeros(2), shifted.coeffs)
        with pytest.raises(ValueError, match="window map 0 has a below-flag"):
            solve_window(window_jets([recentered], 2), S11, structure, 3)
        # the offending step is named, and a map off the origin is refused
        with pytest.raises(ValueError, match="window map 2 has a below-flag"):
            solve_window(window_jets([F, F, recentered], 2), S11, structure, 3)
        with pytest.raises(ValueError, match="window map 1 does not fix the origin"):
            solve_window(window_jets([F, shifted], 2), S11, structure, 3)

    def test_terminal_zero_decays(self):
        c = scalar_cocycle([{1: 0.5, 2: 0.1}, {1: 0.4}])
        ctx = SolverContext.prepare(c, 0.05, 3)
        res = solve_normal_form(ctx)
        window = [c.map_at(k) for k in range(60)]
        h, _, _ = solve_window(window_jets(window, 2), S1, ctx.structure, 3)
        for k in (0, 1):
            assert coeff_diff(h[k, 0], res.conjugator_jets[k]) <= 1e-10

    @pytest.mark.parametrize("steps", [64, 2000, 5000])
    def test_expanding_window_diverges_without_warnings(self, steps):
        # a = 2 makes the degree-2 transfer Ainv X subst = 2 X: the sweep grows
        # like 2^steps, past the guard at 64 steps and past the float range at
        # 2000; at 5000 the overflow crosses from one scan chunk into the next
        expanding = PolyMap(S1, S1, 2, np.zeros(1), {(0, (1,)): 2.0, (0, (2,)): 0.3})
        structure = Spectrum((-0.7,), (1,), 0.05).structure
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SeriesStagnationError, match="degree 2"):
                solve_window(window_jets([expanding] * steps, 2), S1, structure, 3)


WINDOW_SPECTRA = {
    (1,): (-0.7,),
    (1, 1): (-2.0, -0.8),
    (2, 1): (-2.0, -1.0),
    (1, 2): (-1.5, -0.5),
}


def flag_preserving_linears(rng, dims, exponents, shape):
    """Block upper triangular matrices of the given leading shape.

    Diagonal block i is exp(chi_i + delta) times an orthogonal matrix with
    |delta| <= 0.05, the blocks above the flag are uniform in [-0.5, 0.5].
    """
    space = GradedSpace(dims)
    block = np.array(space.block_of_coord)
    out = rng.uniform(-0.5, 0.5, shape + (space.dim, space.dim))
    out[..., block[:, None] > block[None, :]] = 0.0
    for i, chi in enumerate(exponents, start=1):
        sl = space.block_slice(i)
        Q, _ = np.linalg.qr(rng.standard_normal(shape + (dims[i - 1],) * 2))
        scale = np.exp(chi + rng.uniform(-0.05, 0.05, shape))
        out[..., sl, sl] = scale[..., None, None] * Q
    return out


def forest_rows(W, P, J):
    """Rows of step k of window p, shape (W + 1, P), numbered in step order
    as ``solve_window`` numbers them when the P windows share steps J..W-1
    and the terminal row."""
    rows = np.empty((W + 1, P), dtype=np.intp)
    rows[:J] = np.arange(J * P).reshape(J, P)
    rows[J:] = J * P + np.arange(W + 1 - J)[:, None]
    return rows


def forest_successors(rows):
    """The successor map of the map rows of a forest, for ``_degree_loop``."""
    nxt = np.empty(rows[:-1].max() + 1, dtype=np.intp)
    nxt[rows[:-1]] = rows[1:]
    return nxt


def assert_scan_matches_stepwise_reference(dims, W, P, J):
    """The sweep over windows sharing steps J..W-1 equals the stepwise reference."""
    rng = np.random.default_rng(1000 * W + 10 * P + len(dims) + dims[0] + (J < W))
    space = GradedSpace(dims)
    structure = Spectrum(WINDOW_SPECTRA[dims], dims, 0.02).structure
    rows = forest_rows(W, P, J)
    N = rows.max()
    linears = flag_preserving_linears(rng, dims, WINDOW_SPECTRA[dims], (N,))
    for n in (2, 3, 4, 5):
        op = linear_operator(space, structure, n, linears)
        q_vecs = op.mask * rng.uniform(-1, 1, (N,) + op.mask.shape)
        R, info = sweep_alone(rows, op, q_vecs)
        R_ref, info_ref = window_reference.window_sweep(op, q_vecs, rows)
        assert R.shape == R_ref.shape == (N + 1,) + op.mask.shape
        assert not R[N].any() and not (~op.mask * R).any()
        assert np.max(np.abs(R - R_ref)) <= 1e-13 * np.max(np.abs(R_ref))
        assert info["max_sweep_norm"] == pytest.approx(info_ref["max_sweep_norm"], rel=1e-13)


class TestWindowSweep:
    @pytest.mark.parametrize("P", [1, 3])
    @pytest.mark.parametrize("W", [1, 2, 3, 7, 64, 588])
    @pytest.mark.parametrize("dims", list(WINDOW_SPECTRA))
    def test_scan_matches_stepwise_reference(self, dims, W, P):
        # the P windows meet only at the terminal row
        assert_scan_matches_stepwise_reference(dims, W, P, W)

    @pytest.mark.parametrize("P", [1, 3])
    @pytest.mark.parametrize("W", [1, 2, 3, 7, 64, 588])
    @pytest.mark.parametrize("dims", list(WINDOW_SPECTRA))
    def test_shared_scan_matches_stepwise_reference(self, dims, W, P):
        # the P windows run as one chain from step W // 2
        assert_scan_matches_stepwise_reference(dims, W, P, W // 2)

    @pytest.mark.parametrize("W", [5000, 9000])
    def test_long_windows_match_stepwise_reference(self, W):
        # the admissible type (1, (0, 2)) grows like e^{0.4 k}: a product over
        # 4096 steps leaves the float range under any power-of-two balancing,
        # so the scan must work in chunks whose products stay far shorter
        dims, exponents = (1, 1), (-2.0, -0.8)
        rng = np.random.default_rng(3)
        structure = Spectrum(exponents, dims, 0.02).structure
        op = linear_operator(GradedSpace(dims), structure, 2,
                             flag_preserving_linears(rng, dims, exponents, (W,)))
        q_vecs = op.mask * rng.uniform(-1, 1, (W,) + op.mask.shape)
        rows = forest_rows(W, 1, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            R, info = sweep_alone(rows, op, q_vecs)
        R_ref, info_ref = window_reference.window_sweep(op, q_vecs, rows)
        assert np.max(np.abs(R - R_ref)) <= 1e-13 * np.max(np.abs(R_ref))
        assert info["max_sweep_norm"] == pytest.approx(info_ref["max_sweep_norm"], rel=1e-13)

    def test_solve_window_matches_stepwise_reference(self):
        rng = np.random.default_rng(7)
        space, structure, maps, _, _, _, _ = window_case(11)
        W, P = 40, 3
        steps = rng.integers(0, len(maps), (W, P))
        jets = stack_jets(maps, 2)[steps]
        h, p, diag = solve_window(jets, space, structure, 4)
        rows, fibers = forest_rows(W, P, W), jets.reshape(W * P, *jets.shape[2:])
        (h_ref,), (p_ref,), (diags_ref,) = _degree_loop(
            fibers, forest_successors(rows),
            lambda n: table_operator(space, structure, n, fibers, 4), 4,
            [(transfer_reference.one_cycle(
                lambda op, q_vecs: window_reference.window_sweep(op, q_vecs, rows)), None)])
        h_ref, p_ref = h_ref[rows], p_ref[rows[:-1]]
        assert np.max(np.abs(h - h_ref)) <= 1e-13 * np.max(np.abs(h_ref))
        assert np.max(np.abs(p - p_ref)) <= 1e-13 * np.max(np.abs(p_ref))
        assert [d["degree"] for d in diag["per_degree"]] == [2, 3, 4]

    def test_one_inverse_per_table(self):
        # a context and a window stack invert their linear parts once for
        # all degrees, with the bits of an inversion per degree
        for dims, period, order, epsilon in LADDER:
            ctx = ladder_context(dims, period, order, epsilon)
            ops = [ctx.operator(n) for n in range(2, order + 1)]
            assert all(op.ainvs is ops[0].ainvs for op in ops)
            assert np.array_equal(ops[0].ainvs, np.linalg.inv(ops[0].linears))
        rng = np.random.default_rng(7)
        space, structure, maps, _, _, _, _ = window_case(11)
        jets = stack_jets(maps, 2)[rng.integers(0, len(maps), (40, 3))]
        h, p, _ = solve_window(jets, space, structure, 4)
        rows, fibers = forest_rows(40, 3, 40), jets.reshape(120, *jets.shape[2:])
        (h_ref,), (p_ref,), _ = _degree_loop(
            fibers, forest_successors(rows),
            lambda n: table_operator(space, structure, n, fibers, 4), 4,
            [(_window_sweep(rows), None)])
        assert np.array_equal(h, h_ref[rows]) and np.array_equal(p, p_ref[rows[:-1]])

    @SETTINGS
    @given(st.data(), st.sampled_from(list(WINDOW_SPECTRA)), st.integers(1, 5))
    def test_step_keeps_admissible_slots_admissible(self, data, dims, n):
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        space = GradedSpace(dims)
        structure = Spectrum(WINDOW_SPECTRA[dims], dims, 0.02).structure
        op = linear_operator(space, structure, n,
                             flag_preserving_linears(rng, dims, WINDOW_SPECTRA[dims], (1,)))
        X = ~op.mask * rng.uniform(-1, 1, op.mask.shape)
        assert not (op.mask * (op.ainvs[0] @ X @ op.substs[0])).any()


def shared_windows(rng, dims, W, P, J):
    """(W, P, m, w) stack of flag-preserving maps with degree-2 terms, the P
    windows drawn apart before step J and equal from it."""
    m = sum(dims)
    linears = flag_preserving_linears(rng, dims, WINDOW_SPECTRA[dims], (W, P))
    jets = np.zeros((W, P, m, jet_width(m, 2)))
    jets[..., :m + 1] = _linear_jets(linears)
    quad = degree_cols(m, 2)
    jets[..., quad] = rng.uniform(-0.3, 0.3, (W, P, m, quad.stop - quad.start))
    jets[J:] = jets[J:, :1]
    return jets


def solved_rows(monkeypatch):
    """Record the number of map rows of every degree loop run after it."""
    rows = []
    loop = normalform._degree_loop

    def counted(fibers, *args):
        rows.append(len(fibers))
        return loop(fibers, *args)

    monkeypatch.setattr(normalform, "_degree_loop", counted)
    return rows


def assert_forest_equals_alone(jets, space, structure, order):
    """solve_window on the stack equals solving every window alone, to the
    bit: H, P and the per-degree diagnostics, whose norms and residues are
    the largest over the windows."""
    h, p, diag = solve_window(jets, space, structure, order)
    alone = [solve_window(jets[:, [j]], space, structure, order) for j in range(jets.shape[1])]
    assert h.tobytes() == np.concatenate([a[0] for a in alone], axis=1).tobytes()
    assert p.tobytes() == np.concatenate([a[1] for a in alone], axis=1).tobytes()
    assert diag["window"] == len(jets)
    for got, each in zip(diag["per_degree"], zip(*(a[2]["per_degree"] for a in alone))):
        assert got.keys() == each[0].keys()
        for key, value in got.items():
            values = [d[key] for d in each]
            if isinstance(value, float):
                assert value.hex() == max(values).hex(), key
            else:
                assert all(v == value for v in values), key


class TestWindowForest:
    """solve_window solves the steps its windows share once, to the bits of
    solving every window alone."""

    @SETTINGS
    @given(st.data(), st.sampled_from(list(WINDOW_SPECTRA)), st.integers(1, 40),
           st.integers(1, 4), st.integers(2, 4))
    def test_shared_suffix_equals_windows_alone(self, data, dims, W, P, order):
        J = data.draw(st.integers(0, W))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        structure = Spectrum(WINDOW_SPECTRA[dims], dims, 0.02).structure
        assert_forest_equals_alone(shared_windows(rng, dims, W, P, J), GradedSpace(dims),
                                   structure, order)

    @pytest.mark.parametrize("J", [0, 30])
    def test_no_shared_step_and_all_shared(self, monkeypatch, J):
        # J = 0: one chain of W rows; J = W: the windows meet at the terminal row
        rng = np.random.default_rng(J)
        dims, W, P = (2, 1), 30, 3
        structure = Spectrum(WINDOW_SPECTRA[dims], dims, 0.02).structure
        jets = shared_windows(rng, dims, W, P, J)
        rows = solved_rows(monkeypatch)
        assert_forest_equals_alone(jets, GradedSpace(dims), structure, 3)
        assert rows[0] == J * P + W - J

    def test_signed_zero_is_not_shared(self, monkeypatch):
        # the windows agree in value everywhere, but one degree-2 slot of
        # window 1 at step 20 is -0.0 against 0.0: steps 0..20 stay apart
        dims, W, P = (1, 1), 40, 2
        structure = Spectrum(WINDOW_SPECTRA[dims], dims, 0.02).structure
        jets = shared_windows(np.random.default_rng(5), dims, W, P, 0)
        jets[:, :, 0, degree_cols(2, 2).start] = 0.0
        jets[20, 1, 0, degree_cols(2, 2).start] = -0.0
        assert np.array_equal(jets[:, 0], jets[:, 1])
        rows = solved_rows(monkeypatch)
        assert_forest_equals_alone(jets, GradedSpace(dims), structure, 3)
        assert rows[0] == 21 * P + W - 21

    @pytest.mark.parametrize("J", [2040, 2056])
    def test_shared_suffix_across_the_chunk_boundary(self, monkeypatch, J):
        # W = 2500 is scanned in two chunks, split at step 2048
        dims, W, P = (1, 1), 2500, 2
        structure = Spectrum(WINDOW_SPECTRA[dims], dims, 0.02).structure
        jets = shared_windows(np.random.default_rng(J), dims, W, P, J)
        rows = solved_rows(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_forest_equals_alone(jets, GradedSpace(dims), structure, 3)
        assert rows[0] == J * P + W - J

    @pytest.mark.parametrize("dims", [(1,), (1, 1)])
    @pytest.mark.parametrize("W,P,J", [(7, 3, 4), (588, 3, 300), (2500, 2, 2040),
                                       (2500, 2, 2056), (4097, 1, 0)])
    def test_sweep_has_the_bits_of_the_doubling_scan(self, dims, W, P, J):
        # every row adds the operands of its window's own scan in the same
        # association, so the forest reproduces the scan of the unshared
        # (W, P) stacks bit for bit, across chunk boundaries too
        rng = np.random.default_rng(W + J + len(dims))
        space = GradedSpace(dims)
        structure = Spectrum(WINDOW_SPECTRA[dims], dims, 0.02).structure
        rows = forest_rows(W, P, J)
        linears = flag_preserving_linears(rng, dims, WINDOW_SPECTRA[dims], (rows.max(),))
        for n in (2, 3):
            op = linear_operator(space, structure, n, linears)
            q_vecs = op.mask * rng.uniform(-1, 1, (rows.max(),) + op.mask.shape)
            R, _ = sweep_alone(rows, op, q_vecs)
            steps = rows[:-1]
            scan = window_reference.doubling_scan(op.ainvs[steps], op.substs[steps], op.mask,
                                                  q_vecs[steps])
            assert R[rows].tobytes() == scan.tobytes()

    def test_diverging_window_names_its_step(self):
        # window 0 expands (a = 2) before the shared contracting steps from
        # 70, window 1 contracts throughout: the forest raises at the step
        # window 0 raises at alone
        expanding = PolyMap(S1, S1, 2, np.zeros(1), {(0, (1,)): 2.0, (0, (2,)): 0.3})
        contracting = PolyMap(S1, S1, 2, np.zeros(1), {(0, (1,)): 0.5, (0, (2,)): 0.1})
        structure = Spectrum((-0.7,), (1,), 0.05).structure
        jets = np.stack([stack_jets([expanding] * 70 + [contracting] * 30, 2),
                         stack_jets([contracting] * 100, 2)], axis=1)
        with pytest.raises(SeriesStagnationError, match="degree 2, step") as alone:
            solve_window(jets[:, :1], S1, structure, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SeriesStagnationError) as forest:
                solve_window(jets, S1, structure, 3)
        assert str(forest.value) == str(alone.value)
        solve_window(jets[:, 1:], S1, structure, 3)


    def test_guard_reads_the_sources_of_each_window(self):
        # window 0 expands for 40 steps, to about 1e12 times its sources;
        # window 1 carries sources near 1e8: the guard must still hold
        # window 0's rows to window 0's sources, as each window alone does
        expanding = PolyMap(S1, S1, 2, np.zeros(1), {(0, (1,)): 2.0, (0, (2,)): 0.3})
        heavy = PolyMap(S1, S1, 2, np.zeros(1), {(0, (1,)): 0.5, (0, (2,)): 1e8})
        contracting = PolyMap(S1, S1, 2, np.zeros(1), {(0, (1,)): 0.5, (0, (2,)): 0.1})
        structure = Spectrum((-0.7,), (1,), 0.05).structure
        jets = np.stack([stack_jets([expanding] * 40 + [contracting] * 30, 2),
                         stack_jets([heavy] * 40 + [contracting] * 30, 2)], axis=1)
        solve_window(jets[:, 1:], S1, structure, 3)
        with pytest.raises(SeriesStagnationError, match="degree 2, step") as alone:
            solve_window(jets[:, :1], S1, structure, 3)
        with pytest.raises(SeriesStagnationError) as forest:
            solve_window(jets, S1, structure, 3)
        assert str(forest.value) == str(alone.value)

class TestLadderAgainstOracle:
    """Whole ladder solves against the dense oracle's degree loop (seed 1)."""

    @pytest.mark.parametrize("row", LADDER + [((3, 3), 1, 5, 0.03), ((2, 2), 2, 7, 0.04)],
                             ids=str)
    def test_conjugators_match_the_oracle(self, row):
        ctx = ladder_context(*row)
        res, direct = solve_normal_form(ctx), direct_normal_form(ctx)
        assert coeff_diff(res.conjugator_jets, direct.conjugator_jets) <= 1e-14
        assert coeff_diff(res.normal_form_jets, direct.normal_form_jets) <= 1e-14

    @pytest.mark.parametrize("row", LADDER, ids=str)
    def test_problem_sizes(self, row):
        ctx = ladder_context(*row)
        diagnostics = solve_normal_form(ctx).diagnostics
        space, M, st = ctx.cocycle.space, ctx.order, ctx.structure
        m = space.dim
        for rec in diagnostics["degrees"]:
            n = rec["degree"]
            sizes = [rec[key] for key in ("monomials", "slots", "admissible_slots", "types")]
            assert all(type(v) is int for v in sizes)
            assert rec["monomials"] == math.comb(m + n - 1, n)
            assert rec["slots"] == m * rec["monomials"]
            assert rec["admissible_slots"] == st.mask(n).sum()
            # the non-admissible types (i, s): a target block and block degrees summing to n
            degrees = [s for s in itertools.product(range(n + 1), repeat=space.n_blocks)
                       if sum(s) == n]
            assert rec["types"] == sum((i, s) not in st.admissible(n)
                                       for s in degrees for i in range(1, space.n_blocks + 1))
        floats = sum(math.comb(m + k - 1, k) * (math.comb(m + M, m) - math.comb(m + k - 1, m))
                     for k in range(1, M + 1))
        assert diagnostics["table_bytes"] == 8 * ctx.cocycle.period * floats


@pytest.fixture(scope="module")
def workload_plans(tmp_path_factory):
    """The arguments of every power plan that one pass of each benchmark
    workload asks for, every plan built again: prepare and solve of the
    ladder rows; prepare, solve and checks of random_scenario(12..23);
    run_scenario on the six builtins, chart check and window solves
    included."""
    powers = set()
    power_plan = polymap._power_plan

    def record_power(*args):
        powers.add(args)
        return power_plan(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(polymap, "_power_plan", record_power)
        power_plan.cache_clear()  # so that every plan is built again
        for row in LADDER:
            solve_normal_form(ladder_context(*row))
        for index in range(12, 24):
            scenario = random_scenario(index)
            ctx = _prepare_context(scenario.cocycle, scenario.config)
            run_checks(ctx, solve_normal_form(ctx), scenario.cocycle, scenario.config)
        out = tmp_path_factory.mktemp("builtins")
        for name in builtin_names():
            assert run_scenario(name, out_dir=str(out / name)) == 0
    return powers


class TestPowerPlans:
    def test_row_windows_cut_the_filtered_plans(self, workload_plans):
        """The multiplication plan of every step that the workloads' power
        plans hold is the full entry list filtered by the column windows of
        the power below and of the step, as sets."""
        windows = set()
        for args in workload_plans:
            dim, degree, plan = *args[1:3], polymap._power_plan(*args)
            for (lo, hi, *_), (lo_k, hi_k, _, mul, _) in zip(plan, plan[1:]):
                windows.add((dim, degree, lo, hi, lo_k, hi_k))
                flat, src, rows, cols = mul
                want_flat, want_src, want_shape = index_reference.mul_plan(
                    dim, degree, (lo, hi), (lo_k, hi_k))
                assert (rows, cols) == want_shape
                assert len(set(flat.tolist())) == len(flat)
                assert (set(zip(flat.tolist(), src.tolist()))
                        == set(zip(want_flat.tolist(), want_src.tolist())))
        assert len(windows) > 50

    def test_workload_plans_equal_the_reference(self, workload_plans):
        """Every power plan that the workloads ask for equals the one built
        from filtered full entry lists: the same scatter entries as a set,
        and the same windows, matmul shapes, slices and chunks."""
        assert len(workload_plans) > 50
        for args in workload_plans:
            index_reference.assert_same_plan(
                polymap._power_plan(*args),
                index_reference.power_plan(*args, polymap.PRODUCT_MACS))


def index_stores():
    """Every index-table store of grading and polymap by name: the caches
    and the tables grown per key."""
    return {f"{f.__module__.rsplit('.', 1)[1]}.{f.__qualname__}": f
            for module in (grading, polymap) for f in vars(module).values()
            if hasattr(f, "cache_info") or hasattr(f, "store")}


class TestFirstUseBuilds:
    """The index tables a cold solve of each ladder row builds: every cache
    miss, and every build of a grown table.  A change that builds more of
    them in a fresh interpreter shows here before it shows in the
    benchmark."""

    # one index per dimension (the blocks' for the resonance table, the
    # coordinates' for the solve; the same dimension grown once more for
    # (1, 1, 1), from degree d + 1 = 4 to the order 5), one type table,
    # one set of product tables and one power plan per degree
    BUILDS = {
        ((2, 2), 2, 4, 0.04): {"polymap._monomials": 2, "grading._type_table": 1,
                               "polymap._product_tables": 1, "polymap._power_plan": 4},
        ((1, 1, 1), 3, 5, 0.02): {"polymap._monomials": 2, "grading._type_table": 1,
                                  "polymap._product_tables": 1, "polymap._power_plan": 5},
        ((2, 2), 2, 6, 0.04): {"polymap._monomials": 2, "grading._type_table": 1,
                               "polymap._product_tables": 1, "polymap._power_plan": 6},
        ((2, 3), 2, 5, 0.03): {"polymap._monomials": 2, "grading._type_table": 1,
                               "polymap._product_tables": 1, "polymap._power_plan": 5},
        ((3, 3), 1, 4, 0.03): {"polymap._monomials": 2, "grading._type_table": 1,
                               "polymap._product_tables": 1, "polymap._power_plan": 4},
    }

    @pytest.mark.parametrize("row", LADDER, ids=str)
    def test_cold_solve(self, row):
        dims, period, order, epsilon = row
        cocycle = random_cocycle(np.random.default_rng(1), LADDER_EXPONENTS[len(dims)], dims,
                                 period, amp=0.05)
        stores = index_stores()
        for f in stores.values():
            f.cache_clear() if hasattr(f, "cache_clear") else f.store.clear()
        solve_normal_form(SolverContext.prepare(cocycle, epsilon, order))
        builds = {name: f.cache_info().misses if hasattr(f, "cache_info")
                  else sum(b for *_, b in f.store.values()) for name, f in stores.items()}
        assert {name: n for name, n in builds.items() if n} == self.BUILDS[row]


class TestResultShape:
    def test_to_dict_roundtrip_fields(self):
        c = resonant2_cocycle()
        ctx = SolverContext.prepare(c, 0.05, 4)
        res = solve_normal_form(ctx)
        data = res.to_dict()
        assert data["order"] == 4
        assert len(data["conjugator"]) == 1
        assert len(data["normal_form"]) == 1
        assert data["structure"]["degree_bound"] == 2
        rebuilt = PolyMap.from_dict(data["normal_form"][0])
        assert rebuilt.coeffs == res.normal_form[0].coeffs
