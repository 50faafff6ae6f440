import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import index_reference
from check_reference import coeff_diff, subresonance_split
from dict_reference import (
    dict_compose,
    dict_evaluate,
    dict_invert,
    gap,
)
from sandwich_reference import euclidean_frames
from orbitnf import polymap
from orbitnf.cocycle import LyapunovFrames, OrbitCocycle, log_envelopes
from orbitnf.grading import Spectrum, _type_table
from orbitnf.polymap import (
    GradedSpace,
    PolyMap,
    _linear_jets,
    _linear_parts,
    _mono_table,
    compose_jets,
    compose_truncated,
    composition_table,
    degree_cols,
    invert_jets,
    invert_truncated,
    jet_width,
    stack_jets,
)

S1 = GradedSpace((1,))
S11 = GradedSpace((1, 1))


def scalar_map(coeff_by_degree, degree):
    coeffs = {(0, (n,)): c for n, c in coeff_by_degree.items() if c != 0.0}
    return PolyMap(S1, S1, degree, np.zeros(1), coeffs)


def resonant_pair_map():
    # (a t1 + 0.3 t2^2, b t2) with a = e^-2, b = e^-1
    coeffs = {
        (0, (1, 0)): math.exp(-2.0),
        (0, (0, 2)): 0.3,
        (1, (0, 1)): math.exp(-1.0),
    }
    return PolyMap(S11, S11, 2, np.zeros(2), coeffs)


def random_polymap(rng, space, degree, amplitude=0.5, linear="identity"):
    dim = space.dim
    if isinstance(linear, str):
        A = np.eye(dim)
    else:
        A = np.asarray(linear, dtype=float)
    pm = PolyMap.from_linear(A, space, space, degree)
    coeffs = dict(pm.coeffs)
    for i in range(dim):
        for alpha in all_multi_indices(dim, 2, degree):
            c = float(rng.uniform(-amplitude, amplitude))
            if c != 0.0:
                coeffs[(i, alpha)] = coeffs.get((i, alpha), 0.0) + c
    return PolyMap(space, space, degree, np.zeros(dim), coeffs)


def all_multi_indices(dim, lo, hi):
    out = []

    def rec(prefix, remaining_dim):
        if remaining_dim == 0:
            if lo <= sum(prefix) <= hi:
                out.append(tuple(prefix))
            return
        for p in range(hi - sum(prefix) + 1):
            rec(prefix + [p], remaining_dim - 1)

    rec([], dim)
    return out


class TestGradedSpace:
    def test_blocks(self):
        g = GradedSpace((2, 1))
        assert g.dim == 3
        assert g.block_of_coord == (1, 1, 2)
        assert g.block_slice(1) == slice(0, 2)
        assert g.block_slice(2) == slice(2, 3)
        assert g.block_degrees((1, 2, 3)) == (3, 3)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            GradedSpace(())

    @pytest.mark.parametrize("dims", [(1,), (2, 1), (1, 1, 1), (3, 3)], ids=str)
    def test_block_degree_groups(self, dims):
        # the type columns group the monomials by block degrees, one group per
        # exponent row s of the blocks, in the rows' order
        space = GradedSpace(dims)
        _type_table.store.pop(dims, None)
        table = _type_table(dims, 3)
        for n in range(4):
            groups = table.columns[n]
            monos = _mono_table(space.dim, n)[0]
            keys = _mono_table(len(dims), n)[0]
            assert list(keys) == sorted({space.block_degrees(a) for a in monos})
            assert len(groups) == len(keys)
            for s, cols in zip(keys, groups):
                assert list(cols) == [j for j, a in enumerate(monos)
                                      if space.block_degrees(a) == s]
            # a smaller degree reads the table built for the larger one
            assert _type_table(dims, n) is table
        assert _type_table.store[dims][2] == 1


class TestEvaluate:
    def test_pair_example(self):
        F = resonant_pair_map()
        out = F.evaluate_batch(np.array([[1.0, 2.0]]))[0]
        assert out[0] == pytest.approx(math.exp(-2.0) + 1.2, abs=1e-15)
        assert out[1] == pytest.approx(2.0 * math.exp(-1.0), abs=1e-15)

    def test_batch_matches_loop(self):
        rng = np.random.default_rng(3)
        space = GradedSpace((2, 2))
        P = random_polymap(rng, space, 4)
        pts = rng.uniform(-1, 1, size=(17, 4))
        batch = P.evaluate_batch(pts)
        for row, t in zip(batch, pts):
            assert np.allclose(row, P.evaluate_batch(t[None])[0], atol=1e-14)

    def test_constant_term(self):
        P = PolyMap(S1, S1, 2, [0.5], {(0, (1,)): 2.0})
        assert P.evaluate_batch(np.array([[1.0]]))[0, 0] == pytest.approx(2.5)


class TestCompose:
    def test_scalar_hand_expansion(self):
        # (t + 0.4 t^2) after (0.5 t + 0.1 t^2), truncated at 3
        H = scalar_map({1: 1.0, 2: 0.4}, 2)
        F = scalar_map({1: 0.5, 2: 0.1}, 2)
        C = compose_truncated(H, F, 3)
        assert C.coeffs[(0, (1,))] == pytest.approx(0.5, abs=1e-15)
        assert C.coeffs[(0, (2,))] == pytest.approx(0.2, abs=1e-15)
        assert C.coeffs[(0, (3,))] == pytest.approx(0.04, abs=1e-15)

    def test_identity_neutral(self):
        F = resonant_pair_map()
        I = PolyMap.identity(S11, 2)
        left = compose_truncated(I, F, 2)
        right = compose_truncated(F, I, 2)
        assert left.coeffs == F.coeffs
        assert right.coeffs == F.coeffs

    def test_inner_constant_shifts(self):
        # P(t) = t^2, inner = t + c: coefficients (c^2, 2c, 1)
        P = scalar_map({2: 1.0}, 2)
        inner = PolyMap(S1, S1, 2, [0.25], {(0, (1,)): 1.0})
        C = compose_truncated(P, inner, 2)
        assert C.constant[0] == pytest.approx(0.0625, abs=1e-16)
        assert C.coeffs[(0, (1,))] == pytest.approx(0.5, abs=1e-16)
        assert C.coeffs[(0, (2,))] == pytest.approx(1.0, abs=1e-16)

    def test_truncation_drops_high_degree(self):
        P = scalar_map({1: 1.0, 3: 1.0}, 3)
        Q = scalar_map({1: 1.0, 2: 1.0}, 2)
        C = compose_truncated(P, Q, 2)
        assert set(C.coeffs) == {(0, (1,)), (0, (2,))}

    def test_evaluate_consistency_slope(self):
        # compose error is O(|t|^{M+1}): fitted log-log slope >= M + 0.9
        rng = np.random.default_rng(5)
        space = GradedSpace((1, 1))
        M = 3
        P = random_polymap(rng, space, M)
        Q = random_polymap(rng, space, M)
        C = compose_truncated(P, Q, M)
        radii = (1e-1, 3e-2, 1e-2)
        errs = []
        for r in radii:
            worst = 0.0
            for _ in range(40):
                t = rng.standard_normal(2)
                t *= r / np.linalg.norm(t)
                err = np.max(np.abs(C.evaluate_batch(t[None])
                                    - P.evaluate_batch(Q.evaluate_batch(t[None]))))
                worst = max(worst, err)
            errs.append(worst)
        slope = np.polyfit(np.log(radii), np.log(errs), 1)[0]
        assert slope >= M + 0.9


class TestInvert:
    def test_scalar_reversion(self):
        P = scalar_map({1: 1.0, 2: 0.4}, 2)
        R = invert_truncated(P, 3)
        assert R.coeffs[(0, (1,))] == pytest.approx(1.0, abs=1e-15)
        assert R.coeffs[(0, (2,))] == pytest.approx(-0.4, abs=1e-15)
        assert R.coeffs[(0, (3,))] == pytest.approx(0.32, abs=1e-15)

    def test_diagonal_linear(self):
        A = np.diag([2.0, 4.0])
        P = PolyMap.from_linear(A, S11, S11, 1)
        R = invert_truncated(P, 1)
        assert np.allclose(R.linear_matrix(), np.diag([0.5, 0.25]))

    def test_singular_rejected(self):
        P = PolyMap.from_linear(np.zeros((1, 1)), S1, S1, 1)
        with pytest.raises(ValueError):
            invert_truncated(P, 2)

    @pytest.mark.parametrize("dims", [(1,), (2,), (1, 1), (2, 1), (2, 2)])
    def test_invert_jets_equals_invert_truncated(self, dims):
        # maps of degrees 1..4 with random linear parts, inverted as one
        # stack, equal each map inverted alone to the bit
        rng = np.random.default_rng(sum(dims) * 10 + len(dims))
        space = GradedSpace(dims)
        m, M = space.dim, 4
        maps = [random_polymap(rng, space, degree,
                               linear=np.eye(m) + 0.3 * rng.standard_normal((m, m)))
                for degree in (2, 4, 1, 3, 4)]
        got = invert_jets(stack_jets(maps, M), m, M)
        assert got.shape == (len(maps), m, jet_width(m, M))
        for pm, jet in zip(maps, got):
            assert np.array_equal(jet, invert_truncated(pm, M).jet)

    def test_invert_jets_divides_through_one_table(self, monkeypatch):
        # no composition per degree: one table of the stack and the
        # substitution matrices of the inverse linear parts
        tables = []

        def forbidden(*args):
            raise AssertionError("invert_jets composed")

        def counted_table(jets, *args, _fn=polymap.composition_table):
            tables.append(jets.shape)
            return _fn(jets, *args)

        rng = np.random.default_rng(9)
        maps = [random_polymap(rng, S11, 4, linear=np.eye(2) + 0.3 * rng.standard_normal((2, 2)))
                for _ in range(3)]
        monkeypatch.setattr(polymap, "compose_jets", forbidden)
        monkeypatch.setattr(polymap, "composition_table", counted_table)
        invert_jets(stack_jets(maps, 4), 2, 4)
        assert tables == [(3, 2, jet_width(2, 4))]

    def test_invert_jets_singular_entry(self):
        # one singular linear part in the stack is a ValueError naming it,
        # not numpy's LinAlgError
        maps = [PolyMap.from_linear(A, S11, S11, 2)
                for A in (np.eye(2), np.array([[1.0, 2.0], [0.5, 1.0]]), 2 * np.eye(2))]
        with pytest.raises(ValueError, match="linear part is singular") as info:
            invert_jets(stack_jets(maps, 2), 2, 3)
        assert not isinstance(info.value, np.linalg.LinAlgError)

    @pytest.mark.parametrize("seed", range(6))
    def test_roundtrip_random(self, seed):
        rng = np.random.default_rng(100 + seed)
        dim_choices = [(1,), (2,), (1, 1), (2, 1), (2, 2)]
        space = GradedSpace(dim_choices[seed % len(dim_choices)])
        M = int(rng.integers(2, 6))
        P = random_polymap(rng, space, M)
        R = invert_truncated(P, M)
        I = PolyMap.identity(space, M)
        left, right = compose_truncated(P, R, M), compose_truncated(R, P, M)
        assert coeff_diff(left, I) <= 1e-10
        assert coeff_diff(right, I) <= 1e-10
        assert np.max(np.abs(left.constant)) <= 1e-12
        assert np.max(np.abs(right.constant)) <= 1e-12


def subres_structure(chi=(-2.0, -1.0), eps=0.05, dims=None):
    return Spectrum(chi, dims or (1,) * len(chi), eps).structure


def random_subres_map(rng, structure, space, degree, amplitude=0.4):
    # flag-preserving linear part: block triangular against the slow filtration
    dim = space.dim
    A = np.eye(dim)
    for i in range(dim):
        for j in range(dim):
            if space.block_of_coord[i] <= space.block_of_coord[j] and i != j:
                A[i, j] = rng.uniform(-0.3, 0.3)
    pm = PolyMap.from_linear(A, space, space, degree)
    coeffs = dict(pm.coeffs)
    for n in range(2, degree + 1):
        for (i_blk, s) in sorted(structure.admissible(n)):
            rows = range(space.block_slice(i_blk).start, space.block_slice(i_blk).stop)
            for i in rows:
                for alpha in all_multi_indices(dim, n, n):
                    if space.block_degrees(alpha) != s:
                        continue
                    coeffs[(i, alpha)] = float(rng.uniform(-amplitude, amplitude))
    return PolyMap(space, space, degree, np.zeros(dim), coeffs)


class TestProjectSubresonance:
    def test_resonant_pair_fully_admissible(self):
        st = subres_structure()
        F = resonant_pair_map()
        s_part, n_part = subresonance_split(F, st)
        assert s_part.coeffs == F.coeffs
        assert n_part.coeffs == {}

    def test_non_admissible_term_split(self):
        st = subres_structure()
        coeffs = {(1, (2, 0)): 0.1, (0, (0, 2)): 0.3}  # t1^2 into block 2 is forbidden
        P = PolyMap(S11, S11, 2, np.zeros(2), coeffs)
        s_part, n_part = subresonance_split(P, st)
        assert s_part.coeffs == {(0, (0, 2)): 0.3}
        assert n_part.coeffs == {(1, (2, 0)): 0.1}

    def test_split_is_exact_partition(self):
        rng = np.random.default_rng(9)
        st = subres_structure((-2.0, -1.0), dims=(2, 1))
        space = GradedSpace((2, 1))
        P = random_polymap(rng, space, 3)
        s_part, n_part = P and subresonance_split(P, st)
        assert np.array_equal(s_part.jet + n_part.jet, P.jet)
        assert not (s_part.jet.astype(bool) & n_part.jet.astype(bool)).any()

    @pytest.mark.parametrize("seed", range(5))
    def test_subresonance_group_closure(self, seed):
        # compositions and truncated inverses of sub-resonance maps stay
        # sub-resonance and never exceed the degree bound
        rng = np.random.default_rng(50 + seed)
        space = GradedSpace((1, 2)) if seed % 2 else GradedSpace((1, 1))
        st = subres_structure((-2.0, -1.0), dims=space.block_dims)
        d = st.degree_bound
        P = random_subres_map(rng, st, space, d)
        Q = random_subres_map(rng, st, space, d)
        C = compose_truncated(P, Q, d + 2)
        assert C.max_degree_present() <= d
        assert coeff_diff(C, subresonance_split(C, st)[0]) <= 1e-12
        R = invert_truncated(P, d + 2)
        assert R.max_degree_present() <= d
        assert coeff_diff(R, subresonance_split(R, st)[0]) <= 1e-12


class TestLyapunovOpnorm:
    """Lyapunov operator norms of linear maps: the largest singular value
    that cocycle.log_envelopes computes, with the least one beside it."""

    def test_linear_exact(self):
        c = OrbitCocycle(S1, (scalar_map({1: 0.5}, 1),))
        steps, (env,) = log_envelopes(c, euclidean_frames(1, 1), (1,), 1)
        assert list(steps) == [-1, 1]
        # (least, greatest) ratio one step back and one step forward
        assert np.exp(env[0, 0]) == pytest.approx([2.0, 2.0], abs=1e-14)
        assert np.exp(env[0, 1]) == pytest.approx([0.5, 0.5], abs=1e-14)

    def test_linear_under_gram_weights(self):
        # ||A u||_dst / ||u||_src with diagonal Grams has a closed form
        space = GradedSpace((2,))
        A = np.array([[0.2, 0.0], [0.0, 0.5]])
        c = OrbitCocycle(space, (PolyMap.from_linear(A, space, space, 1),
                                 PolyMap.from_linear(np.eye(2), space, space, 1)))
        frames = LyapunovFrames(np.stack([np.diag([4.0, 1.0]), np.diag([1.0, 9.0])]))
        steps, (env,) = log_envelopes(c, frames, (2,), 1)
        lo, hi = np.exp(env[0, list(steps).index(1)])
        assert hi == pytest.approx(max(0.2 / 2.0, 0.5 * 3.0), abs=1e-12)
        assert lo == pytest.approx(min(0.2 / 2.0, 0.5 * 3.0), abs=1e-12)

    def test_homogeneous_scaling(self):
        rng = np.random.default_rng(2)
        P = PolyMap(S11, S11, 3, np.zeros(2), {
            (i, alpha): float(rng.uniform(-1, 1))
            for i in range(2) for alpha in all_multi_indices(2, 3, 3)
        })
        u = rng.standard_normal(2)
        for c in (0.5, 2.0):
            assert np.allclose(P.evaluate_batch(c * u[None]), c ** 3 * P.evaluate_batch(u[None]),
                               rtol=1e-12)

    def test_degenerate_frame_rejected(self):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite
        with pytest.raises(ValueError, match="not positive definite"):
            LyapunovFrames(bad[None])
        # the one stacked Cholesky factorisation rejects it at any orbit point
        with pytest.raises(ValueError, match="not positive definite"):
            LyapunovFrames(np.stack([np.eye(2), bad]))


class TestSum:
    def test_sum_pads_to_the_higher_degree(self):
        P = scalar_map({1: 0.5, 2: 0.1}, 2)
        Q = PolyMap(S1, S1, 3, [0.25], {(0, (1,)): 1.0, (0, (3,)): -0.2})
        total = P + Q
        assert total.degree == 3
        assert np.array_equal(total.jet, [[0.25, 1.5, 0.1, -0.2]])
        with pytest.raises(ValueError, match="gradings"):
            P + PolyMap.identity(S11, 2)


class TestSerialization:
    def test_roundtrip(self):
        rng = np.random.default_rng(13)
        space = GradedSpace((2, 1))
        P = PolyMap(space, space, 3, [0.0, 0.1, 0.0], random_polymap(rng, space, 3).coeffs)
        data = P.to_dict()
        Q = PolyMap.from_dict(data)
        assert Q.coeffs == P.coeffs
        assert np.array_equal(Q.constant, P.constant)
        assert Q.degree == P.degree
        assert Q.source == P.source and Q.target == P.target

    def test_records_shape(self):
        P = scalar_map({2: 0.3}, 2)
        data = P.to_dict()
        assert data["terms"] == [
            {"target_index": 0, "multi_index": [2], "coefficient": 0.3}
        ]
        assert data["source_blocks"] == [1]

    def test_linear_parts_invert_linear_jets(self):
        # degree-1 columns run e_{m-1}..e_0; one decoder reads them back
        rng = np.random.default_rng(3)
        matrices = rng.uniform(-1, 1, (2, 3, 3, 3))
        assert np.array_equal(_linear_parts(_linear_jets(matrices), 3), matrices)
        P = random_polymap(rng, GradedSpace((2, 1)), 3)
        assert np.array_equal(_linear_parts(P.jet, 3), P.linear_matrix())
        assert np.shares_memory(_linear_parts(P.jet, 3), P.jet)


class TestTermTypes:
    def test_types(self):
        space = GradedSpace((1, 2))
        # the type of a term: (target block, per-block source degrees)
        assert (space.block_of_coord[0], space.block_degrees((0, 1, 1))) == (1, (0, 2))
        assert (space.block_of_coord[2], space.block_degrees((1, 0, 2))) == (2, (1, 2))


def random_pair(rng, space, degree, n_terms, constant=False, linear=None):
    """(constant, terms) with n_terms random terms of degrees 1..degree per
    coordinate, plus `linear` as the linear part when given."""
    dim = space.dim
    terms = {}
    if linear is not None:
        for i in range(dim):
            for j in range(dim):
                terms[(i, tuple(int(l == j) for l in range(dim)))] = float(linear[i, j])
    for i in range(dim):
        for _ in range(n_terms):
            n = int(rng.integers(1 if linear is None else 2, degree + 1))
            monos = _mono_table(dim, n)[0]
            terms[(i, monos[int(rng.integers(len(monos)))])] = float(rng.uniform(-0.5, 0.5))
    const = rng.uniform(-0.3, 0.3, dim) if constant else np.zeros(dim)
    return const, terms


def to_polymap(space, degree, pair):
    return PolyMap(space, space, degree, pair[0], pair[1])


# every ladder dimension up to its order; the dims-(2,3) and (3,3) maps stay
# sparse so the dict reference remains quick
REFERENCE_CASES = ([(dims, M) for dims in ((1,), (1, 1), (2, 1), (2, 3)) for M in range(2, 7)]
                   + [(dims, M) for dims in ((1, 1, 1), (3, 3)) for M in range(2, 6)])


def n_terms(dims):
    return 2 if sum(dims) > 4 else 4


class TestDictReference:
    """Dense jets against the dict algebra, to 1e-13 relative."""

    @pytest.mark.parametrize("dims,order", REFERENCE_CASES, ids=str)
    def test_compose_with_inner_constant(self, dims, order):
        rng = np.random.default_rng(sum(dims) * 10 + order)
        space = GradedSpace(dims)
        outer = random_pair(rng, space, order, n_terms(dims), constant=True)
        # recentred inner map, t -> c + t + ..., as in the chart check
        inner = random_pair(rng, space, order, n_terms(dims), constant=True,
                            linear=np.eye(space.dim))
        got = compose_truncated(to_polymap(space, order, outer),
                                to_polymap(space, order, inner), order)
        assert gap(got, dict_compose(outer, inner, space.dim, order)) <= 1e-13

    @pytest.mark.parametrize("dims,order", REFERENCE_CASES, ids=str)
    def test_compose_one_degree_above(self, dims, order):
        # the residual check's compositions H o F and P o H of a degree-M
        # conjugator and quadratic maps, truncated at M + 1
        rng = np.random.default_rng(5000 + sum(dims) * 10 + order)
        space = GradedSpace(dims)
        h = random_pair(rng, space, order, n_terms(dims), linear=np.eye(space.dim))
        f = random_pair(rng, space, 2, n_terms(dims), linear=0.5 * np.eye(space.dim))
        for (outer, d_outer), (inner, d_inner) in (((h, order), (f, 2)), ((f, 2), (h, order))):
            got = compose_truncated(to_polymap(space, d_outer, outer),
                                    to_polymap(space, d_inner, inner), order + 1)
            assert gap(got, dict_compose(outer, inner, space.dim, order + 1)) <= 1e-13

    @pytest.mark.parametrize("dims,order", REFERENCE_CASES, ids=str)
    def test_stacked_kernel(self, dims, order, monkeypatch):
        rng = np.random.default_rng(1000 + sum(dims) * 10 + order)
        space = GradedSpace(dims)
        pairs = [(random_pair(rng, space, order, n_terms(dims), constant=s == 0),
                  random_pair(rng, space, order, n_terms(dims), constant=s == 1))
                 for s in range(3)]
        outer = stack_jets([to_polymap(space, order, o) for o, _ in pairs], order)
        inner = stack_jets([to_polymap(space, order, i) for _, i in pairs], order)
        jets = compose_jets(outer, inner, space.dim, order)
        # one stack entry at a time gives the same floats
        monkeypatch.setattr(polymap, "POWER_BYTES", 1)
        assert np.array_equal(compose_jets(outer, inner, space.dim, order), jets)
        for jet, (o, i) in zip(jets, pairs):
            got = PolyMap.from_jet(space, space, order, jet)
            assert gap(got, dict_compose(o, i, space.dim, order)) <= 1e-13

    @pytest.mark.parametrize("dims,order", REFERENCE_CASES, ids=str)
    def test_invert(self, dims, order):
        rng = np.random.default_rng(2000 + sum(dims) * 10 + order)
        space = GradedSpace(dims)
        A = np.eye(space.dim) + rng.uniform(-0.2, 0.2, (space.dim, space.dim))
        pair = random_pair(rng, space, order, n_terms(dims), linear=A)
        got = invert_truncated(to_polymap(space, order, pair), order)
        assert gap(got, dict_invert(pair, space.dim, order)) <= 1e-13

    @pytest.mark.parametrize("dims,order", REFERENCE_CASES, ids=str)
    def test_evaluate_batch(self, dims, order):
        rng = np.random.default_rng(3000 + sum(dims) * 10 + order)
        space = GradedSpace(dims)
        pair = random_pair(rng, space, order, n_terms(dims), constant=True)
        pts = rng.uniform(-1.0, 1.0, (9, space.dim))
        ref = dict_evaluate(pair, pts)
        got = to_polymap(space, order, pair).evaluate_batch(pts)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("dims,order", REFERENCE_CASES, ids=str)
    def test_project_subresonance(self, dims, order):
        rng = np.random.default_rng(4000 + sum(dims) * 10 + order)
        space = GradedSpace(dims)
        chi = {1: (-1.0,), 2: (-2.0, -1.0), 3: (-1.2, -0.8, -0.4)}[len(dims)]
        st = Spectrum(chi, dims, 0.02).structure
        const, terms = random_pair(rng, space, order, 6, constant=True)
        s_part, n_part = subresonance_split(to_polymap(space, order, (const, terms)), st)
        admissible = {key: c for key, c in terms.items()
                      if (space.block_of_coord[key[0]], space.block_degrees(key[1]))
                      in st.admissible(sum(key[1]))}
        assert s_part.coeffs == admissible
        assert n_part.coeffs == {k: c for k, c in terms.items() if k not in admissible}
        assert np.array_equal(s_part.constant, const) and not n_part.constant.any()


def table_compose(h_jets, table, dim, order):
    """jet(H o G) read from the composition table of G: the constant of H
    plus the sum over k of H_k @ T_k."""
    out = np.zeros(h_jets.shape[:-1] + (jet_width(dim, order),))
    out[..., 0] = h_jets[..., 0]
    for k, T in enumerate(table, start=1):
        out[..., degree_cols(dim, k).start:] += h_jets[..., degree_cols(dim, k)] @ T
    return out


def table_maps(rng, space, order, count):
    """(inner, outer) pairs: inner maps fix the origin with a random linear
    part, outer maps carry a constant."""
    dim = space.dim
    return [(random_pair(rng, space, order, n_terms(space.block_dims),
                         linear=rng.uniform(-0.6, 0.6, (dim, dim))),
             random_pair(rng, space, order, n_terms(space.block_dims), constant=True))
            for _ in range(count)]


TABLE_CASES = [(dims, M) for dims in ((1,), (2, 2), (1, 1, 1), (2, 3)) for M in range(2, 7)]


class TestCompositionTable:
    """Composing on the right of fixed maps through their table of powers."""

    @pytest.mark.parametrize("period", [1, 2, 3])
    @pytest.mark.parametrize("dims,order", TABLE_CASES, ids=str)
    def test_matches_dict_reference(self, dims, order, period):
        rng = np.random.default_rng(5000 + sum(dims) * 100 + order * 10 + period)
        space = GradedSpace(dims)
        pairs = table_maps(rng, space, order, period)
        inner = stack_jets([to_polymap(space, order, i) for i, _ in pairs], order)
        outer = stack_jets([to_polymap(space, order, o) for _, o in pairs], order)
        table = composition_table(inner, space.dim, order)
        got = table_compose(outer, table, space.dim, order)
        for jet, (i, o) in zip(got, pairs):
            ref = dict_compose(o, i, space.dim, order)
            assert gap(PolyMap.from_jet(space, space, order, jet), ref) <= 1e-13

    def test_window_stack_matches_dict_reference(self, monkeypatch):
        # batch axes (W, P) as in the window solve; one stack entry at a
        # time gives the same floats
        rng = np.random.default_rng(77)
        space, order, W, P = GradedSpace((2, 2)), 5, 3, 2
        pairs = table_maps(rng, space, order, W * P)
        inner = stack_jets([to_polymap(space, order, i) for i, _ in pairs], order)
        outer = stack_jets([to_polymap(space, order, o) for _, o in pairs], order)
        inner, outer = (x.reshape((W, P) + x.shape[1:]) for x in (inner, outer))
        table = composition_table(inner, space.dim, order)
        assert [T.shape[:2] for T in table] == [(W, P)] * order
        got = table_compose(outer, table, space.dim, order).reshape(W * P, space.dim, -1)
        for jet, (i, o) in zip(got, pairs):
            ref = dict_compose(o, i, space.dim, order)
            assert gap(PolyMap.from_jet(space, space, order, jet), ref) <= 1e-13
        monkeypatch.setattr(polymap, "POWER_BYTES", 1)
        one_at_a_time = composition_table(inner, space.dim, order)
        assert all(np.array_equal(a, b) for a, b in zip(table, one_at_a_time))

    @pytest.mark.parametrize("dims", [(1,), (2, 2), (1, 1, 1), (2, 3), (3, 3)], ids=str)
    def test_diagonal_blocks_are_the_linear_substitutions(self, dims):
        # to the bit: the nonlinear terms never reach the degree-n block of T_n
        rng = np.random.default_rng(sum(dims))
        dim, order, K = sum(dims), 6, 3
        jets = rng.uniform(-0.5, 0.5, (K, dim, jet_width(dim, order)))
        jets[..., 0] = 0.0
        table = composition_table(jets, dim, order)
        linear = _linear_jets(_linear_parts(jets, dim))
        for n, T in enumerate(table, start=1):
            subst = composition_table(linear, dim, n)[n - 1]
            assert subst.shape == (K, math.comb(dim + n - 1, n), math.comb(dim + n - 1, n))
            assert np.array_equal(T[..., :subst.shape[-1]], subst)

    def test_block_sizes(self):
        dim, order, K = 4, 5, 2
        rng = np.random.default_rng(3)
        jets = rng.uniform(-0.5, 0.5, (K, dim, jet_width(dim, order)))
        jets[..., 0] = 0.0
        table = composition_table(jets, dim, order)
        for k, T in enumerate(table, start=1):
            assert T.shape == (K, math.comb(dim + k - 1, k),
                               jet_width(dim, order) - jet_width(dim, k - 1))
        floats = sum(math.comb(dim + k - 1, k) * (jet_width(dim, order) - jet_width(dim, k - 1))
                     for k in range(1, order + 1))
        assert sum(T.nbytes for T in table) == 8 * K * floats

    def test_needs_maps_fixing_the_origin(self):
        jets = np.zeros((2, 1, 4))
        jets[1, 0, 0] = 0.1
        with pytest.raises(ValueError, match="fixing the origin"):
            composition_table(jets, 1, 3)


def compositions(total, parts):
    """Every tuple of `parts` positive ints summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for head in range(1, total - parts + 2):
        for rest in compositions(total - head, parts - 1):
            yield (head,) + rest


def assert_index_is_reference(index, dim, top):
    """The monomial index through `top` holds the tuple-built monomials,
    their recurrence and runs, and the columns of alpha + e_j."""
    assert index.starts[:top + 2] == [0] + [jet_width(dim, n) for n in range(top + 1)]
    for n in range(top + 1):
        monos, _, first, parent = index_reference.mono_table(dim, n)
        cols = degree_cols(dim, n)
        assert index.exps[cols].tolist() == [list(a) for a in monos]
        if n:
            np.testing.assert_array_equal(index.first[cols], first)
            np.testing.assert_array_equal(index.parent[cols], parent)
            assert index.runs[n] == index_reference.first_runs(dim, n)
        if n < top:
            up = index_reference.mono_table(dim, n + 1)[1]
            want = [[jet_width(dim, n) + up[a[:j] + (a[j] + 1,) + a[j + 1:]] for a in monos]
                    for j in range(dim)]
            assert index.times[:, cols].tolist() == want


def assert_type_table_is_reference(table, dims, top):
    """The type table through `top` groups the monomials as the np.unique
    reference does, one group per exponent row s of the blocks, in the
    rows' order, and group[c] is the column of the s of column c."""
    for n in range(top + 1):
        want = index_reference.block_degree_groups(dims, n)
        assert [s for s, _ in want] == list(_mono_table(len(dims), n)[0])
        assert len(table.columns[n]) == len(want)
        group = table.group[degree_cols(sum(dims), n)]
        for g, (cols, (_, ref)) in enumerate(zip(table.columns[n], want)):
            np.testing.assert_array_equal(cols, ref)
            assert not cols.flags.writeable
            assert (group[ref] == degree_cols(len(dims), n).start + g).all()
    assert not table.group.flags.writeable


class TestIndexReference:
    """The tables read from exponent arrays equal the tuple-built ones."""

    @pytest.mark.parametrize("dim", range(1, 8))
    def test_monomials_and_recurrence(self, dim):
        index = polymap._monomials(dim, 8)
        for array in (index.exps, index.first, index.parent, index.times):
            assert not array.flags.writeable
        assert_index_is_reference(index, dim, 8)
        for n in range(9):
            monos, ref_index = index_reference.mono_table(dim, n)[:2]
            assert polymap._mono_table(dim, n) == (monos, ref_index)

    @settings(max_examples=60, deadline=None)
    @given(dims=st.lists(st.integers(1, 5), min_size=1, max_size=5).filter(lambda d: sum(d) <= 5),
           degrees=st.lists(st.integers(0, 6), min_size=1, max_size=6))
    def test_grown_tables_equal_the_reference(self, dims, degrees):
        # asked for in any order, the index and the type table hold every
        # degree up to the largest asked for, built once per larger degree
        dims, dim = tuple(dims), sum(dims)
        polymap._monomials.store.pop(dim, None)
        _type_table.store.pop(dims, None)
        for top in itertools.accumulate(degrees, max):
            table = _type_table(dims, top)
            assert_index_is_reference(polymap._monomials(dim, top), dim, top)
            assert_type_table_is_reference(table, dims, top)
        assert polymap._monomials.store[dim][2] == len(set(itertools.accumulate(degrees, max)))
        assert _type_table.store[dims][2] == len(set(itertools.accumulate(degrees, max)))

    def test_first_runs_lead_their_parents(self):
        # the parents of run j are the leading b - a monomials one degree
        # down, in order, so the power kernel reads them as a view
        for m in range(1, 9):
            index = polymap._monomials(m, 9)
            for k in range(1, 10):
                parent = index.parent[degree_cols(m, k)]
                for a, b in index.runs[k]:
                    np.testing.assert_array_equal(parent[a:b], np.arange(b - a))

    @pytest.mark.parametrize("dim", range(1, 8))
    def test_multiplication_entries(self, dim):
        def entries(degree):
            """The (e, col, src) entries of jets through `degree`, sorted by (e, src)."""
            tables = polymap._product_tables(dim, degree)
            got = np.concatenate(
                [table[:, :math.comb(dim + degree - t, dim) * math.comb(dim + t - 1, t)]
                 for t, table in enumerate(tables[:degree + 1])], axis=1)[[1, 0, 2]]
            return got[:, np.lexsort((got[2], got[0]))]

        def reference(degree):
            e, col, src = index_reference.mul_pairs(dim, degree)
            order = np.lexsort((src, e))
            return np.array([e[order], col[order], src[order]])

        products = polymap._product_tables.store
        products.pop(dim, None)
        # tables grown to degree 8 serve every lower degree with their leading rows
        polymap._product_tables(dim, 8)
        for degree in range(9):
            np.testing.assert_array_equal(entries(degree), reference(degree))
        assert products[dim][2] == 1
        products.pop(dim)
        # asked for degree by degree, they are built again for each higher one
        for degree in range(9):
            np.testing.assert_array_equal(entries(degree), reference(degree))
        assert products[dim][2] == 9
        for t, table in enumerate(polymap._product_tables(dim, 8)):
            assert not table.flags.writeable
            # table t is e-major, its g the degree-t monomials in order
            cols = degree_cols(dim, t)
            g = table[2].reshape(-1, cols.stop - cols.start)
            np.testing.assert_array_equal(g, np.broadcast_to(np.arange(cols.start, cols.stop),
                                                             g.shape))
            np.testing.assert_array_equal(table[1].reshape(g.shape)[:, 0], np.arange(len(g)))
        products.pop(dim)  # degree 8 in dimension 7 is 7.7 MB

    @pytest.mark.parametrize("dim", range(1, 8))
    def test_power_plans(self, dim):
        # plans through degree 8, with the windows of maps with and without
        # constants and of low and high inner degree, equal the ones built from
        # the filtered full entry lists: the same scatter entries as a set and
        # the same windows, matmul slices and chunks
        for degree in range(9):
            if math.comb(dim + degree, dim) > 1716:
                break  # the reference filters every entry for each window
            steps = sorted({0, 1, 2, degree - 1, degree} & set(range(degree + 1)))
            for low, step in [(0, 0), (0, 1), (0, degree)] + [(1, s) for s in steps]:
                top = degree + 2
                got = polymap._power_plan(dim, dim, degree, top, low, step)
                want = index_reference.power_plan(dim, dim, degree, top, low, step,
                                                  polymap.PRODUCT_MACS)
                index_reference.assert_same_plan(got, want)

    @pytest.mark.parametrize("dim", range(1, 8))
    def test_block_degree_groups_every_split(self, dim):
        # every split up to dimension 6; in dimension 7, one and two blocks and
        # one block per coordinate
        splits = [dims for parts in range(1, dim + 1) if dim < 7 or parts < 3
                  for dims in compositions(dim, parts)]
        for dims in splits + [(1,) * 7] * (dim == 7):
            assert_type_table_is_reference(_type_table(dims, 8), dims, 8)

    @pytest.mark.parametrize("dim", range(1, 8))
    def test_admissible_masks(self, dim):
        # the masks of structures with degree bounds 1, 3 and 8 against the
        # tuple-built reference, above the degree bound too
        for dims in dict.fromkeys([(dim,), (1,) * dim, (dim // 2 or 1, dim - (dim // 2 or 1))]):
            if 0 in dims:
                continue
            ell = len(dims)
            for ratio in (1.13, 3.3, 8.7):
                chi = tuple(-ratio ** ((ell - j) / max(ell - 1, 1)) for j in range(1, ell + 1))
                structure = Spectrum(chi if ell > 1 else (-1.0,), dims, 0.0).structure
                for n in range(9):
                    got = structure.mask(n)
                    np.testing.assert_array_equal(
                        got, index_reference.admissible_mask(dims, n, structure.admissible(n)))
                    assert not got.flags.writeable
                    assert structure.mask(n) is got


class TestTermValidation:
    """Malformed terms raise through the constructor and the dict reader."""

    @pytest.mark.parametrize("target, alpha, message", [
        (0, (3, -1), "multi-index (3, -1) is not a monomial"),
        (0, (1.5, 0.5), "multi-index (1.5, 0.5) is not a monomial"),
        (0, (1, 0, 0), "multi-index (1, 0, 0) has wrong length"),
        (0, (0, 0), "term (0, 0) of degree 0 outside 1..3"),
        (0, (4, 0), "term (4, 0) of degree 4 outside 1..3"),
        (2, (1, 1), "target index 2 out of range"),
    ], ids=["negative", "fractional", "length", "degree0", "above", "target"])
    def test_rejected(self, target, alpha, message):
        space = GradedSpace((2,))
        with pytest.raises(ValueError, match=re.escape(message)):
            PolyMap(space, space, 3, np.zeros(2), {(target, alpha): 1.0})
        data = PolyMap.identity(space, 3).to_dict()
        data["terms"] = [{"target_index": target, "multi_index": list(alpha),
                          "coefficient": 1.0}]
        with pytest.raises(ValueError, match=re.escape(message)):
            PolyMap.from_dict(data)

    def test_integral_floats_accepted(self):
        space = GradedSpace((2,))
        data = PolyMap.identity(space, 3).to_dict()
        data["terms"].append({"target_index": 1, "multi_index": [2.0, 0.0],
                              "coefficient": 0.5})
        assert PolyMap.from_dict(data).coeffs[(1, (2, 0))] == 0.5
        direct = PolyMap(space, space, 3, np.zeros(2), {(1, (2.0, 0.0)): 0.5})
        assert direct.coeffs == {(1, (2, 0)): 0.5}
