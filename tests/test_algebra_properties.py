"""Property tests of the truncated polynomial algebra."""

import numpy as np
from check_reference import coeff_diff
from dict_reference import as_pair, dict_invert, gap
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from orbitnf.polymap import (
    GradedSpace,
    PolyMap,
    compose_jets,
    compose_truncated,
    divide_jets,
    invert_jets,
    invert_truncated,
    jet_width,
)

SETTINGS = settings(derandomize=True, max_examples=30, deadline=None)
SPACES = st.sampled_from([GradedSpace((1,)), GradedSpace((1, 1)), GradedSpace((2, 1))])
COEFFS = st.floats(-0.5, 0.5, allow_nan=False, allow_infinity=False)


@st.composite
def polymaps(draw, space, degree, constant=False, near_identity=False):
    # fill=nothing draws every coefficient, not one repeated fill value
    jet = draw(arrays(np.float64, (space.dim, jet_width(space.dim, degree)),
                      elements=COEFFS, fill=st.nothing()))
    if not constant:
        jet[:, 0] = 0.0
    if near_identity:
        # a linear part within 0.25 of the identity is safely invertible
        jet[:, 1:1 + space.dim] = 0.25 * jet[:, 1:1 + space.dim] + np.eye(space.dim)[::-1]
    return PolyMap.from_jet(space, space, degree, jet)


def relative_gap(a: PolyMap, b: PolyMap) -> float:
    scale = max(1.0, float(np.max(np.abs(a.jet))), float(np.max(np.abs(b.jet))))
    return coeff_diff(a, b) / scale


@SETTINGS
@given(st.data(), SPACES, st.integers(1, 4))
def test_composition_is_associative(data, space, order):
    # B and C fix the origin, so truncating between the compositions loses
    # nothing of degree <= order; A may carry a constant
    A = data.draw(polymaps(space, order, constant=True))
    B = data.draw(polymaps(space, order))
    C = data.draw(polymaps(space, order))
    left = compose_truncated(compose_truncated(A, B, order), C, order)
    right = compose_truncated(A, compose_truncated(B, C, order), order)
    assert relative_gap(left, right) <= 1e-12


@SETTINGS
@given(st.data(), SPACES, st.integers(1, 5))
def test_inverse_round_trips_on_both_sides(data, space, order):
    P = data.draw(polymaps(space, order, near_identity=True))
    R = invert_truncated(P, order)
    identity = PolyMap.identity(space, order)
    assert relative_gap(compose_truncated(P, R, order), identity) <= 1e-10
    assert relative_gap(compose_truncated(R, P, order), identity) <= 1e-10


@SETTINGS
@given(st.data(), SPACES, st.integers(1, 3), st.integers(1, 3))
def test_composition_agrees_with_nested_evaluation(data, space, deg_outer, deg_inner):
    # through degree deg_outer * deg_inner the composition is exact
    outer = data.draw(polymaps(space, deg_outer, constant=True))
    inner = data.draw(polymaps(space, deg_inner, constant=True))
    pts = data.draw(arrays(np.float64, (8, space.dim), elements=st.floats(-1.0, 1.0)))
    got = compose_truncated(outer, inner, deg_outer * deg_inner).evaluate_batch(pts)
    nested = outer.evaluate_batch(inner.evaluate_batch(pts))
    assert np.max(np.abs(got - nested)) <= 1e-12 * max(1.0, float(np.max(np.abs(nested))))


DIVISION_DIMS = st.sampled_from([1, 2, 3, 4])
# batch axes of the stacks: one map, an orbit, and (W, P) as in the window solve
LEADS = [(1,), (3,), (2, 2)]


@st.composite
def divisors(draw, dim, order, lead):
    """Maps fixing the origin whose linear parts D + N, D diagonal in
    [0.6, 1.4] and N within 0.1 per entry, are far from the identity."""
    jets = draw(arrays(np.float64, lead + (dim, jet_width(dim, order)), elements=COEFFS,
                       fill=st.nothing()))
    diag = draw(arrays(np.float64, lead + (dim,), elements=st.floats(0.6, 1.4)))
    jets[..., 0] = 0.0
    # degree-1 columns run e_{m-1}..e_0
    jets[..., 1:1 + dim] = (0.2 * jets[..., 1:1 + dim] + diag[..., None, :] * np.eye(dim))[..., ::-1]
    return jets


def flat_compose(outer, inner, dim, order):
    """compose_jets on stacks with any batch axes, inner broadcast to outer."""
    inner = np.broadcast_to(inner, outer.shape[:-2] + inner.shape[-2:])
    return compose_jets(outer.reshape((-1,) + outer.shape[-2:]),
                        inner.reshape((-1,) + inner.shape[-2:]), dim, order
                        ).reshape(outer.shape[:-1] + (jet_width(dim, order),))


def relative_jet_gap(a, b) -> float:
    return float(np.max(np.abs(a - b))) / max(1.0, float(np.max(np.abs(a))),
                                              float(np.max(np.abs(b))))


# the gradings (1,), (2,), (1, 1), (2, 1), (2, 2) and (1, 1, 1) span the
# dimensions 1 to 4, and the kernels see only the dimension
@SETTINGS
@given(st.data(), DIVISION_DIMS, st.integers(1, 6))
def test_division_inverts_composition(data, dim, order):
    for lead in LEADS:
        # F is shared by the leading axis of Y when `broadcast`, as the
        # conjugators are by the centralizer families
        for broadcast in (False, True):
            F = data.draw(divisors(dim, order, lead[1:] if broadcast else lead))
            Y = data.draw(arrays(np.float64, lead + (dim, jet_width(dim, order)),
                                 elements=COEFFS, fill=st.nothing()))
            X = flat_compose(Y, F, dim, order)
            assert relative_jet_gap(divide_jets(X, F, dim, order), Y) <= 1e-13
            Q = divide_jets(Y, F, dim, order)
            assert Q.shape == Y.shape
            assert relative_jet_gap(flat_compose(Q, F, dim, order), Y) <= 1e-13


@settings(derandomize=True, max_examples=15, deadline=None)
@given(st.data(), SPACES, st.integers(1, 5))
def test_invert_jets_matches_the_dict_reversion(data, space, order):
    jets = data.draw(divisors(space.dim, order, (2,)))
    got = invert_jets(jets, space.dim, order)
    for jet, inv in zip(jets, got):
        ref = dict_invert(as_pair(PolyMap.from_jet(space, space, order, jet)), space.dim, order)
        assert gap(PolyMap.from_jet(space, space, order, inv), ref) <= 1e-13
