"""Property tests of the truncated polynomial algebra."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from orbitnf.polymap import (
    GradedSpace,
    PolyMap,
    compose_truncated,
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
    return float(np.max(np.abs((a - b).jet))) / scale


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
