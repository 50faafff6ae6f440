"""Reference polynomial algebra on sparse dicts, independent of the jet kernel.

A map is a (constant, terms) pair: a constant vector and a dict
(target coordinate, multi-index) -> coefficient, the PolyMap input format.
Products are plain convolutions of scalar dicts, and a composition expands
every outer term by repeated products, as the package did before its maps
became dense jets.  The tests check ``orbitnf.polymap`` against these.
"""

import numpy as np

from orbitnf.polymap import PolyMap


def poly_mul(a: dict, b: dict, max_degree: int) -> dict:
    out = {}
    for ka in sorted(a):
        da = sum(ka)
        for kb in sorted(b):
            if da + sum(kb) > max_degree:
                continue
            key = tuple(x + y for x, y in zip(ka, kb))
            out[key] = out.get(key, 0.0) + a[ka] * b[kb]
    return out


def poly_pow(p: dict, k: int, max_degree: int, cache: dict) -> dict:
    """p^k through max_degree; cache maps exponents to powers of p."""
    if k not in cache:
        cache[k] = poly_mul(poly_pow(p, k - 1, max_degree, cache), p, max_degree)
    return cache[k]


def components(pmap: tuple, dim: int) -> list[dict]:
    """One scalar dict per target coordinate, the constant at the zero index."""
    const, terms = pmap
    comp = [{(0,) * dim: float(c)} for c in const]
    for (i, alpha), c in terms.items():
        comp[i][alpha] = comp[i].get(alpha, 0.0) + c
    return comp


def dict_compose(outer: tuple, inner: tuple, dim: int, max_degree: int) -> tuple:
    """outer(inner(t)) through max_degree; inner has `dim` source variables."""
    zero = (0,) * dim
    caches = [{0: {zero: 1.0}} for _ in inner[0]]
    comp = components(inner, dim)
    const, terms = outer
    result = [{zero: float(c)} for c in const]
    for (i, alpha), c in sorted(terms.items()):
        prod = {zero: c}
        for j, power in enumerate(alpha):
            if power:
                prod = poly_mul(prod, poly_pow(comp[j], power, max_degree, caches[j]),
                                max_degree)
        for beta, v in prod.items():
            result[i][beta] = result[i].get(beta, 0.0) + v
    return (np.array([r.pop(zero) for r in result]),
            {(i, beta): v for i, r in enumerate(result) for beta, v in r.items()})


def dict_invert(pmap: tuple, dim: int, max_degree: int) -> tuple:
    """Series reversion R with pmap(R(t)) = t through max_degree."""
    units = [tuple(int(l == j) for l in range(dim)) for j in range(dim)]
    A = np.array([[pmap[1].get((i, e), 0.0) for e in units] for i in range(dim)])
    Ainv = np.linalg.inv(A)
    terms = {(i, e): Ainv[i, j] for i in range(dim) for j, e in enumerate(units)}
    for n in range(2, max_degree + 1):
        _, comp = dict_compose(pmap, (np.zeros(dim), terms), dim, n)
        for i in range(dim):
            for alpha in {a for (_, a) in comp if sum(a) == n}:
                terms[(i, alpha)] = -sum(Ainv[i, j] * comp.get((j, alpha), 0.0)
                                         for j in range(dim))
    return np.zeros(dim), terms


def dict_evaluate(pmap: tuple, points: np.ndarray) -> np.ndarray:
    """Term-by-term evaluation at every row of points."""
    const, terms = pmap
    out = np.tile(np.asarray(const, dtype=float), (points.shape[0], 1))
    for (i, alpha), c in sorted(terms.items()):
        out[:, i] += c * np.prod(points ** np.asarray(alpha), axis=1)
    return out


def as_pair(pmap: PolyMap) -> tuple:
    return pmap.constant.copy(), dict(pmap.coeffs)


def reference_compose(outer: PolyMap, inner: PolyMap, max_degree: int) -> PolyMap:
    """compose_truncated through the dict reference."""
    const, terms = dict_compose(as_pair(outer), as_pair(inner), inner.source.dim, max_degree)
    return PolyMap(inner.source, outer.target, max_degree, const, terms)


def gap(pmap: PolyMap, reference: tuple) -> float:
    """Largest coefficient gap, constants included, between a PolyMap and a
    reference pair, relative to the reference's largest entry."""
    const, terms = reference
    got = pmap.coeffs
    scale = max([abs(v) for v in terms.values()] + list(np.abs(const)) + [1e-300])
    worst = float(np.max(np.abs(pmap.constant - const)))
    for key in set(got) | set(terms):
        worst = max(worst, abs(got.get(key, 0.0) - terms.get(key, 0.0)))
    return worst / scale
