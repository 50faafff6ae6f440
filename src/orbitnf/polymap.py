"""Truncated polynomial maps between graded coordinate spaces.

A PolyMap stores a polynomial map R^m -> R^m' as a constant vector plus a
sparse dict of monomial coefficients keyed by (target coordinate, multi-index)
and truncated at a fixed total degree.  Coordinates are grouped into blocks by
a GradedSpace; the block structure is what turns plain monomials into typed
terms (target block, per-block degrees) so that sub-resonance projections are
a matter of key bookkeeping.

The algebra here is deliberately plain: sorted-dict convolution for products,
degree-by-degree series reversion for truncated inverses, and sampled suprema
over Lyapunov unit spheres for the nonlinear operator norms.  All iteration
orders are fixed so repeated runs produce identical floats.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .grading import SubResStructure, Type

MultiIndex = tuple[int, ...]
TermKey = tuple[int, MultiIndex]


@dataclass(frozen=True)
class GradedSpace:
    """Coordinates of R^m grouped into contiguous blocks, slowest block first.

    block_dims[i] is the dimension of block i+1; the block ordering matches
    the increasing ordering of the Lyapunov exponents it represents.
    """

    block_dims: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "block_dims", tuple(int(m) for m in self.block_dims))
        if not self.block_dims or any(m < 1 for m in self.block_dims):
            raise ValueError("block dimensions must be positive")

    @property
    def dim(self) -> int:
        return sum(self.block_dims)

    @property
    def n_blocks(self) -> int:
        return len(self.block_dims)

    @cached_property
    def block_of_coord(self) -> tuple[int, ...]:
        """1-based block index of every coordinate."""
        out = []
        for b, m in enumerate(self.block_dims, start=1):
            out.extend([b] * m)
        return tuple(out)

    def block_slice(self, i: int) -> slice:
        """Coordinate slice of 1-based block i."""
        start = sum(self.block_dims[: i - 1])
        return slice(start, start + self.block_dims[i - 1])

    def block_degrees(self, alpha: MultiIndex) -> tuple[int, ...]:
        """Per-block total degrees s of a multi-index."""
        s = [0] * self.n_blocks
        for coord, power in enumerate(alpha):
            if power:
                s[self.block_of_coord[coord] - 1] += power
        return tuple(s)


def _zero_alpha(dim: int) -> MultiIndex:
    return (0,) * dim


# -- scalar polynomial helpers: dict multi-index -> coefficient ---------------

def _poly_mul(a: dict, b: dict, max_degree: int) -> dict:
    out: dict[MultiIndex, float] = {}
    for ka in sorted(a):
        ca = a[ka]
        if ca == 0.0:
            continue
        da = sum(ka)
        for kb in sorted(b):
            if da + sum(kb) > max_degree:
                continue
            cb = b[kb]
            if cb == 0.0:
                continue
            key = tuple(x + y for x, y in zip(ka, kb))
            out[key] = out.get(key, 0.0) + ca * cb
    return out


def _poly_pow(p: dict, k: int, max_degree: int, cache: dict) -> dict:
    if k == 0:
        dim = len(next(iter(p))) if p else 0
        return {_zero_alpha(dim): 1.0}
    if k in cache:
        return cache[k]
    out = _poly_pow(p, k - 1, max_degree, cache)
    out = _poly_mul(out, p, max_degree)
    cache[k] = out
    return out


@dataclass
class PolyMap:
    """Polynomial map truncated at total degree `degree`.

    Treat instances as immutable values: every operation returns a new map.

    Attributes
    ----------
    source, target : GradedSpace
    degree : int
        Truncation order; stored multi-indices have total degree 1..degree.
    constant : ndarray, shape (target.dim,)
        Value at the origin (zero for fiber maps and coordinate changes).
    coeffs : dict
        (target coordinate, multi-index) -> coefficient; exact zeros pruned.
    """

    source: GradedSpace
    target: GradedSpace
    degree: int
    constant: np.ndarray
    coeffs: dict[TermKey, float]

    def __post_init__(self):
        self.constant = np.asarray(self.constant, dtype=float)
        if self.constant.shape != (self.target.dim,):
            raise ValueError("constant term has wrong shape")
        if self.degree < 1:
            raise ValueError("truncation degree must be >= 1")
        for (i, alpha), c in self.coeffs.items():
            if not 0 <= i < self.target.dim:
                raise ValueError(f"target index {i} out of range")
            if len(alpha) != self.source.dim:
                raise ValueError(f"multi-index {alpha} has wrong length")
            deg = sum(alpha)
            if not 1 <= deg <= self.degree:
                raise ValueError(f"term {alpha} of degree {deg} outside 1..{self.degree}")

    # -- constructors ----------------------------------------------------------

    @classmethod
    def zero(cls, source: GradedSpace, target: GradedSpace, degree: int) -> "PolyMap":
        return cls(source, target, degree, np.zeros(target.dim), {})

    @classmethod
    def identity(cls, space: GradedSpace, degree: int) -> "PolyMap":
        coeffs = {}
        for i in range(space.dim):
            alpha = tuple(1 if j == i else 0 for j in range(space.dim))
            coeffs[(i, alpha)] = 1.0
        return cls(space, space, degree, np.zeros(space.dim), coeffs)

    @classmethod
    def from_linear(cls, matrix, source: GradedSpace, target: GradedSpace,
                    degree: int) -> "PolyMap":
        matrix = np.asarray(matrix, dtype=float)
        if matrix.shape != (target.dim, source.dim):
            raise ValueError("linear part has wrong shape")
        coeffs = {}
        for i in range(target.dim):
            for j in range(source.dim):
                if matrix[i, j] != 0.0:
                    alpha = tuple(1 if k == j else 0 for k in range(source.dim))
                    coeffs[(i, alpha)] = float(matrix[i, j])
        return cls(source, target, degree, np.zeros(target.dim), coeffs)

    # -- basic queries ----------------------------------------------------------

    def evaluate(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        out = self.constant.copy()
        for (i, alpha) in sorted(self.coeffs):
            c = self.coeffs[(i, alpha)]
            mono = 1.0
            for coord, power in enumerate(alpha):
                if power:
                    mono *= t[coord] ** power
            out[i] += c * mono
        return out

    def evaluate_batch(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at every row of `points`, shape (N, source.dim) -> (N, target.dim)."""
        points = np.asarray(points, dtype=float)
        out = np.tile(self.constant, (points.shape[0], 1))
        for (i, alpha) in sorted(self.coeffs):
            c = self.coeffs[(i, alpha)]
            mono = np.ones(points.shape[0])
            for coord, power in enumerate(alpha):
                if power:
                    mono = mono * points[:, coord] ** power
            out[:, i] += c * mono
        return out

    def linear_matrix(self) -> np.ndarray:
        A = np.zeros((self.target.dim, self.source.dim))
        for (i, alpha), c in self.coeffs.items():
            if sum(alpha) == 1:
                A[i, alpha.index(1)] = c
        return A

    def homogeneous_part(self, n: int) -> "PolyMap":
        coeffs = {k: c for k, c in self.coeffs.items() if sum(k[1]) == n}
        return PolyMap(self.source, self.target, max(self.degree, n),
                       np.zeros(self.target.dim), coeffs)

    def truncated(self, max_degree: int) -> "PolyMap":
        coeffs = {k: c for k, c in self.coeffs.items() if sum(k[1]) <= max_degree}
        return PolyMap(self.source, self.target, max_degree, self.constant.copy(), coeffs)

    def with_constant(self, vec) -> "PolyMap":
        return PolyMap(self.source, self.target, self.degree,
                       np.asarray(vec, dtype=float), dict(self.coeffs))

    def term_type(self, i: int, alpha: MultiIndex) -> Type:
        """Homogeneous type (target block, per-block source degrees) of a term."""
        return (self.target.block_of_coord[i], self.source.block_degrees(alpha))

    def max_degree_present(self) -> int:
        return max((sum(alpha) for (_, alpha) in self.coeffs), default=0)

    def coeff_max(self) -> float:
        vals = [abs(c) for c in self.coeffs.values()]
        return max(vals, default=0.0)

    def nonlinear_coeff_max(self) -> float:
        vals = [abs(c) for (_, alpha), c in self.coeffs.items() if sum(alpha) >= 2]
        return max(vals, default=0.0)

    # -- arithmetic --------------------------------------------------------------

    def _binop(self, other: "PolyMap", sign: float) -> "PolyMap":
        if self.source != other.source or self.target != other.target:
            raise ValueError("polymap gradings do not match")
        degree = max(self.degree, other.degree)
        coeffs = dict(self.coeffs)
        for k, c in other.coeffs.items():
            v = coeffs.get(k, 0.0) + sign * c
            if v == 0.0:
                coeffs.pop(k, None)
            else:
                coeffs[k] = v
        return PolyMap(self.source, self.target, degree,
                       self.constant + sign * other.constant, coeffs)

    def __add__(self, other: "PolyMap") -> "PolyMap":
        return self._binop(other, 1.0)

    def __sub__(self, other: "PolyMap") -> "PolyMap":
        return self._binop(other, -1.0)

    def scaled(self, factor: float) -> "PolyMap":
        coeffs = {k: factor * c for k, c in self.coeffs.items() if factor * c != 0.0}
        return PolyMap(self.source, self.target, self.degree,
                       factor * self.constant, coeffs)

    # -- serialization ------------------------------------------------------------

    def to_dict(self) -> dict:
        terms = [
            {"target_index": i, "multi_index": list(alpha), "coefficient": c}
            for (i, alpha), c in sorted(self.coeffs.items())
        ]
        return {
            "degree": self.degree,
            "source_blocks": list(self.source.block_dims),
            "target_blocks": list(self.target.block_dims),
            "constant": [float(x) for x in self.constant],
            "terms": terms,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PolyMap":
        source = GradedSpace(tuple(data["source_blocks"]))
        target = GradedSpace(tuple(data["target_blocks"]))
        coeffs = {}
        for rec in data["terms"]:
            key = (int(rec["target_index"]), tuple(int(p) for p in rec["multi_index"]))
            c = float(rec["coefficient"])
            if c != 0.0:
                coeffs[key] = coeffs.get(key, 0.0) + c
        return cls(source, target, int(data["degree"]),
                   np.asarray(data.get("constant", np.zeros(target.dim)), dtype=float),
                   coeffs)


def compose_truncated(outer: PolyMap, inner: PolyMap, max_degree: int) -> PolyMap:
    """Taylor coefficients of outer(inner(t)) through total degree max_degree.

    inner may carry a constant term; constants produced by the expansion land
    in the constant vector of the result.
    """
    if inner.target.block_dims != outer.source.block_dims:
        raise ValueError("inner target grading must match outer source grading")
    dim = inner.source.dim
    zero = _zero_alpha(dim)

    # inner components as scalar polynomials, constants included
    comp: list[dict] = []
    for j in range(outer.source.dim):
        p: dict[MultiIndex, float] = {}
        if inner.constant[j] != 0.0:
            p[zero] = float(inner.constant[j])
        for (i, alpha), c in inner.coeffs.items():
            if i == j:
                p[alpha] = p.get(alpha, 0.0) + c
        comp.append(p)

    pow_cache: list[dict] = [dict() for _ in range(outer.source.dim)]
    const = outer.constant.copy()
    coeffs: dict[TermKey, float] = {}
    for (i, alpha) in sorted(outer.coeffs):
        c = outer.coeffs[(i, alpha)]
        prod = {zero: c}
        for j, power in enumerate(alpha):
            if power == 0:
                continue
            if not comp[j]:
                prod = {}
                break
            prod = _poly_mul(prod, _poly_pow(comp[j], power, max_degree, pow_cache[j]),
                             max_degree)
        for beta in sorted(prod):
            v = prod[beta]
            if v == 0.0:
                continue
            if sum(beta) == 0:
                const[i] += v
            else:
                key = (i, beta)
                coeffs[key] = coeffs.get(key, 0.0) + v
    coeffs = {k: v for k, v in coeffs.items() if v != 0.0}
    return PolyMap(inner.source, outer.target, max_degree, const, coeffs)


def invert_truncated(pmap: PolyMap, max_degree: int) -> PolyMap:
    """Truncated compositional inverse R with pmap(R(t)) = t through max_degree.

    Requires pmap(0) = 0 and an invertible linear part; built degree by degree
    by cancelling the defect of the partial inverse.
    """
    if pmap.source.block_dims != pmap.target.block_dims:
        raise ValueError("inverse needs matching source and target gradings")
    if np.any(pmap.constant != 0.0):
        raise ValueError("inverse requires a map fixing the origin")
    A = pmap.linear_matrix()
    try:
        Ainv = np.linalg.inv(A)
    except np.linalg.LinAlgError as exc:
        raise ValueError("linear part is singular") from exc
    inv = PolyMap.from_linear(Ainv, pmap.source, pmap.target, max_degree)
    for n in range(2, max_degree + 1):
        defect = compose_truncated(pmap, inv, n).homogeneous_part(n)
        if not defect.coeffs:
            continue
        correction = compose_truncated(
            PolyMap.from_linear(Ainv, pmap.source, pmap.target, n), defect, n)
        inv = inv - correction.truncated(max_degree)
    return inv


def project_subresonance(pmap: PolyMap, structure: SubResStructure
                         ) -> tuple[PolyMap, PolyMap]:
    """Split into (sub-resonance part, non-resonance part), term by term.

    A term of homogeneous type (i, s) goes to the first component exactly when
    the type is admissible for `structure`; degrees above the degree bound are
    never admissible.  The constant term, if any, stays with the sub-resonance
    part (translations commute with the grading).
    """
    if pmap.source.n_blocks != structure.n_blocks:
        raise ValueError("grading does not match the sub-resonance structure")
    s_coeffs: dict[TermKey, float] = {}
    n_coeffs: dict[TermKey, float] = {}
    for key, c in pmap.coeffs.items():
        i, alpha = key
        if structure.is_admissible(*pmap.term_type(i, alpha)):
            s_coeffs[key] = c
        else:
            n_coeffs[key] = c
    s_part = PolyMap(pmap.source, pmap.target, pmap.degree, pmap.constant.copy(), s_coeffs)
    n_part = PolyMap(pmap.source, pmap.target, pmap.degree,
                     np.zeros(pmap.target.dim), n_coeffs)
    return s_part, n_part


def _sqrt_gram(gram: np.ndarray) -> np.ndarray:
    """Cholesky factor L with gram = L @ L.T; raises on degenerate frames."""
    try:
        return np.linalg.cholesky(np.asarray(gram, dtype=float))
    except np.linalg.LinAlgError as exc:
        raise ValueError("degenerate frame: Gram matrix is not positive definite") from exc


def lyapunov_opnorm(pmap: PolyMap, frame_src, frame_dst, samples: int = 4096,
                    refine: int = 3, seed: int = 0) -> float:
    """Operator norm of a homogeneous PolyMap between Lyapunov norms.

    sup of ||pmap(u)|| in the target frame over the unit sphere of the source
    frame.  Exact (via singular values) for degree 1; for higher degrees a
    sampled supremum with `refine` rounds of local refinement around the best
    sample, aimed at ~1e-3 relative accuracy.  Diagnostics quality, not a
    certified bound.

    frame_src / frame_dst expose a `gram` attribute (LyapunovFrame does).
    """
    degs = {sum(alpha) for (_, alpha) in pmap.coeffs}
    if np.any(pmap.constant != 0.0):
        raise ValueError("operator norms are defined for homogeneous maps")
    if len(degs) > 1:
        raise ValueError("operator norms are defined for homogeneous maps")
    if not degs:
        return 0.0
    n = degs.pop()
    L_src = _sqrt_gram(frame_src.gram)
    L_dst = _sqrt_gram(frame_dst.gram)
    if n == 1:
        A = pmap.linear_matrix()
        M = L_dst.T @ A @ np.linalg.inv(L_src.T)
        return float(np.linalg.norm(M, 2))

    rng = np.random.default_rng(seed)
    dim = pmap.source.dim

    def norms_dst(values: np.ndarray) -> np.ndarray:
        return np.linalg.norm(values @ L_dst, axis=1)

    def unit_src(points: np.ndarray) -> np.ndarray:
        norms = np.linalg.norm(points @ L_src, axis=1)
        keep = norms > 0
        return points[keep] / norms[keep, None]

    pts = unit_src(rng.standard_normal((samples, dim)))
    vals = norms_dst(pmap.evaluate_batch(pts))
    best_idx = int(np.argmax(vals))
    best_val = float(vals[best_idx])
    best_pt = pts[best_idx]
    radius = 0.3
    for _ in range(refine):
        cloud = best_pt[None, :] + radius * rng.standard_normal((512, dim))
        cloud = unit_src(cloud)
        vals = norms_dst(pmap.evaluate_batch(cloud))
        idx = int(np.argmax(vals))
        if vals[idx] > best_val:
            best_val = float(vals[idx])
            best_pt = cloud[idx]
        radius /= 8.0
    return best_val
