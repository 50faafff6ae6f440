"""Truncated polynomial maps between graded coordinate spaces.

A PolyMap stores a map R^m -> R^m' truncated at a total degree as one dense
jet of shape (m', jet_width(m, degree)): column 0 is the constant and the
columns ``degree_cols(m, n)`` the degree-n part, one per monomial in the
lexicographic order of the exponent rows of the monomial index
``_monomials(m, degree)``.  A dict keyed by (target coordinate,
multi-index) is only the input and output format, with tuple and dict views
of the monomials (``_mono_table``) built on first use.  The blocks of a
GradedSpace type every slot (target block, per-block degrees).

The index tables are built on first use and kept for the process, none at
import, each once for all callers.  Three are grown per key to the largest
degree asked for (``_grown``): the monomial index of each dimension (exponent
rows, power recurrence, runs and successor columns), the product tables of
each dimension (``_product_tables``) and the type tables of each grading
(``grading._type_table``).  The steps of each power pass (``_power_plan``)
are cached per pass.  The admissible slots are ``grading.SubResStructure``'s
to answer.

``compose_jets`` is the one composition kernel, on stacks of jets, built on
the power recurrence G^alpha = G^(alpha - e_j) G_j: one batched matmul per
coordinate j with the multiplication matrix of G_j, reading the parent
powers as a view.  It keeps one degree of powers and one such matrix at a
time for as many stack entries as fit in POWER_BYTES.
``composition_table`` keeps all the powers of maps that are composed on the
right again and again: composing H o G is then linear in H,
jet(H o G) = sum_k H_k @ T_k, with one block T_k per degree k and
sum_k n_mono(k) (jet_width(M) - jet_width(k - 1)) floats per map through
order M.  The entries of the multiplication matrices are the product blocks
of every (row degree, factor degree) pair, and a window of a power pass,
bounded at degrees, is a union of blocks, so its plan is one slice of each
product table.  ``divide_jets`` solves Y o G = X for Y degree by degree
through the table of G, and ``invert_jets`` divides the identity;
``compose_truncated`` and ``invert_truncated`` are the one-map forms.
Iteration orders are fixed, so repeated runs give identical floats.
"""

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, wraps
from itertools import accumulate
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

MultiIndex = tuple[int, ...]
TermKey = tuple[int, MultiIndex]

# compose_jets builds the powers of at most this many bytes of stack entries
# at once, which bounds its working memory on large jets; a composition table
# keeps all of its powers and is not bounded by it
POWER_BYTES = 1 << 18
# multiply-adds per matrix product in the power kernel; BLAS runs products
# this small without filling its packing buffers, which would add their
# pages to the peak memory
PRODUCT_MACS = 10 ** 6


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

    @cached_property
    def dim(self) -> int:
        return sum(self.block_dims)

    @property
    def n_blocks(self) -> int:
        return len(self.block_dims)

    @cached_property
    def block_of_coord(self) -> tuple[int, ...]:
        """1-based block index of every coordinate."""
        return tuple(b for b, m in enumerate(self.block_dims, start=1) for _ in range(m))

    @cached_property
    def _block_slices(self) -> tuple[slice, ...]:
        ends = np.cumsum(self.block_dims)
        return tuple(slice(int(e) - m, int(e)) for e, m in zip(ends, self.block_dims))

    def block_slice(self, i: int) -> slice:
        """Coordinate slice of 1-based block i."""
        return self._block_slices[i - 1]

    def block_degrees(self, alpha: MultiIndex) -> tuple[int, ...]:
        """Per-block total degrees s of a multi-index."""
        s = [0] * self.n_blocks
        for coord, power in enumerate(alpha):
            if power:
                s[self.block_of_coord[coord] - 1] += power
        return tuple(s)


# -- monomial tables -----------------------------------------------------------

def _grown(build):
    """A store of tables, one per key, each grown to the largest degree asked for.

    build(key, degree, held) makes the table of `key` through `degree` from
    the one it replaces, held, or from None; the store calls it only when
    its table stops below the degree asked for.  ``store`` maps each key to
    (degree, table, builds)."""
    store = {}

    @wraps(build)
    def table(key, degree: int):
        held = store.get(key, (-1, None, 0))
        if held[0] < degree:
            held = store[key] = (degree, build(key, degree, held[1]), held[2] + 1)
        return held[1]

    table.store = store
    return table


class _Monomials(NamedTuple):
    """The monomial index of one dimension, read-only (``_monomials``)."""

    starts: list[int]  # the first jet column of each degree 0..degree + 1
    exps: np.ndarray  # the exponent rows, one per jet column
    first: np.ndarray  # the first coordinate with a positive exponent; dim for the constant
    parent: np.ndarray  # the index of exps - e_first among the monomials one degree down
    runs: tuple  # runs[n][j]: the (start, stop) of the degree-n monomials with first j
    times: np.ndarray  # times[j, c]: the column of exps[c] + e_j, for c below the top degree


@_grown
def _monomials(dim: int, degree: int, held: _Monomials | None) -> _Monomials:
    """The monomial index of `dim` variables through at least `degree`; the
    degree-n monomials are at the columns ``degree_cols(dim, n)``.

    They are in lexicographic order.  Those with zeros before coordinate j
    are the leading C(n + dim - j - 1, n), and those among them with a zero
    at j too lead those, so the monomials whose first nonzero exponent is at
    j form one run, and the runs go from j = dim - 1 down to 0.  Subtracting
    e_j maps run j onto the leading monomials of degree n - 1, keeping their
    order: the power recurrence alpha = parent(alpha) + e_first(alpha), along
    which the rows are built degree by degree, with no search.  The
    successors follow from it: alpha + e_j has first j and parent alpha when
    first(alpha) >= j, and otherwise first(alpha) and the parent
    parent(alpha) + e_j, a successor one degree down.  With one variable per
    block the rows are the block degrees of the types of ``grading``.  A
    larger degree extends the index from its top degree.
    """
    if held is None:
        held = _Monomials([0, 1], np.zeros((1, dim), dtype=np.intp), np.array([dim]),
                          np.zeros(1, dtype=np.intp), ((),), np.zeros((dim, 0), dtype=np.intp))
    starts, runs, top, new = held.starts.copy(), list(held.runs), len(held.starts) - 2, []
    for n in range(top + 1, degree + 1):
        # stops[j]: the degree-n monomials in the coordinates from j on; run j is
        # stops[j + 1]:stops[j], of first j, and each parent is its place in the run
        stops = [math.comb(n + dim - j - 1, n) for j in range(dim)] + [0]
        runs.append(tuple(zip(stops[1:], stops)))
        new += [(j, b - a, starts[-1] + a) for j, (a, b) in reversed(list(enumerate(runs[-1])))]
        starts.append(starts[-1] + stops[0])
    js, counts, offsets = np.array(new, dtype=np.intp).reshape(-1, 3).T
    first = np.concatenate([held.first, js.repeat(counts)])
    parent = np.concatenate([held.parent,
                             np.arange(starts[top + 1], starts[-1]) - offsets.repeat(counts)])
    exps, times, cols = [held.exps], [held.times], slice(starts[top], starts[top + 1])
    # the degree-top rows and the successors of degree top - 1, in degree top
    row, f, p = held.exps[cols], first[cols], parent[cols]
    coords, eye = np.arange(dim)[:, None], np.eye(dim, dtype=np.intp)
    succ = (held.times[:, starts[top - 1]:starts[top]] - starts[top] if top
            else np.zeros((dim, 1), dtype=np.intp))
    for n in range(top + 1, degree + 1):
        # run j starts at begin[j]; the constant's first, dim, at 0
        begin = np.array([b for b, _ in runs[n]] + [0])
        succ = np.where(f >= coords, begin[:dim, None] + np.arange(len(f)), begin[f] + succ[:, p])
        times.append(succ + starts[n])
        f, p = first[starts[n]:starts[n + 1]], parent[starts[n]:starts[n + 1]]
        row = row[p] + eye[f]
        exps.append(row)
    exps, times = np.concatenate(exps), np.concatenate(times, axis=1)
    for array in (exps, first, parent, times):
        array.setflags(write=False)
    return _Monomials(starts, exps, first, parent, tuple(runs), times)


@lru_cache(maxsize=None)
def _mono_table(dim: int, n: int) -> tuple[tuple[MultiIndex, ...], dict[MultiIndex, int]]:
    """Tuple and dict views of the degree-n monomials, for the dict input
    and output of PolyMap: the multi-indices in order and their indices."""
    monos = tuple(map(tuple, _monomials(dim, n).exps[degree_cols(dim, n)].tolist()))
    return monos, {a: j for j, a in enumerate(monos)}


def jet_width(dim: int, degree: int) -> int:
    """Number of monomials of degree 0..degree in dim variables."""
    return math.comb(dim + degree, dim)


def degree_cols(dim: int, n: int) -> slice:
    """Jet columns of the degree-n monomials."""
    return slice(jet_width(dim, n - 1) if n else 0, jet_width(dim, n))


def top_degree(jets: np.ndarray, dim: int) -> int:
    """Highest degree with a nonzero coefficient in a jet or stack of jets."""
    cols = jets.reshape(-1, jets.shape[-1]).any(axis=0).nonzero()[0]
    last, n = (int(cols[-1]) if cols.size else 0), 0
    while jet_width(dim, n) <= last:
        n += 1
    return n


def _fit(jets: np.ndarray, width: int) -> np.ndarray:
    """Copy truncated or zero-padded to `width` columns."""
    out = np.zeros(jets.shape[:-1] + (width,))
    w = min(width, jets.shape[-1])
    out[..., :w] = jets[..., :w]
    return out


def _linear_jets(matrices: np.ndarray) -> np.ndarray:
    """Degree-1 jets of a stack of matrices (degree-1 columns run e_{m-1}..e_0)."""
    out = np.zeros(matrices.shape[:-1] + (1 + matrices.shape[-1],))
    out[..., 1:] = matrices[..., ::-1]
    return out


def _linear_parts(jets: np.ndarray, dim: int) -> np.ndarray:
    """Linear parts of a stack of jets over `dim` variables, a view: the
    inverse of ``_linear_jets``."""
    return jets[..., 1:1 + dim][..., ::-1]


@_grown
def _product_tables(dim: int, degree: int, held) -> tuple[np.ndarray, ...]:
    """The entries of the multiplication matrices Mul_j, p G_j = p @ Mul_j,
    on jets through at least `degree`, one table per factor degree t.

    Mul_j[e, col(eps_e + gamma_g)] = G_j[g]; table t holds the read-only rows
    (col, e, g) of shape (3, rows * number of degree-t monomials), e-major
    over the jet columns eps_e and then over the degree-t monomials gamma_g,
    all as jet columns.  The entries of the eps_e of one degree a are the
    product block of (a, t), so a window of row degrees and column degrees
    reads one slice per t.  The columns of one g follow from those of its
    parent by the power recurrence of the monomial index, whose successors
    times[j, c] are the columns of eps_c + e_j: col(eps_e + gamma_g) =
    times[first[g], col(eps_e + gamma_parent[g])].
    """
    index = _monomials(dim, degree)
    starts = index.starts[:degree + 2]
    shapes = [(starts[degree - t + 1], starts[t + 1] - starts[t]) for t in range(degree + 1)]
    bounds = list(accumulate([r * n for r, n in shapes], initial=0))
    entries = np.empty((3, bounds[-1]), dtype=np.intp)
    e = np.arange(starts[-1])
    cols = e[:, None]
    for t, (rows, n) in enumerate(shapes):
        if t:
            g = degree_cols(dim, t)
            cols = index.times[index.first[g], cols[:rows, index.parent[g]]]
        table = entries[:, bounds[t]:bounds[t + 1]].reshape(3, rows, n)
        table[0] = cols
        table[1] = e[:rows, None]
        table[2] = e[starts[t]:starts[t + 1]]
    entries.setflags(write=False)
    return tuple(entries[:, a:b] for a, b in zip(bounds, bounds[1:]))


@lru_cache(maxsize=None)
def _power_plan(m: int, dim: int, degree: int, top: int, low: int, step: int) -> tuple:
    """The steps of ``_powers`` for m inner components over `dim` variables
    through `degree`, with inner valuation `low` and inner degree `step`.

    Per degree k = 1..top: (lo, hi, monomials, mul, products), the power
    holding the jet columns lo:hi, of degrees k low to k step, of the
    degree-k monomials.  For k >= 2, mul is the scatter plan (flat, src,
    rows, cols) of the multiplication matrix, Mul_j.flat[flat] = G_j[src],
    cut to the rows of the window of the power below, ending with the last
    that meets this window, and to the columns of this one.  Both windows
    are unions of degrees, so the plan is the product blocks of every (row
    degree, factor degree) pair they hold: one slice per factor degree t of
    ``_product_tables``, over the row degrees whose sum with t is a column
    degree.  products lists per coordinate j the matmuls (parent rows, inner
    width, columns, output rows): slices, the parent rows a view by the runs
    of the monomial index.
    """
    plan, prev = [], None
    starts, runs = _monomials(dim, max(degree, low * top)).starts, _monomials(m, top).runs
    for k in range(1, top + 1):
        # degrees k low..k step of the power; an empty window ends below its start
        window = (k * low, max(k * low - 1, min(degree, k * step)))
        lo, hi = starts[window[0]], starts[window[1] + 1]
        mul, products = None, ()
        if k > 1:
            (ra, rb), (ca, cb) = prev[2], window
            last, tables, blocks = min(rb, cb), _product_tables(dim, degree), []
            for t in range(max(ca - last, 0), cb - ra + 1):
                n = starts[t + 1] - starts[t]  # entries per row of table t
                blocks.append(tables[t][:, n * starts[max(ra, ca - t)]:
                                        n * starts[min(last, cb - t) + 1]])
            rows, cols = (starts[last + 1] - prev[0] if blocks else 0), hi - lo
            col, e, src = (np.concatenate(blocks, axis=1) if blocks
                           else np.zeros((3, 0), dtype=np.intp))
            flat = e * cols
            flat += col - (prev[0] * cols + lo)
            # every G_j fills the same entries, so one matrix serves all j
            mul = (flat, src.copy(), rows, cols)
            blocks = [(rows, 0, cols)]
            if low:
                # the degree-k columns read only the degree k-1 rows; a product
                # of their own keeps them the powers of the linear parts
                diag = min(cols, starts[k + 1] - lo)
                blocks = [(lo - prev[0], 0, diag), (rows, diag, cols)]
            blocks = [(r, slice(c0, c1), max(1, PRODUCT_MACS // max(1, r * (c1 - c0))))
                      for r, c0, c1 in blocks if c0 < c1]
            products = []
            for j, (a, b) in enumerate(runs[k]):
                steps = []
                for r, out_cols, chunk in blocks:
                    for c in range(a, b, chunk):
                        d = min(b, c + chunk)
                        steps.append((slice(c - a, d - a), r, out_cols, slice(c, d)))
                products.append((j, tuple(steps)))
            products = tuple(products)
        plan.append((lo, hi, runs[k][0][1], mul, products))
        prev = (lo, hi, window)
    return tuple(plan)


def _powers(inner: np.ndarray, dim: int, degree: int, top: int):
    """Powers G_s^alpha of the inner jets, one degree |alpha| = k = 1..top at a time.

    Yields (k, lo, power): power[s, a] holds the jet columns lo onwards of
    G_s^alpha_a through `degree`, alpha_a the degree-k monomials in sorted
    order.  Only the degrees a power can reach are kept, from k times the
    inner valuation to k times the inner degree.  Each power is the one
    below times a component, G^alpha = G^(alpha - e_j) G_j with j = first[a]:
    for each j one batched product with the multiplication matrix of G_j,
    at most jet_width(dim, degree)^2 entries per stack entry, following the
    cached ``_power_plan``.  For inner maps fixing the origin the degree-k
    columns, which read only the degree k-1 columns one degree down, are a
    product of their own, the same as for the linear parts alone, so they
    are the powers of the linear parts to the bit, whatever the higher
    terms.
    """
    S, m = inner.shape[:2]
    width = jet_width(dim, degree)
    G = inner if inner.shape[-1] == width else _fit(inner, width)
    low = 0 if G[..., 0].any() else 1
    if low:
        top = min(top, degree)  # powers of maps fixing the origin vanish beyond it
    plan = _power_plan(m, dim, degree, top, low, top_degree(G, dim))
    for k, (lo, hi, monos, mul_plan, products) in enumerate(plan, start=1):
        if k == 1:
            power = G[:, ::-1, lo:hi].copy()  # the degree-1 monomials run e_{m-1}..e_0
        else:
            flat, src, rows, cols = mul_plan
            prev, power = power, np.empty((S, monos, cols))
            mul = np.zeros((S, rows, cols))
            # the plan's entries in the matrix of every stack entry
            flat = (flat + rows * cols * np.arange(S)[:, None]).ravel()
            for j, steps in products:
                mul.reshape(-1)[flat] = G[:, j].take(src, axis=1).ravel()
                for parents, r, out_cols, out_rows in steps:
                    np.matmul(prev[:, parents, :r], mul[:, :r, out_cols],
                              out=power[:, out_rows, out_cols])
            del prev, mul  # freed before the caller and the next degree allocate
        yield k, lo, power


def compose_jets(outer: np.ndarray, inner: np.ndarray, dim: int, degree: int) -> np.ndarray:
    """Taylor coefficients of outer[s] o inner[s] through `degree`, for every s.

    inner has shape (S, m, w) over `dim` variables and may carry constants;
    outer has shape (S, p, jet_width(m, D)).  Returns
    (S, p, jet_width(dim, degree)).  Each outer degree is added as soon as
    its powers exist, so one degree of powers and one multiplication matrix
    are kept at a time, for as many stack entries as fit in POWER_BYTES.
    """
    S, m = inner.shape[:2]
    width = jet_width(dim, degree)
    top = top_degree(outer, m)
    out = np.zeros((S, outer.shape[-2], width))
    out[..., 0] = outer[..., 0]
    rows = max(1, POWER_BYTES // (8 * width * max(width, math.comb(m + top - 1, top))))
    for s in range(0, S, rows):
        for k, lo, power in _powers(inner[s:s + rows], dim, degree, top):
            out[s:s + rows, :, lo:lo + power.shape[2]] += (
                outer[s:s + rows, :, degree_cols(m, k)] @ power)
    return out


def composition_table(jets: np.ndarray, dim: int, order: int) -> tuple[np.ndarray, ...]:
    """Powers of maps fixing the origin: composing on their right is linear.

    jets is a stack of shape (..., m, w) over `dim` variables with zero
    constants.  Returns the blocks T_1..T_order, T_k of shape
    (..., number of degree-k monomials in m variables,
    jet_width(dim, order) - jet_width(dim, k - 1)): row a is the jet of
    G^alpha_a from its degree-k columns on, alpha_a the sorted degree-k
    monomials.  So the degree-n part of H o G is the sum over k <= n of
    H_k @ T_k[..., degree-n columns], H_k the degree-k coefficients of H,
    and the leading columns of T_n, the degree-n block, are the substitution
    matrix of the linear parts.  One ``_powers`` pass per chunk of stack
    entries that fits in POWER_BYTES, as in ``compose_jets``.
    """
    lead, (m, w) = jets.shape[:-2], jets.shape[-2:]
    inner = jets.reshape(-1, m, w)
    if inner[..., 0].any():
        raise ValueError("a composition table needs maps fixing the origin")
    width = jet_width(dim, order)
    rows = max(1, POWER_BYTES // (8 * width * max(width, math.comb(m + order - 1, order))))
    table = []
    for s in range(0, len(inner), rows):
        for k, lo, power in _powers(inner[s:s + rows], dim, order, order):
            if not s:  # allocated as the powers arrive, which keeps the peak down
                table.append(np.zeros((len(inner),) + power.shape[1:2] + (width - lo,)))
            table[k - 1][s:s + rows, :, :power.shape[2]] = power
    return tuple(T.reshape(lead + T.shape[1:]) for T in table)


def stack_jets(maps, degree: int) -> np.ndarray:
    """Jets of maps over one source, truncated or padded to `degree`, stacked."""
    width = jet_width(maps[0].source.dim, degree)
    return np.stack([_fit(pm.jet, width) for pm in maps])


class PolyMap:
    """Polynomial map truncated at total degree `degree`.

    Instances are immutable values: every operation returns a new map.

    Attributes
    ----------
    source, target : GradedSpace
    degree : int
        Truncation order; terms have total degree 1..degree.
    jet : ndarray, shape (target.dim, jet_width(source.dim, degree))
        Read-only coefficients: column 0 the constant, ``degree_cols(m, n)``
        the degree-n part.
    constant : ndarray, shape (target.dim,)
        Value at the origin (zero for fiber maps and coordinate changes).
    coeffs : mapping
        Read-only (target coordinate, multi-index) -> coefficient view of
        the nonconstant terms; exact zeros left out.
    """

    def __init__(self, source: GradedSpace, target: GradedSpace, degree: int,
                 constant, coeffs: dict[TermKey, float]):
        constant = np.asarray(constant, dtype=float)
        if constant.shape != (target.dim,):
            raise ValueError("constant term has wrong shape")
        if degree < 1:
            raise ValueError("truncation degree must be >= 1")
        jet = np.zeros((target.dim, jet_width(source.dim, degree)))
        jet[:, 0] = constant
        for (i, alpha), c in coeffs.items():
            if not 0 <= i < target.dim:
                raise ValueError(f"target index {i} out of range")
            if len(alpha) != source.dim:
                raise ValueError(f"multi-index {alpha} has wrong length")
            deg = sum(alpha)
            if not 1 <= deg <= degree:
                raise ValueError(f"term {alpha} of degree {deg} outside 1..{degree}")
            # a negative or fractional exponent is in no table
            col = _mono_table(source.dim, int(deg))[1].get(tuple(alpha))
            if col is None:
                raise ValueError(f"multi-index {alpha} is not a monomial")
            jet[i, degree_cols(source.dim, int(deg)).start + col] = c
        self._set(source, target, degree, jet)

    def _set(self, source, target, degree, jet):
        self.source, self.target, self.degree, self.jet = source, target, int(degree), jet
        jet.setflags(write=False)

    @classmethod
    def from_jet(cls, source: GradedSpace, target: GradedSpace, degree: int,
                 jet: np.ndarray) -> "PolyMap":
        """Wrap a jet of shape (target.dim, jet_width(source.dim, degree))."""
        if jet.shape != (target.dim, jet_width(source.dim, degree)):
            raise ValueError("jet has wrong shape")
        pm = cls.__new__(cls)
        pm._set(source, target, degree, jet)
        return pm

    # -- constructors ----------------------------------------------------------

    @classmethod
    def identity(cls, space: GradedSpace, degree: int) -> "PolyMap":
        return cls.from_linear(np.eye(space.dim), space, space, degree)

    @classmethod
    def from_linear(cls, matrix, source: GradedSpace, target: GradedSpace,
                    degree: int) -> "PolyMap":
        matrix = np.asarray(matrix, dtype=float)
        if matrix.shape != (target.dim, source.dim):
            raise ValueError("linear part has wrong shape")
        return cls.from_jet(source, target, degree,
                            _fit(_linear_jets(matrix), jet_width(source.dim, degree)))

    # -- basic queries ----------------------------------------------------------

    @property
    def constant(self) -> np.ndarray:
        return self.jet[:, 0]

    @cached_property
    def coeffs(self) -> MappingProxyType:
        out = {}
        for n in range(1, self.degree + 1):
            monos = _mono_table(self.source.dim, n)[0]
            part = self.part(n)
            for i, j in zip(*np.nonzero(part)):
                out[(int(i), monos[j])] = float(part[i, j])
        return MappingProxyType(out)

    def part(self, n: int) -> np.ndarray:
        """Degree-n coefficients, shape (target.dim, number of monomials)."""
        cols = degree_cols(self.source.dim, n)
        if n > self.degree:
            return np.zeros((self.target.dim, cols.stop - cols.start))
        return self.jet[:, cols]

    @cached_property
    def _eval_plan(self) -> tuple:
        """Per degree n >= 1: the power recurrence of its monomials and its
        coefficients transposed."""
        dim = self.source.dim
        index = _monomials(dim, self.degree)
        return tuple((index.first[degree_cols(dim, n)], index.parent[degree_cols(dim, n)],
                      self.part(n).T) for n in range(1, self.degree + 1))

    def evaluate_batch(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at every row of `points`, shape (N, source.dim) -> (N, target.dim)."""
        return _evaluate(self._eval_plan, self.constant, np.asarray(points, dtype=float))

    def linear_matrix(self) -> np.ndarray:
        return _linear_parts(self.jet, self.source.dim).copy()

    def truncated(self, max_degree: int) -> "PolyMap":
        return PolyMap.from_jet(self.source, self.target, max_degree,
                                _fit(self.jet, jet_width(self.source.dim, max_degree)))

    def max_degree_present(self) -> int:
        return top_degree(self.jet, self.source.dim)

    def __add__(self, other: "PolyMap") -> "PolyMap":
        if self.source != other.source or self.target != other.target:
            raise ValueError("polymap gradings do not match")
        degree = max(self.degree, other.degree)
        width = jet_width(self.source.dim, degree)
        return PolyMap.from_jet(self.source, self.target, degree,
                                _fit(self.jet, width) + _fit(other.jet, width))

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
            # fractional exponents are kept for the constructor to reject
            alpha = tuple(p if isinstance(p, float) and not p.is_integer() else int(p)
                          for p in rec["multi_index"])
            key = (int(rec["target_index"]), alpha)
            c = float(rec["coefficient"])
            if c != 0.0:
                coeffs[key] = coeffs.get(key, 0.0) + c
        return cls(source, target, int(data["degree"]),
                   np.asarray(data.get("constant", np.zeros(target.dim)), dtype=float),
                   coeffs)


def _evaluate(plan: tuple, constant: np.ndarray, points: np.ndarray) -> np.ndarray:
    """``PolyMap.evaluate_batch`` of the map with this `plan` and `constant`."""
    out, vals = constant[None], None
    for first, parent, coeffs in plan:
        # the degree-1 monomials are the coordinates themselves
        vals = points[:, first] if vals is None else vals[:, parent] * points[:, first]
        out = out + vals @ coeffs
    return out if plan else np.repeat(out, len(points), axis=0)


def compose_truncated(outer: PolyMap, inner: PolyMap, max_degree: int) -> PolyMap:
    """Taylor coefficients of outer(inner(t)) through total degree max_degree.

    inner may carry a constant term; constants produced by the expansion land
    in the constant vector of the result.
    """
    if inner.target.block_dims != outer.source.block_dims:
        raise ValueError("inner target grading must match outer source grading")
    jet = compose_jets(outer.jet[None], inner.jet[None], inner.source.dim, max_degree)[0]
    return PolyMap.from_jet(inner.source, outer.target, max_degree, jet)


def divide_jets(outer: np.ndarray, inner: np.ndarray, dim: int, degree: int) -> np.ndarray:
    """Right quotients Y with Y o inner = outer through `degree`: outer o inner^-1.

    inner is a stack (..., m, w) over m = `dim` variables of maps fixing the
    origin with invertible linear parts A; outer has shape (..., p, w') over
    the same variables, its leading axes broadcasting against those of
    inner.  Returns (..., p, jet_width(dim, degree)).

    jet(Y o F) = Y_0 + sum_k Y_k @ T_k is linear in Y, T_k the blocks of
    the ``composition_table`` of F, and the leading square of T_n is the
    substitution matrix S_n(A), whose inverse is S_n(A^-1).  So degree by
    degree Y_n = (X_n - sum_{k<n} Y_k T_k[degree-n columns]) S_n(A^-1), and
    each Y_n is taken off all higher degrees of X in one product.  The
    S_n(A^-1) are the powers of the linear maps A^-1, left out where every
    A is the identity, as for conjugators.  One table of the divisor, which
    keeps all its powers, takes the place of the compositions that
    inverting it degree by degree would cost.
    """
    if np.any(inner[..., 0] != 0.0):
        raise ValueError("inverse requires a map fixing the origin")
    linear = _linear_parts(inner, dim)
    try:
        ainv = np.linalg.inv(linear)
    except np.linalg.LinAlgError as exc:
        raise ValueError("linear part is singular") from exc
    table = composition_table(inner, dim, degree)
    substs = None
    if not (linear == np.eye(dim)).all():
        substs = [power.reshape(ainv.shape[:-2] + power.shape[1:]) for _, _, power in
                  _powers(_linear_jets(ainv).reshape(-1, dim, dim + 1), dim, degree, degree)]
    lead = np.broadcast_shapes(outer.shape[:-2], inner.shape[:-2])
    out = _fit(np.broadcast_to(outer, lead + outer.shape[-2:]), jet_width(dim, degree))
    for n, T in enumerate(table, start=1):
        cols = degree_cols(dim, n)
        if substs is not None:
            out[..., cols] = out[..., cols] @ substs[n - 1]
        if n < degree:
            out[..., cols.stop:] -= out[..., cols] @ T[..., cols.stop - cols.start:]
    return out


def invert_jets(jets: np.ndarray, dim: int, degree: int) -> np.ndarray:
    """Truncated compositional inverses R[s] with jets[s] o R[s] = t through `degree`.

    jets is a stack of shape (S, m, w) over m = `dim` variables, every map
    fixing the origin with an invertible linear part: the identity divided
    by each map, ``divide_jets``.
    """
    return divide_jets(_linear_jets(np.eye(dim)), jets, dim, degree)


def invert_truncated(pmap: PolyMap, max_degree: int) -> PolyMap:
    """Truncated compositional inverse R with pmap(R(t)) = t through max_degree.

    Requires pmap(0) = 0 and an invertible linear part; ``invert_jets`` of
    the one map.
    """
    if pmap.source.block_dims != pmap.target.block_dims:
        raise ValueError("inverse needs matching source and target gradings")
    jet = invert_jets(pmap.jet[None], pmap.source.dim, max_degree)[0]
    return PolyMap.from_jet(pmap.source, pmap.target, max_degree, jet)
