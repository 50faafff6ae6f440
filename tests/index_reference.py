"""Reference monomial index tables, built from tuples of multi-indices.

These are the set-based builders the package used before its tables were
read from exponent arrays: the sorted monomials of each degree with a dict
of their indices and the power recurrence, the entries of the
multiplication matrices from tuples, the block-degree groups by
``np.unique`` and the admissible slots type by type.  Last come the power
kernel's plans as the package built them from one full entry list per
dimension and degree, filtered for each column window.  The tests require
``orbitnf.polymap`` to match them exactly.
"""

import functools
import math

import numpy as np


def mono_table(dim: int, degree: int):
    """Sorted degree-n monomials, their index dict, first and parent."""
    if degree == 0:
        return ((0,) * dim,), {(0,) * dim: 0}, None, None
    below = mono_table(dim, degree - 1)[1]
    monos = tuple(sorted({a[:l] + (a[l] + 1,) + a[l + 1:] for a in below for l in range(dim)}))
    first = np.array([next(j for j, p in enumerate(a) if p) for a in monos])
    parent = np.array([below[a[:j] + (a[j] - 1,) + a[j + 1:]] for a, j in zip(monos, first)])
    return monos, {a: j for j, a in enumerate(monos)}, first, parent


@functools.lru_cache(maxsize=None)
def mul_pairs(dim: int, degree: int):
    """(e, col, src) entries of the multiplication matrices."""
    exps = np.array([a for n in range(degree + 1) for a in mono_table(dim, n)[0]])
    total = exps.sum(axis=1)
    room = np.array([math.comb(dim + degree - int(t), dim) for t in total])
    src = np.repeat(np.arange(len(exps)), room)
    e = np.arange(room.sum()) - np.repeat(np.cumsum(room) - room, room)
    key = exps @ (degree + 1) ** np.arange(dim)
    order = np.argsort(key)
    col = order[np.searchsorted(key[order], key[e] + key[src])]
    return e, col, src


def first_runs(m: int, k: int):
    first = mono_table(m, k)[2]
    return tuple((int(a), int(b) + 1)
                 for a, b in (np.flatnonzero(first == j)[[0, -1]] for j in range(m)))


def block_degree_groups(block_dims: tuple[int, ...], n: int):
    block_of_coord = [b for b, m in enumerate(block_dims, start=1) for _ in range(m)]
    onehot = np.equal.outer(block_of_coord, np.arange(1, len(block_dims) + 1))
    keys, inverse = np.unique(np.array(mono_table(sum(block_dims), n)[0]) @ onehot, axis=0,
                              return_inverse=True)
    return tuple((tuple(map(int, s)), np.flatnonzero(inverse.ravel() == g))
                 for g, s in enumerate(keys))


def admissible_mask(block_dims: tuple[int, ...], n: int, types) -> np.ndarray:
    """True at (coordinate i, degree-n monomial alpha) when (block of i, per-block
    degrees of alpha) is in `types`."""
    block_of_coord = [b for b, m in enumerate(block_dims, start=1) for _ in range(m)]
    degrees = [tuple(sum(p for p, b in zip(alpha, block_of_coord) if b == blk)
                     for blk in range(1, len(block_dims) + 1))
               for alpha in mono_table(sum(block_dims), n)[0]]
    return np.array([[(b, s) in types for s in degrees] for b in block_of_coord])


# -- the power kernel's plans, as the package built them from full entry lists --

def jet_width(dim: int, degree: int) -> int:
    return math.comb(dim + degree, dim)


def mul_plan(dim: int, degree: int, rows: tuple[int, int], cols: tuple[int, int]):
    """Scatter plan (flat, src, shape) of the multiplication matrix cut to the
    column windows rows and cols, every entry of ``mul_pairs`` filtered by
    both, the rows ending with the last that meets the window."""
    e, col, src = mul_pairs(dim, degree)
    keep = (e >= rows[0]) & (e < rows[1]) & (col >= cols[0]) & (col < cols[1])
    e, col, src = e[keep] - rows[0], col[keep] - cols[0], src[keep]
    width = cols[1] - cols[0]
    return e * width + col, src, (int(e.max(initial=-1)) + 1, width)


def power_plan(m: int, dim: int, degree: int, top: int, low: int, step: int,
               product_macs: int):
    """The steps of the power kernel over column windows, one full entry list
    per plan: (lo, hi, monomials, (flat, src, rows, cols), products) per
    degree k = 1..top."""
    plan, prev = [], None
    for k in range(1, top + 1):
        lo = jet_width(dim, k * low - 1) if k * low else 0
        hi = max(lo, jet_width(dim, min(degree, k * step)))
        runs = first_runs(m, k)
        mul, products = None, ()
        if k > 1:
            flat, src, (rows, cols) = mul_plan(dim, degree, prev, (lo, hi))
            mul = (flat, src, rows, cols)
            blocks = [(rows, 0, cols)]
            if low:
                diag = min(cols, jet_width(dim, k) - lo)
                blocks = [(lo - prev[0], 0, diag), (rows, diag, cols)]
            blocks = [(r, c0, c1, max(1, product_macs // max(1, r * (c1 - c0))))
                      for r, c0, c1 in blocks if c0 < c1]
            products = tuple(
                (j, tuple((slice(c - a, min(b, c + chunk) - a), r, slice(c0, c1),
                           slice(c, min(b, c + chunk)))
                          for r, c0, c1, chunk in blocks for c in range(a, b, chunk)))
                for j, (a, b) in enumerate(runs))
        plan.append((lo, hi, runs[0][1], mul, products))
        prev = (lo, hi)
    return tuple(plan)


def assert_same_plan(got, want):
    """Power plans equal up to the order of their scatter entries."""
    assert len(got) == len(want)
    for step, ref in zip(got, want):
        assert step[:3] == ref[:3] and step[4] == ref[4]
        assert (step[3] is None) == (ref[3] is None)
        if ref[3] is None:
            continue
        (flat, src, rows, cols), (ref_flat, ref_src, ref_rows, ref_cols) = step[3], ref[3]
        assert (rows, cols) == (ref_rows, ref_cols)
        assert flat.dtype == src.dtype == np.intp
        assert len(np.unique(flat)) == len(flat)
        order, ref_order = np.argsort(flat), np.argsort(ref_flat)
        np.testing.assert_array_equal(flat[order], ref_flat[ref_order])
        np.testing.assert_array_equal(src[order], ref_src[ref_order])
