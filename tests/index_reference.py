"""Reference monomial index tables, built from tuples of multi-indices.

These are the set-based builders the package used before its tables were
read from exponent arrays: the sorted monomials of each degree with a dict
of their indices and the power recurrence, the entries of the
multiplication matrices from tuples, and the block-degree groups by
``np.unique``.  The tests require ``orbitnf.polymap`` to match them exactly.
"""

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
