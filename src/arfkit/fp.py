"""Dense exact linear algebra over the prime fields F_p (p small).

Everything downstream (class counting, homology, colimit quotients) reduces
to row-space bookkeeping over F_2 or F_3, so this module keeps a single
reduced-echelon representation and hands out immutable quotient contexts.
"""
from __future__ import annotations

import numpy as np


def _inv_mod(a, p):
    return pow(int(a) % p, p - 2, p)


class Subspace:
    """Row space of vectors in F_p^dim, stored in reduced echelon form.

    Instances are immutable after construction; `extended` returns a new
    subspace.  Vectors go in and come out as tuples of ints in [0, p).
    """

    def __init__(self, dim, p=2, rows=()):
        self.dim = int(dim)
        self.p = int(p)
        self._rows = []      # list of np arrays, pivot normalized to 1
        self._pivots = []    # increasing pivot columns
        for r in rows:
            self._absorb(np.asarray(r, dtype=np.int64) % self.p)

    def _absorb(self, v):
        v = self._reduce_arr(v.copy())
        j = _first_nonzero(v)
        if j is None:
            return
        v = (v * _inv_mod(v[j], self.p)) % self.p
        # keep full rref: clear column j in the existing rows
        for i, row in enumerate(self._rows):
            c = row[j]
            if c:
                self._rows[i] = (row - c * v) % self.p
        k = np.searchsorted(np.asarray(self._pivots, dtype=np.int64), j)
        self._rows.insert(int(k), v)
        self._pivots.insert(int(k), j)

    def _reduce_arr(self, v):
        for j, row in zip(self._pivots, self._rows):
            c = v[j]
            if c:
                v = (v - c * row) % self.p
        return v

    @property
    def rank(self):
        return len(self._rows)

    def reduce(self, vec):
        """Canonical residue of `vec` modulo the subspace."""
        v = np.asarray(vec, dtype=np.int64) % self.p
        if v.shape != (self.dim,):
            raise ValueError("vector has wrong length")
        return tuple(int(x) for x in self._reduce_arr(v.copy()))

    def contains(self, vec):
        return all(x == 0 for x in self.reduce(vec))

    def extended(self, rows):
        s = Subspace(self.dim, self.p)
        s._rows = [r.copy() for r in self._rows]
        s._pivots = list(self._pivots)
        for r in rows:
            s._absorb(np.asarray(r, dtype=np.int64) % self.p)
        return s

    def basis(self):
        return [tuple(int(x) for x in r) for r in self._rows]


class QuotientContext:
    """F_p^dim modulo a subspace, with canonical representatives."""

    def __init__(self, dim, p=2, rows=()):
        self.space = Subspace(dim, p, rows)
        self.dim = dim
        self.p = p

    @property
    def quotient_dim(self):
        return self.dim - self.space.rank

    def reduce(self, vec):
        return self.space.reduce(vec)

    def is_zero(self, vec):
        return self.space.contains(vec)

    def equal(self, v, w):
        return self.reduce(v) == self.reduce(w)


def zeros(dim):
    return tuple(0 for _ in range(dim))


def unit(dim, i, c=1):
    v = [0] * dim
    v[i] = c
    return tuple(v)


def add_vec(v, w, p=2):
    return tuple((a + b) % p for a, b in zip(v, w))


def _first_nonzero(v):
    nz = np.nonzero(v)[0]
    return int(nz[0]) if len(nz) else None


def rref(matrix, ncols, p=2):
    """Reduced row echelon form of rows of length ncols.  Returns (rows,
    pivot_columns)."""
    space = Subspace(ncols, p, matrix)
    return space._rows, space._pivots


def kernel_basis(matrix, ncols, p=2):
    """Basis of {x : M x = 0} for M given as an iterable of rows."""
    rows, pivots = rref(matrix, ncols, p)
    pivset = set(pivots)
    free = [j for j in range(ncols) if j not in pivset]
    basis = []
    for f in free:
        x = np.zeros(ncols, dtype=np.int64)
        x[f] = 1
        for j, row in zip(pivots, rows):
            x[j] = (-row[f]) % p
        basis.append(tuple(int(t) for t in x))
    return basis


def solve(matrix, target, ncols, p=2):
    """One solution x of M x = target, or None.  M given as rows."""
    aug = [list(r) + [t] for r, t in zip(matrix, target)]
    rows, pivots = rref(aug, ncols + 1, p)
    x = [0] * ncols
    for j, row in zip(pivots, rows):
        if j == ncols:
            return None
        x[j] = int(row[ncols])
    return tuple(x)
