"""Finite-dimensional F_p algebras by structure constants."""
from __future__ import annotations

import json

from .. import ArfkitError
from ..groups.core import Group


class AlgebraError(ArfkitError):
    pass


class FiniteAlgebra:
    """Basis-indexed algebra over F_p with optional anti-involution.

    mult[i][j] is the coefficient vector of e_i e_j; involution, when
    present, is the matrix row list im[i] = coefficients of the image of
    e_i.  Associativity, the unit laws and the anti-involution axioms are
    verified over all basis triples on construction.
    """

    def __init__(self, p, labels, mult, unit, involution=None, name=None, check=True):
        self.p = p
        self.labels = list(labels)
        self.dim = len(self.labels)
        self.mult = [[tuple(c % p for c in mult[i][j]) for j in range(self.dim)]
                     for i in range(self.dim)]
        self.unit = tuple(c % p for c in unit)
        self.involution = None
        if involution is not None:
            self.involution = [tuple(c % p for c in row) for row in involution]
        self.name = name or "algebra"
        if check:
            self._validate()

    # -- vector helpers -----------------------------------------------------

    def zero_vec(self):
        return (0,) * self.dim

    def basis_vec(self, i, c=1):
        v = [0] * self.dim
        v[i] = c % self.p
        return tuple(v)

    def add(self, x, y):
        return tuple((a + b) % self.p for a, b in zip(x, y))

    def sub(self, x, y):
        return tuple((a - b) % self.p for a, b in zip(x, y))

    def scale(self, x, c):
        return tuple((a * c) % self.p for a in x)

    def mul(self, x, y):
        out = [0] * self.dim
        for i, a in enumerate(x):
            if not a:
                continue
            for j, b in enumerate(y):
                if not b:
                    continue
                row = self.mult[i][j]
                ab = a * b
                for k, c in enumerate(row):
                    if c:
                        out[k] = (out[k] + ab * c) % self.p
        return tuple(out)

    def power(self, x, k):
        acc = self.unit
        for _ in range(k):
            acc = self.mul(acc, x)
        return acc

    def invol(self, x):
        if self.involution is None:
            raise AlgebraError("no involution registered")
        out = [0] * self.dim
        for i, a in enumerate(x):
            if not a:
                continue
            for k, c in enumerate(self.involution[i]):
                if c:
                    out[k] = (out[k] + a * c) % self.p
        return tuple(out)

    def commutator(self, x, y):
        return self.sub(self.mul(x, y), self.mul(y, x))

    def _validate(self):
        d = self.dim
        for i in range(d):
            ei = self.basis_vec(i)
            if self.mul(self.unit, ei) != ei or self.mul(ei, self.unit) != ei:
                raise AlgebraError("unit law fails")
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    lhs = self.mul(self.basis_vec(i),
                                   self.mul(self.basis_vec(j), self.basis_vec(k)))
                    rhs = self.mul(self.mul(self.basis_vec(i), self.basis_vec(j)),
                                   self.basis_vec(k))
                    if lhs != rhs:
                        raise AlgebraError("associativity fails")
        if self.involution is not None:
            for i in range(d):
                ei = self.basis_vec(i)
                if self.invol(self.invol(ei)) != ei:
                    raise AlgebraError("involution does not square to 1")
            for i in range(d):
                for j in range(d):
                    x, y = self.basis_vec(i), self.basis_vec(j)
                    if self.invol(self.mul(x, y)) != self.mul(self.invol(y), self.invol(x)):
                        raise AlgebraError("involution is not an anti-homomorphism")

    def format_vec(self, x):
        parts = [(f"{self.labels[i]}" if c == 1 else f"{c}*{self.labels[i]}")
                 for i, c in enumerate(x) if c]
        return " + ".join(parts) if parts else "0"

    def to_json(self):
        return {"p": self.p, "labels": self.labels,
                "mult": [[list(v) for v in row] for row in self.mult],
                "unit": list(self.unit),
                "involution": None if self.involution is None
                else [list(r) for r in self.involution],
                "name": self.name}


def algebra_from_json(data):
    if isinstance(data, str):
        data = json.loads(data)
    return FiniteAlgebra(data["p"], data["labels"], data["mult"], data["unit"],
                         data.get("involution"), data.get("name"))


def group_algebra(G: Group, p=2):
    """F_p[G] with the inverse anti-involution."""
    els = G.elements()
    idx = {g: i for i, g in enumerate(els)}
    d = len(els)
    mult = [[None] * d for _ in range(d)]
    for i, g in enumerate(els):
        for j, h in enumerate(els):
            v = [0] * d
            v[idx[G.mul(g, h)]] = 1
            mult[i][j] = v
    unit = [0] * d
    unit[idx[G.identity]] = 1
    invol = []
    for g in els:
        v = [0] * d
        v[idx[G.inv(g)]] = 1
        invol.append(v)
    return FiniteAlgebra(p, [G.format_element(g) for g in els], mult, unit,
                         invol, name=f"F{p}[{getattr(G, 'name', '?')}]")


def matrix_algebra(A: FiniteAlgebra, m):
    """M_m(A) with the conjugate-transpose involution (when A has one)."""
    d = A.dim
    labels = []
    basis = []
    for i in range(m):
        for j in range(m):
            for s in range(d):
                labels.append(f"E{i}{j}({A.labels[s]})")
                basis.append((i, j, s))
    D = len(basis)
    index = {b: t for t, b in enumerate(basis)}

    def vec_of(i, j, coeffs):
        v = [0] * D
        for s, c in enumerate(coeffs):
            if c:
                v[index[(i, j, s)]] = c % A.p
        return v

    mult = [[None] * D for _ in range(D)]
    for t1, (i, j, s1) in enumerate(basis):
        for t2, (k, l, s2) in enumerate(basis):
            if j != k:
                mult[t1][t2] = [0] * D
            else:
                prod = A.mul(A.basis_vec(s1), A.basis_vec(s2))
                mult[t1][t2] = vec_of(i, l, prod)
    unit = [0] * D
    for i in range(m):
        for s, c in enumerate(A.unit):
            if c:
                unit[index[(i, i, s)]] = c
    invol = None
    if A.involution is not None:
        invol = []
        for (i, j, s) in basis:
            invol.append(vec_of(j, i, A.invol(A.basis_vec(s))))
    alg = FiniteAlgebra(A.p, labels, mult, unit, invol,
                        name=f"M{m}({A.name})", check=False)
    alg.base = A
    alg.msize = m
    alg.base_index = index
    alg.base_basis = basis
    return alg


def field_algebra(p):
    return FiniteAlgebra(p, ["1"], [[[1]]], [1], [[1]], name=f"F{p}")
