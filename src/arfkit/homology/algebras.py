"""Finite-dimensional F_p algebras by structure constants."""
from __future__ import annotations

import json
import math

from .. import ArfkitError, need
from ..fp import ones, xor_sum
from ..groups.core import FiniteTableGroup
from ..groups.structure import generating_set
from ..memo import derived


class AlgebraError(ArfkitError):
    pass


def _reduced(pairs, p):
    """(k, c) pairs with distinct k -> the tuple of (k, c mod p), increasing
    in k, over c mod p != 0."""
    return tuple(sorted((k, c % p) for k, c in pairs if c % p))


def _combine(p, terms):
    """sum of c * v over a list of (c, v), v given as _reduced pairs; the
    result in the same form."""
    if len(terms) == 1 and terms[0][0] == 1:
        return terms[0][1]
    out = {}
    for c, v in terms:
        for k, e in v:
            out[k] = out.get(k, 0) + c * e
    return _reduced(out.items(), p)


def _packed(v):
    """_reduced pairs over F_2 (every coefficient 1) as an int, bit k = e_k."""
    return sum([1 << k for k, _ in v])


class FiniteAlgebra:
    """Basis-indexed algebra over F_p with optional anti-involution.

    The structure constants are sparse: mult[i][j] holds the pairs (k, c),
    c != 0, of e_i e_j = sum c e_k, and involution[i], when present, holds
    the image of e_i the same way.  Over F_2 the constructor also packs
    them once: bits[i][j] has bit k set when e_k occurs in e_i e_j, and
    inv_bits[i] is invol(e_i) packed the same way, so the F_2 checks and
    relation rows are XORs and shifts of table entries (over odd p both are
    None).  Elements are coefficient tuples, or packed ints over F_2.
    Associativity, the unit laws and the anti-involution axioms are
    verified on construction.

    The F_2 readers that a group algebra reaches as well (the Upsilon
    values of `CokerOnePlusVartheta`, and the H_0 commutators and the
    (1 + vartheta) rows that its forms path replaces) read products
    through `basis_product`, the one primitive a subclass implements, and
    `times` on top of it, and the involution through `invol_packed`.
    `GroupAlgebra` implements them on its group's index table and keeps
    no table of its own.

    `middles` lists basis indices s such that the products of the e_s span
    the algebra: associativity and the anti-homomorphism law are checked
    (see `_validate`), and the boundaries b(e_i (x) e_s (x) e_k) of
    `chains._b2_rows` and the commutators [e_i, e_s] of H_0 are written,
    for those s only.  It is every index
    unless a constructor knows better (`GroupAlgebra` sets a generating
    set of the group).
    """

    def __init__(self, p, labels, mult, unit, involution=None, name=None, check=True):
        self.p = p
        self.labels = list(labels)
        self.dim = len(self.labels)
        self.mult = [[_reduced(v, p) for v in row] for row in mult]
        self.unit = tuple(c % p for c in unit)
        self.involution = (None if involution is None
                           else [_reduced(row, p) for row in involution])
        self.bits = self.inv_bits = None
        if p == 2:
            self.bits = [[_packed(v) for v in row] for row in self.mult]
            if self.involution is not None:
                self.inv_bits = [_packed(v) for v in self.involution]
        self.name = name or "algebra"
        self.middles = range(self.dim)
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

    def basis_product(self, i, j):
        """e_i e_j, packed (F_2)."""
        return self.bits[i][j]

    def times(self, x, y):
        """x y for x, y packed (F_2), on `basis_product`."""
        out, js = 0, ones(y)
        for i in ones(x):
            for j in js:
                out ^= self.basis_product(i, j)
        return out

    def invol_packed(self, x):
        """invol(x) for x packed (F_2)."""
        return xor_sum(x, self.inv_bits)

    def mul(self, x, y):
        mult, p = self.mult, self.p
        ys = [(j, b) for j, b in enumerate(y) if b]
        out = [0] * self.dim
        for i, a in enumerate(x):
            if a:
                row = mult[i]
                for j, b in ys:
                    ab = a * b
                    for k, c in row[j]:
                        out[k] += ab * c
        return tuple([c % p for c in out])

    def power(self, x, k):
        acc = self.unit
        for _ in range(k):
            acc = self.mul(acc, x)
        return acc

    def invol(self, x):
        if self.involution is None:
            raise AlgebraError("no involution registered")
        out, p = [0] * self.dim, self.p
        for i, a in enumerate(x):
            if a:
                for k, c in self.involution[i]:
                    out[k] += a * c
        return tuple([c % p for c in out])

    def commutator(self, x, y):
        return self.sub(self.mul(x, y), self.mul(y, x))

    def _validate(self):
        """Check the unit laws, associativity and, with an involution, that
        it squares to 1 and is an anti-homomorphism.  Over F_2 on the
        packed tables (elements are ints, sums are XORs), over odd p on the
        sparse ones.

        Light's test: the y with (x y) z = x (y z) for all x, z form a
        subspace that holds the unit and is closed under products, since
        for two of them (x (y1 y2)) z = ((x y1) y2) z = (x y1)(y2 z)
        = x (y1 (y2 z)) = x ((y1 y2) z).  So associativity is checked on
        the middles only.

        The same argument bounds the anti-homomorphism check.  The y with
        invol(x y) = invol(y) invol(x) for all x form a subspace.  It holds
        the unit once invol(1) = 1, which is checked apart: the law on
        middles whose products miss the unit does not force it (in
        F_2[x]/(x^3) with the middle x, the map 1 -> 1 + x^2, x -> x,
        x^2 -> x^2 squares to 1 and satisfies the law on x, but is no
        anti-homomorphism).  Given associativity it is
        closed under products: for two of them invol(x y1 y2)
        = invol(y2) invol(x y1) = invol(y2) invol(y1) invol(x)
        = invol(y1 y2) invol(x).  So the law is checked for every e_i and
        every middle e_s only.

        A group algebra runs no check: its laws follow from its group's
        (`GroupAlgebra`).
        """
        d, p, middles = self.dim, self.p, self.middles
        if p == 2:
            T, inv, lin = self.bits, self.inv_bits, xor_sum
            E = [1 << i for i in range(d)]
            unit = _packed(_reduced(enumerate(self.unit), 2))
        else:
            T, inv = self.mult, self.involution
            E = [((i, 1),) for i in range(d)]
            unit = _reduced(enumerate(self.unit), p)

            def lin(x, rows):
                """sum c rows[k] over the pairs (k, c) of x"""
                return _combine(p, [(c, rows[k]) for k, c in x])

        cols = list(zip(*T))                    # cols[k][m] = e_m e_k
        for i in range(d):
            if lin(unit, cols[i]) != E[i] or lin(unit, T[i]) != E[i]:
                raise AlgebraError("unit law fails")
        for i in range(d):
            Ti = T[i]
            for j in middles:
                # (e_i e_j) e_k = e_i (e_j e_k) for every k
                ij = Ti[j]
                if [lin(ij, col) for col in cols] != [lin(jk, Ti) for jk in T[j]]:
                    raise AlgebraError("associativity fails")
        if inv is None:
            return
        for i in range(d):
            if lin(inv[i], inv) != E[i]:
                raise AlgebraError("involution does not square to 1")
        if lin(unit, inv) != unit:
            raise AlgebraError("involution is not an anti-homomorphism")
        # invol(e_s) e_k for every middle s and every k
        left = {s: [lin(inv[s], col) for col in cols] for s in middles}
        for i in range(d):
            for s in middles:
                # invol(e_i e_s) = invol(e_s) invol(e_i)
                if lin(T[i][s], inv) != lin(inv[i], left[s]):
                    raise AlgebraError("involution is not an anti-homomorphism")

    def format_vec(self, x):
        """sum c*label over the nonzero coefficients of x."""
        parts = [(f"{self.labels[i]}" if c == 1 else f"{c}*{self.labels[i]}")
                 for i, c in enumerate(x) if c]
        return " + ".join(parts) if parts else "0"

    def to_json(self):
        E = [self.basis_vec(i) for i in range(self.dim)]
        return {"p": self.p, "labels": self.labels,
                "mult": [[list(self.mul(x, y)) for y in E] for x in E],
                "unit": list(self.unit),
                "involution": None if self.involution is None
                else [list(self.invol(x)) for x in E],
                "name": self.name}


def _int_array(x, shape):
    """Whether x is nested lists of integers (not booleans) of this shape."""
    if not shape:
        return type(x) is int
    return (isinstance(x, list) and len(x) == shape[0]
            and all(_int_array(y, shape[1:]) for y in x))


def algebra_from_json(data):
    """The algebra of a JSON description in the format of `to_json`, with
    dense coefficient vectors; each key is checked for type and shape."""
    if isinstance(data, str):
        data = json.loads(data)
    what = "algebra description"
    p, labels, mult, unit = (need(data, key, AlgebraError, what)
                             for key in ("p", "labels", "mult", "unit"))
    invol, name = data.get("involution"), data.get("name")
    d = len(labels) if isinstance(labels, list) else 0
    for key, ok, kind in (
            ("p", type(p) is int and p >= 2
             and all(p % q for q in range(2, math.isqrt(p) + 1)), "a prime"),
            ("labels", isinstance(labels, list)
             and all(isinstance(s, str) for s in labels), "a list of strings"),
            ("mult", _int_array(mult, (d, d, d)), f"a {d}x{d}x{d} array of integers"),
            ("unit", _int_array(unit, (d,)), f"a list of {d} integers"),
            ("involution", invol is None or _int_array(invol, (d, d)),
             f"null or a {d}x{d} array of integers"),
            ("name", name is None or isinstance(name, str), "a string")):
        if not ok:
            raise AlgebraError(f"{what}: {key!r} is not {kind}")
    return FiniteAlgebra(p, labels, [[enumerate(v) for v in row] for row in mult],
                         unit, None if invol is None else [enumerate(r) for r in invol],
                         name)


class GroupAlgebra(FiniteAlgebra):
    """F_p[G] with the inverse anti-involution, on G's index table.

    The basis vector e_i is the group element i.  The algebra keeps G's
    `table` (shared, not copied), the inverse permutation `inverse`, the
    index `one` of the identity, `unit`, `labels`, `name` and `middles`,
    and no table of its own: e_g e_h = e_gh is the one basis element
    e_table[g][h] (`basis_product`), and invol(e_g) = e_inverse[g].  The
    sparse `mult` and `involution` are built on first read, for the
    generic readers that still take them (the odd p elimination,
    `matrix_algebra`, and `mul`, `invol`, `boundary`); the packed `bits`
    and `inv_bits` are never built.  Over F_2 `chains` reads H_1, HC_1 and
    HQ_1 from the forms that vanish on their relations
    (`forms.ColumnForms`), and their cycles from a spanning forest,
    instead of eliminating the relation rows and the cycle equations.

    Its middles are `generating_set(G)`: each element of a finite group is
    a product of generators (the identity a power of one), so the e_g they
    span are the whole basis.  Only the trivial group, which has no
    generators, keeps the identity.

    No law is checked again.  `FiniteTableGroup._validate` proved this
    table a group when G was built, and descriptors never change their
    fields.  So e_identity is the unit, the basis products are associative
    as the group's are, and g -> g^-1, extended linearly, squares to 1 and
    reverses products, as (gh)^-1 = h^-1 g^-1: an anti-involution.  An
    infinite group is refused by `G.elements()`, and an unnamed group gives
    the algebra F_p[G]."""

    def __init__(self, G: FiniteTableGroup, p=2):
        self.inverse, self.table, self.one = [G.inv(g) for g in G.elements()], G.table, G.identity
        self.p, self.labels, self.dim = p, list(G.labels), len(self.inverse)
        self.unit = tuple([int(i == self.one) for i in range(self.dim)])
        self.name = f"F{p}[{getattr(G, 'name', None) or 'G'}]"
        self.middles = tuple(generating_set(G)) or (self.one,)

    def basis_product(self, i, j):
        return 1 << self.table[i][j]

    def invol_packed(self, x):
        return sum([1 << self.inverse[k] for k in ones(x)])

    @property
    def mult(self):
        """mult[i][j] = ((table[i][j], 1),), built on first read."""
        return derived(self, "mult", lambda: [[((k, 1),) for k in row] for row in self.table])

    @property
    def involution(self):
        """involution[i] = ((inverse[i], 1),), built on first read."""
        return derived(self, "involution", lambda: [((k, 1),) for k in self.inverse])


group_algebra = GroupAlgebra


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
    index = {b: t for t, b in enumerate(basis)}
    # E_ij(a) E_kl(b) = E_il(ab) when j = k, else 0
    mult = [[[(index[(i, l, s)], c) for s, c in A.mult[s1][s2]] if j == k else ()
             for (k, l, s2) in basis] for (i, j, s1) in basis]
    unit = [0] * len(basis)
    for i in range(m):
        for s, c in enumerate(A.unit):
            if c:
                unit[index[(i, i, s)]] = c
    invol = None
    if A.involution is not None:
        # (E_ij(a))^* = E_ji(a^*)
        invol = [[(index[(j, i, s2)], c) for s2, c in A.involution[s]]
                 for (i, j, s) in basis]
    alg = FiniteAlgebra(A.p, labels, mult, unit, invol,
                        name=f"M{m}({A.name})", check=False)
    alg.base = A
    alg.msize = m
    alg.base_index = index
    alg.base_basis = basis
    return alg


def field_algebra(p):
    return FiniteAlgebra(p, ["1"], [[((0, 1),)]], [1], [((0, 1),)], name=f"F{p}")
