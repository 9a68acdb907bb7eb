"""Group descriptors and canonical element arithmetic.

Five families are supported: finite groups by multiplication table or by
permutation generators, the lattice-flip products Z^n x| C2, and the two
pull-back shapes (over the infinite cyclic resp. infinite dihedral group)
that realize every group with an infinite cyclic subgroup of finite index.

Elements are plain hashable data; all operations go through the descriptor.
Encodings are canonical: equal elements are bit-identical.
"""
from __future__ import annotations

import itertools
import json

from .. import ArfkitError


class GroupError(ArfkitError):
    pass


# ---------------------------------------------------------------------------
# infinite dihedral arithmetic: elements (eps, i) standing for S^eps T^i

def dmul(a, b):
    (e1, i1), (e2, i2) = a, b
    return (e1 ^ e2, (-i1 if e2 else i1) + i2)


def dinv(a):
    e, i = a
    return (e, i if e else -i)


D_ID = (0, 0)


class Group:
    """Base descriptor.  Subclasses fix the element encoding."""

    family = "abstract"
    is_finite = False
    is_two_ends = False

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    @property
    def identity(self):
        raise NotImplementedError

    def power(self, g, k):
        if k < 0:
            return self.power(self.inv(g), -k)
        acc, base = self.identity, g
        while k:
            if k & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            k >>= 1
        return acc

    def conj(self, g, x):
        """x g x^-1."""
        return self.mul(self.mul(x, g), self.inv(x))

    def order_of(self, g):
        """Least k > 0 with g^k = 1, or None when the normal form proves
        no such k exists."""
        acc, k = g, 1
        bound = self.order() if self.is_finite else None
        while acc != self.identity:
            acc = self.mul(acc, g)
            k += 1
            if bound is not None and k > bound:
                raise GroupError("order computation exceeded group order")
            if bound is None and k > 2 ** 20:  # pragma: no cover
                raise GroupError("runaway order computation")
        return k

    def order(self):
        raise GroupError(f"{self.family} group is not finite")

    def elements(self):
        raise GroupError(f"{self.family} group is not enumerable")

    def window_elements(self, bound):
        return self.elements()

    def involutions(self, window=None):
        """All g with g^2 = 1, in canonical order (windowed if infinite)."""
        if self.is_finite:
            els = self.elements()
        else:
            if window is None:
                raise GroupError("infinite family needs a window")
            els = self.window_elements(window)
        out = [g for g in els if self.mul(g, g) == self.identity]
        out.sort(key=self.key)
        return out

    def key(self, g):
        """Canonical sortable encoding."""
        raise NotImplementedError

    def generators(self):
        """Named generator dict used for word parsing and display."""
        return {}

    # -- element I/O -------------------------------------------------------

    def format_element(self, g):
        raise NotImplementedError

    def parse_element(self, text):
        """Parse either the family syntax or a word in the named
        generators ("X^2*Y^-1*S", "1")."""
        text = text.strip()
        g = self._parse_family(text)
        if g is not None:
            return g
        return self.parse_word(text)

    def _parse_family(self, text):
        return None

    def parse_word(self, text):
        gens = self.generators()
        if text in ("1", "e", ""):
            return self.identity
        acc = self.identity
        for tok in text.replace(" ", "").split("*"):
            if not tok:
                continue
            if "^" in tok:
                name, exp = tok.split("^")
                exp = int(exp)
            else:
                name, exp = tok, 1
            if name == "1":
                continue
            if name not in gens:
                raise GroupError(f"unknown generator {name!r}")
            acc = self.mul(acc, self.power(gens[name], exp))
        return acc

    def check_membership(self, g):
        return True

    def to_json(self):
        raise NotImplementedError


# ---------------------------------------------------------------------------


class FiniteTableGroup(Group):
    """Finite group given by labels and a row-major index table."""

    family = "finite_table"
    is_finite = True

    def __init__(self, labels, table, generator_names=None, name=None):
        self.labels = list(labels)
        self.table = [list(r) for r in table]
        self.name = name
        n = len(self.labels)
        if len(self.table) != n or any(len(r) != n for r in self.table):
            raise GroupError("table shape does not match labels")
        self._label_index = {lab: i for i, lab in enumerate(self.labels)}
        if len(self._label_index) != n:
            raise GroupError("duplicate labels")
        self._validate()
        self._gen_names = dict(generator_names or {})

    def _validate(self):
        n = len(self.labels)
        cols = list(zip(*self.table))
        for i in range(n):
            if sorted(self.table[i]) != list(range(n)) or sorted(cols[i]) != list(range(n)):
                raise GroupError("table is not a Latin square")
        ident = None
        for e in range(n):
            if all(self.table[e][x] == x and self.table[x][e] == x for x in range(n)):
                ident = e
                break
        if ident is None:
            raise GroupError("table has no identity")
        self._identity = ident
        self._inv = [None] * n
        for a in range(n):
            for b in range(n):
                if self.table[a][b] == ident:
                    self._inv[a] = b
                    break
            if self._inv[a] is None or self.table[self._inv[a]][a] != ident:
                raise GroupError("table has no two-sided inverses")
        if n <= 128:
            for a in range(n):
                for b in range(n):
                    for c in range(n):
                        if self.table[self.table[a][b]][c] != self.table[a][self.table[b][c]]:
                            raise GroupError("table is not associative")

    def mul(self, a, b):
        return self.table[a][b]

    def inv(self, a):
        return self._inv[a]

    @property
    def identity(self):
        return self._identity

    def order(self):
        return len(self.labels)

    def elements(self):
        return list(range(len(self.labels)))

    def key(self, g):
        return (g,)

    def generators(self):
        return {n: (self._label_index[v] if isinstance(v, str) else v)
                for n, v in self._gen_names.items()}

    def format_element(self, g):
        return self.labels[g]

    def _parse_family(self, text):
        return self._label_index.get(text)

    def to_json(self):
        return {"family": "finite_table", "labels": self.labels,
                "table": self.table, "generators": self._gen_names,
                "name": self.name}


class FinitePermGroup(Group):
    """Finite group generated by permutations of {0..n-1}.

    Elements are image tuples; the group is enumerated on construction,
    refusing (rather than truncating) past the cap.
    """

    family = "finite_perm"
    is_finite = True
    DEFAULT_CAP = 10_000

    def __init__(self, generators, n, cap=None, generator_names=None, name=None):
        self.n = n
        self.gens = [tuple(g) for g in generators]
        self.cap = cap or self.DEFAULT_CAP
        self.name = name
        for g in self.gens:
            if sorted(g) != list(range(n)):
                raise GroupError("generator is not a permutation")
        ident = tuple(range(n))
        seen = {ident}
        frontier = [ident]
        while frontier:
            nxt = []
            for x in frontier:
                for g in self.gens:
                    y = tuple(x[g[i]] for i in range(n))
                    if y not in seen:
                        if len(seen) >= self.cap:
                            raise GroupError("enumeration cap exceeded")
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        self._elements = sorted(seen)
        self._index = {g: i for i, g in enumerate(self._elements)}
        self._gen_names = {}
        if generator_names:
            self._gen_names = {k: tuple(v) for k, v in generator_names.items()}

    def mul(self, a, b):
        return tuple(a[b[i]] for i in range(self.n))

    def inv(self, a):
        out = [0] * self.n
        for i, x in enumerate(a):
            out[x] = i
        return tuple(out)

    @property
    def identity(self):
        return tuple(range(self.n))

    def order(self):
        return len(self._elements)

    def elements(self):
        return list(self._elements)

    def key(self, g):
        return (self._index[g],)

    def generators(self):
        return dict(self._gen_names)

    def format_element(self, g):
        return "(" + " ".join(str(x) for x in g) + ")"

    def _parse_family(self, text):
        text = text.strip()
        if text.startswith("(") and text.endswith(")") and "|" not in text:
            try:
                img = tuple(int(t) for t in text[1:-1].replace(",", " ").split())
            except ValueError:
                return None
            if len(img) == self.n and img in self._index:
                return img
        return None

    def to_json(self):
        return {"family": "finite_perm", "generators": [list(g) for g in self.gens],
                "n": self.n, "cap": self.cap, "name": self.name}


class SemidirectZnC2(Group):
    """Z^n x| C2 with the flip acting by negation.

    Elements (v, s) with v an n-tuple of ints and s in {0,1};
    (v,s)(w,t) = (v + (-1)^s w, s+t).
    """

    family = "semidirect_zn_c2"
    is_finite = False

    def __init__(self, rank, var_names=None, name=None):
        self.rank = rank
        self.name = name
        if var_names is None:
            var_names = ["X", "Y", "Z", "W"][:rank] if rank <= 4 else [f"X{i}" for i in range(rank)]
        if len(var_names) != rank:
            raise GroupError("need one name per lattice coordinate")
        self.var_names = list(var_names)

    def mul(self, a, b):
        (v, s), (w, t) = a, b
        if s:
            w = tuple(-x for x in w)
        return (tuple(x + y for x, y in zip(v, w)), s ^ t)

    def inv(self, a):
        v, s = a
        if s:
            return a
        return (tuple(-x for x in v), 0)

    @property
    def identity(self):
        return (tuple(0 for _ in range(self.rank)), 0)

    def order_of(self, g):
        v, s = g
        if s:
            return 2
        if any(v):
            return None
        return 1

    def window_elements(self, bound):
        rng = range(-bound, bound + 1)
        out = []
        for v in itertools.product(rng, repeat=self.rank):
            out.append((v, 0))
            out.append((v, 1))
        out.sort(key=self.key)
        return out

    def key(self, g):
        v, s = g
        return (s,) + v

    def generators(self):
        gens = {}
        for i, nm in enumerate(self.var_names):
            e = tuple(1 if j == i else 0 for j in range(self.rank))
            gens[nm] = (e, 0)
        gens["S"] = (tuple(0 for _ in range(self.rank)), 1)
        return gens

    def format_element(self, g):
        v, s = g
        parts = []
        for name, e in zip(self.var_names, v):
            if e == 1:
                parts.append(name)
            elif e:
                parts.append(f"{name}^{e}")
        if s:
            parts.append("S")
        return "*".join(parts) if parts else "1"

    def _parse_family(self, text):
        if text.startswith("(") and text.endswith(")") and "|" in text:
            body = text[1:-1]
            vec, s = body.rsplit("|", 1)
            v = tuple(int(t) for t in vec.split(","))
            if len(v) != self.rank:
                raise GroupError("wrong rank in element literal")
            return (v, int(s) & 1)
        return None

    def to_json(self):
        return {"family": "semidirect_zn_c2", "rank": self.rank,
                "vars": self.var_names, "name": self.name}


class _PullbackBase(Group):
    """Common machinery for the two pull-back families.

    E is a finite group (table), m the modulus, hom the map E -> C_m
    (given as tau exponents) resp. E -> D_m (pairs (eps, i))."""

    is_finite = False
    is_two_ends = True

    def __init__(self, E, m, hom, generator_words=None, name=None):
        if not isinstance(E, FiniteTableGroup):
            raise GroupError("pull-back needs a finite table group E")
        self.E = E
        self.m = m
        self.hom = list(hom)
        self.name = name
        self._gen_words = dict(generator_words or {})
        self._validate_hom()

    def _hom_mul(self, x, y):
        raise NotImplementedError

    def _validate_hom(self):
        n = self.E.order()
        if len(self.hom) != n:
            raise GroupError("hom must list one value per element of E")
        for a in range(n):
            for b in range(n):
                if self._hom_mul(self.hom[a], self.hom[b]) != self.hom[self.E.mul(a, b)]:
                    raise GroupError("hom is not multiplicative")
        if self.hom[self.E.identity] != self._hom_identity():
            raise GroupError("hom does not fix the identity")

    def generators(self):
        return {nm: self.parse_element_raw(raw) for nm, raw in self._gen_words.items()}

    def parse_element_raw(self, raw):
        d, e = raw
        g = (tuple(d) if isinstance(d, (list, tuple)) else d, e)
        if not self.check_membership(g):
            raise GroupError("element violates the pull-back condition")
        return g


class PullbackCyclicGroup(_PullbackBase):
    """Pull-back of C -> C_m <- E; elements (i, e) with i = hom(e) mod m."""

    family = "pullback_cyclic"

    def _hom_mul(self, x, y):
        return (x + y) % self.m

    def _hom_identity(self):
        return 0

    def check_membership(self, g):
        i, e = g
        return isinstance(i, int) and 0 <= e < self.E.order() and i % self.m == self.hom[e]

    def mul(self, a, b):
        return (a[0] + b[0], self.E.mul(a[1], b[1]))

    def inv(self, a):
        return (-a[0], self.E.inv(a[1]))

    @property
    def identity(self):
        return (0, self.E.identity)

    def order_of(self, g):
        if g[0] != 0:
            return None
        return self.E.order_of(g[1])

    def window_elements(self, bound):
        out = []
        for e in self.E.elements():
            base = self.hom[e]
            i = base - self.m * ((base + bound) // self.m)
            while i <= bound:
                if abs(i) <= bound:
                    out.append((i, e))
                i += self.m
        out.sort(key=self.key)
        return out

    def key(self, g):
        return (g[0], g[1])

    def format_element(self, g):
        return f"({g[0]}|{self.E.format_element(g[1])})"

    def _parse_family(self, text):
        if text.startswith("(") and text.endswith(")") and "|" in text:
            body = text[1:-1]
            i, lab = body.split("|", 1)
            e = self.E._label_index.get(lab)
            if e is None:
                raise GroupError(f"unknown E-label {lab!r}")
            g = (int(i), e)
            if not self.check_membership(g):
                raise GroupError("element violates the pull-back condition")
            return g
        return None

    def to_json(self):
        return {"family": "pullback_cyclic", "E": self.E.to_json(), "m": self.m,
                "hom": self.hom, "generators": self._gen_words, "name": self.name}


class PullbackDihedralGroup(_PullbackBase):
    """Pull-back of D -> D_m <- E; elements ((eps,i), e) with
    p(S^eps T^i) = hom(e) in D_m."""

    family = "pullback_dihedral"

    def _hom_mul(self, x, y):
        (e1, i1), (e2, i2) = x, y
        return (e1 ^ e2, ((-i1 if e2 else i1) + i2) % self.m)

    def _hom_identity(self):
        return (0, 0)

    def __init__(self, E, m, hom, generator_words=None, name=None):
        hom = [tuple(h) for h in hom]
        super().__init__(E, m, hom, generator_words, name)

    def check_membership(self, g):
        d, e = g
        if not (isinstance(d, tuple) and len(d) == 2 and 0 <= e < self.E.order()):
            return False
        eps, i = d
        return (eps & 1, i % self.m) == self.hom[e]

    def mul(self, a, b):
        return (dmul(a[0], b[0]), self.E.mul(a[1], b[1]))

    def inv(self, a):
        return (dinv(a[0]), self.E.inv(a[1]))

    @property
    def identity(self):
        return (D_ID, self.E.identity)

    def order_of(self, g):
        (eps, i), e = g
        if eps == 0:
            if i != 0:
                return None
            return self.E.order_of(e)
        # S-type: g^2 = (1, e^2)
        sq = self.mul(g, g)
        if sq == self.identity:
            return 2
        k = self.order_of(sq)
        return None if k is None else 2 * k

    def window_elements(self, bound):
        out = []
        for e in self.E.elements():
            eps, base = self.hom[e]
            i = base - self.m * ((base + bound) // self.m)
            while i <= bound:
                if abs(i) <= bound:
                    out.append(((eps, i), e))
                i += self.m
        out.sort(key=self.key)
        return out

    def key(self, g):
        (eps, i), e = g
        return (eps, i, e)

    def format_element(self, g):
        (eps, i), e = g
        return f"({eps},{i}|{self.E.format_element(e)})"

    def _parse_family(self, text):
        if text.startswith("(") and text.endswith(")") and "|" in text:
            body = text[1:-1]
            d, lab = body.split("|", 1)
            parts = d.split(",")
            if len(parts) != 2:
                raise GroupError("dihedral element literal needs (eps,i|label)")
            e = self.E._label_index.get(lab)
            if e is None:
                raise GroupError(f"unknown E-label {lab!r}")
            g = ((int(parts[0]) & 1, int(parts[1])), e)
            if not self.check_membership(g):
                raise GroupError("element violates the pull-back condition")
            return g
        return None

    def to_json(self):
        return {"family": "pullback_dihedral", "E": self.E.to_json(), "m": self.m,
                "hom": [list(h) for h in self.hom], "generators": self._gen_words,
                "name": self.name}


# ---------------------------------------------------------------------------
# constructors for finite groups


def table_from_mul(elements, mul, labels=None, generator_names=None, name=None):
    idx = {g: i for i, g in enumerate(elements)}
    table = [[idx[mul(a, b)] for b in elements] for a in elements]
    labels = labels or [str(g) for g in elements]
    gnames = None
    if generator_names:
        gnames = {nm: idx[g] for nm, g in generator_names.items()}
    return FiniteTableGroup(labels, table, generator_names=gnames, name=name)


def cyclic_group(n, gen_name="g"):
    els = list(range(n))
    return table_from_mul(els, lambda a, b: (a + b) % n,
                          labels=[_pow_label(gen_name, i) for i in els],
                          generator_names={gen_name: 1 % n}, name=f"C{n}")


def metacyclic_group(n, m, t, s=0, names=("a", "b"), name=None):
    """<a, b | a^n = 1, b^m = a^s, b a b^-1 = a^t>, elements a^i b^j.

    Consistency (t^m = 1 mod n, s(t-1) = 0 mod n) is asserted.
    """
    if pow(t, m, n) != 1 % n or (s * (t - 1)) % n != 0:
        raise GroupError("inconsistent metacyclic data")
    els = [(i, j) for j in range(m) for i in range(n)]

    def mul(x, y):
        (i, j), (k, l) = x, y
        i2 = (i + k * pow(t, j, n)) % n
        j2 = j + l
        return ((i2 + s * (j2 // m)) % n, j2 % m)

    an, bn = names
    labels = [_word_label(an, i, bn, j) for (i, j) in els]
    return table_from_mul(els, mul, labels=labels,
                          generator_names={an: (1 % n, 0), bn: (0, 1 % m)},
                          name=name or f"metacyclic({n},{m},{t},{s})")


def dihedral_group(n, names=("r", "s")):
    g = metacyclic_group(n, 2, n - 1, 0, names=names, name=f"D{n}")
    return g


def abelian_group(invariants, gen_names=None):
    """Direct product of cyclic groups of the given orders."""
    if gen_names is None:
        gen_names = ["abcdefgh"[i] for i in range(len(invariants))]
    els = list(itertools.product(*[range(n) for n in invariants]))

    def mul(x, y):
        return tuple((a + b) % n for a, b, n in zip(x, y, invariants))

    gens = {}
    for i, nm in enumerate(gen_names):
        gens[nm] = tuple(1 if j == i else 0 for j in range(len(invariants)))
    labels = ["*".join(_pow_label(gen_names[i], e) for i, e in enumerate(v) if e)
              or "1" for v in els]
    name = "x".join(f"C{n}" for n in invariants)
    return table_from_mul(els, mul, labels=labels, generator_names=gens, name=name)


def direct_product(G, H, name=None):
    els = [(a, b) for a in G.elements() for b in H.elements()]

    def mul(x, y):
        return (G.mul(x[0], y[0]), H.mul(x[1], y[1]))

    labels = [f"{G.format_element(a)}.{H.format_element(b)}" for (a, b) in els]
    return table_from_mul(els, mul, labels=labels,
                          name=name or f"({getattr(G,'name','?')})x({getattr(H,'name','?')})")


def quotient_group(G, normal_members, name=None):
    """G / N for a normal subgroup given by its member set."""
    N = frozenset(normal_members)
    for x in G.elements():
        for n in N:
            if G.conj(n, x) not in N:
                raise GroupError("subgroup is not normal")
    cosets = {}
    for g in G.elements():
        c = frozenset(G.mul(g, n) for n in N)
        cosets.setdefault(c, min(c, key=G.key))
    els = sorted(cosets, key=lambda c: G.key(cosets[c]))

    def mul(c1, c2):
        g = G.mul(cosets[c1], cosets[c2])
        for c in els:
            if g in c:
                return c
        raise AssertionError

    labels = [G.format_element(cosets[c]) + "N" for c in els]
    return table_from_mul(els, mul, labels=labels, name=name)


def symmetric_group(n):
    gens = [tuple([1, 0] + list(range(2, n))), tuple(list(range(1, n)) + [0])]
    return FinitePermGroup(gens, n, name=f"S{n}",
                           generator_names={"t": gens[0], "c": gens[1]})


def alternating_group_4():
    return FinitePermGroup([(1, 0, 3, 2), (1, 2, 0, 3)], 4, name="A4",
                           generator_names={"v": (1, 0, 3, 2), "c": (1, 2, 0, 3)})


def _pow_label(name, i):
    if i == 0:
        return "1"
    if i == 1:
        return name
    return f"{name}^{i}"


def _word_label(an, i, bn, j):
    parts = []
    if i:
        parts.append(_pow_label(an, i))
    if j:
        parts.append(_pow_label(bn, j))
    return "*".join(parts) if parts else "1"


# ---------------------------------------------------------------------------
# the built-in example groups


def group_order24():
    """<X, S | X^12 = S^2 = 1, S X S = X^5> (order 24)."""
    return metacyclic_group(12, 2, 5, 0, names=("X", "S"), name="ch1_order24")


def group_c2_c_c12():
    """<X, Y, S | S^2 = (XS)^2 = Y^12 = 1, SYS = Y^5, XY = YX>,
    the semidirect product C2 x| (C x C12), realized as the pull-back of
    D -> D_1 <- E with E = <y, s | y^12 = s^2 = 1, sys = y^5>.
    """
    E = metacyclic_group(12, 2, 5, 0, names=("y", "s"), name="E24")
    hom = [(_s_degree_metacyclic(E, e), 0) for e in E.elements()]
    gens = {
        "X": ((0, 1), E.identity),
        "Y": ((0, 0), E.generators()["y"]),
        "S": ((1, 0), E.generators()["s"]),
    }
    return PullbackDihedralGroup(E, 1, hom, generator_words=gens, name="ch1_c2_c_c12")


def _s_degree_metacyclic(E, e):
    # metacyclic element (i, j) got label index i + 12*j in construction;
    # recover j-parity through the table: e * e has trivial s-degree iff ...
    # simpler: elements were listed (i, j) with index = j*n + i.
    n = E.order() // 2
    return (e // n) & 1


def group_c_by_d4():
    """<Y, S | S^2 = (YS)^4 = (Y^2 S)^2 = 1>, an extension of C by D4,
    realized as the pull-back of D -> D_2 <- D4 with
    hom(sigma^a tau^b) = sigma^(a+b) tau^b."""
    E = dihedral_group(4, names=("tau", "sigma"))
    # metacyclic(4,2,3): elements (i,j) = tau^i sigma^j, index = j*4 + i
    hom = []
    for e in E.elements():
        i, j = e % 4, e // 4
        hom.append(((j + i) & 1, i & 1))
    gens = {
        "Y": ((0, 1), E.parse_element("tau*sigma")),
        "S": ((1, 0), E.parse_element("sigma")),
    }
    return PullbackDihedralGroup(E, 2, hom, generator_words=gens, name="ch1_c_by_d4")


def group_plane():
    """Z^2 x| C2, the Ch. II/IV running example <X,Y,S>."""
    return SemidirectZnC2(2, var_names=["X", "Y"], name="ch2_plane")


def group_xyz():
    """Z^3 x| C2 with generators X, Y, Z, S."""
    return SemidirectZnC2(3, var_names=["X", "Y", "Z"], name="ch4_xyz")


def pullback_cyclic_example():
    """Pull-back of C -> C_2 <- C_4: an abelian two-ends test group."""
    E = cyclic_group(4, gen_name="c")
    hom = [e % 2 for e in E.elements()]
    gens = {"T": (2, E.identity), "c": (1, 1)}
    return PullbackCyclicGroup(E, 2, hom, generator_words=gens, name="pb_cyclic_c4")


BUILTIN_GROUPS = {
    "ch1-order24": group_order24,
    "ch1-c2-c-c12": group_c2_c_c12,
    "ch1-c-by-d4": group_c_by_d4,
    "ch2-plane": group_plane,
    "ch4-xyz": group_xyz,
    "pb-cyclic-c4": pullback_cyclic_example,
    "c2": lambda: cyclic_group(2),
    "c3": lambda: cyclic_group(3),
    "c4": lambda: cyclic_group(4),
    "s3": lambda: symmetric_group(3),
    "d4": lambda: dihedral_group(4),
}


def builtin_group(name):
    if name not in BUILTIN_GROUPS:
        raise GroupError(f"unknown builtin group {name!r}")
    return BUILTIN_GROUPS[name]()


# ---------------------------------------------------------------------------
# JSON loading


def group_from_json(data):
    if isinstance(data, str):
        data = json.loads(data)
    if "builtin" in data:
        return builtin_group(data["builtin"])
    fam = data.get("family")
    if fam == "finite_table":
        return FiniteTableGroup(data["labels"], data["table"],
                                generator_names=data.get("generators"),
                                name=data.get("name"))
    if fam == "finite_perm":
        return FinitePermGroup(data["generators"], data["n"], cap=data.get("cap"),
                               name=data.get("name"))
    if fam == "semidirect_zn_c2":
        return SemidirectZnC2(data["rank"], var_names=data.get("vars"),
                              name=data.get("name"))
    if fam == "pullback_cyclic":
        E = group_from_json(data["E"])
        return PullbackCyclicGroup(E, data["m"], data["hom"],
                                   generator_words=_raw_gens(data.get("generators")),
                                   name=data.get("name"))
    if fam == "pullback_dihedral":
        E = group_from_json(data["E"])
        return PullbackDihedralGroup(E, data["m"], data["hom"],
                                     generator_words=_raw_gens(data.get("generators")),
                                     name=data.get("name"))
    raise GroupError(f"unknown family {fam!r}")


def _raw_gens(d):
    if not d:
        return None
    out = {}
    for k, (dv, e) in d.items():
        out[k] = (tuple(dv) if isinstance(dv, (list, tuple)) else dv, e)
    return out
