"""Group descriptors and canonical element arithmetic.

Three shapes of group are supported: finite groups, the lattice-flip
products Z^n x| C2, and the pull-backs over the infinite cyclic or
infinite dihedral group that realize every group with an infinite cyclic
subgroup of finite index.

Every finite group is a `FiniteTableGroup`, whose elements are the indices
0..n-1 of its multiplication table; permutation generators
(`FinitePermGroup`) are enumerated into such a table.

Both pull-back shapes are one representation, `PullbackDihedralGroup`:
the cyclic one (`PullbackCyclicGroup`) is the dihedral one whose hom takes
no reflection, its elements stored as ((0, i), e), and it differs only in
how it reads and writes its hom and its elements.

Elements are plain hashable data; all operations go through the descriptor.
Encodings are canonical: equal elements are bit-identical.
"""
from __future__ import annotations

import itertools
import json
from operator import add, itemgetter, neg, sub

from .. import ArfkitError, need


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
        """The identity element, stored by each family at construction."""
        return self._identity

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
                name, _, exp = tok.partition("^")
                try:
                    exp = int(exp)
                except ValueError:
                    raise GroupError(f"exponent of {tok!r} is not an integer") from None
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
    """Finite group given by labels and a row-major index table.

    The group owns the row lists it is handed: it keeps them as they are,
    never writes to them, and `to_json` hands out copies."""

    family = "finite_table"
    is_finite = True

    def __init__(self, labels, table, generator_names=None, name=None):
        self.labels = list(labels)
        self.table = list(table)
        self.name = name
        n = len(self.labels)
        if len(self.table) != n or any(not isinstance(r, list) or len(r) != n
                                       for r in self.table):
            raise GroupError("table shape does not match labels")
        if set(map(type, itertools.chain.from_iterable(self.table))) - {int}:
            raise GroupError("table entries must be integers")
        self._label_index = {lab: i for i, lab in enumerate(self.labels)}
        if len(self._label_index) != n:
            raise GroupError("duplicate labels")
        self._validate()
        self._gen_names = dict(generator_names or {})

    def _validate(self):
        """Check that the table is a group: its rows are permutations, it
        has a two-sided identity e, every a has a two-sided inverse, and
        its product is associative.  The last three are the axioms of a
        group, and in a group a -> ab is a bijection, with inverse
        a -> ab^-1.  So the columns are permutations too, and the table is
        a Latin square without a column being read."""
        n = len(self.labels)
        t = self.table
        ordered = list(range(n))
        if any(sorted(row) != ordered for row in t):
            raise GroupError("table row is not a permutation")
        ident = next((e for e in ordered
                      if t[e] == ordered and list(map(itemgetter(e), t)) == ordered), None)
        if ident is None:
            raise GroupError("table has no identity")
        self._identity = ident
        self._inv = [row.index(ident) for row in t]
        if any(t[b][a] != ident for a, b in enumerate(self._inv)):
            raise GroupError("table has no two-sided inverses")
        # Light's test: the b with (ab)c = a(bc) for all a, c include the
        # identity and are closed under products, since for two of them
        # (a(bb'))c = ((ab)b')c = (ab)(b'c) = a(b(b'c)) = a((bb')c).  So it
        # suffices to check b in a set S whose right products, from the
        # identity, reach every element: the greedy S of generating_set,
        # which has |S| <= log2 n on a group (each member doubles the span).
        from .structure import generating_set
        for b in generating_set(self):
            if any(t[ta[b]] != list(map(ta.__getitem__, t[b])) for ta in t):
                raise GroupError("table is not associative")

    def mul(self, a, b):
        return self.table[a][b]

    def inv(self, a):
        return self._inv[a]

    def conj(self, g, x):
        t = self.table
        return t[t[x][g]][self._inv[x]]

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
        return {"family": "finite_table", "labels": list(self.labels),
                "table": [row[:] for row in self.table],
                "generators": dict(self._gen_names), "name": self.name}


class FinitePermGroup(FiniteTableGroup):
    """Finite group generated by permutations of {0..n-1}, enumerated into
    an index table of |G|^2 entries; past `cap` elements it refuses rather
    than truncates.  Elements are numbered in sorted image-tuple order and
    labelled "(a b c)", the images of 0, 1, 2."""

    family = "finite_perm"
    DEFAULT_CAP = 10_000

    def __init__(self, generators, n, cap=None, generator_names=None, name=None):
        self.n = n
        self.gens = [tuple(g) for g in generators]
        self.cap = self.DEFAULT_CAP if cap is None else cap
        if any(sorted(g) != list(range(n)) for g in self.gens):
            raise GroupError("generator is not a permutation")
        met = [tuple(range(n))]
        link = {met[0]: None}       # y -> (x, k) with y = x gens[k], x met first
        for x in met:
            for k, g in enumerate(self.gens):
                y = tuple(x[i] for i in g)
                if y not in link:
                    if len(link) >= self.cap:
                        raise GroupError("enumeration cap exceeded")
                    link[y] = (x, k)
                    met.append(y)
        perms = sorted(met)
        index = {p: i for i, p in enumerate(perms)}
        n = len(perms)
        # row x g of the table is row x read through left multiplication by
        # g (a getter returns a tuple when n > 1, and n = 1 has one row)
        take = [itemgetter(*[index[tuple(g[i] for i in p)] for p in perms])
                for g in self.gens]
        rows = {met[0]: _exact_row(range(n), n)}
        for y in met[1:]:
            x, k = link[y]
            rows[y] = _exact_row(take[k](rows[x]), n)
        names = {nm: index.get(tuple(v)) for nm, v in (generator_names or {}).items()}
        if None in names.values():
            raise GroupError("a named generator is not a member of the group")
        super().__init__(map(_perm_label, perms), [rows[p] for p in perms],
                         generator_names=names, name=name)

    def _parse_family(self, text):
        if text.startswith("(") and text.endswith(")") and "|" not in text:
            try:
                img = [int(t) for t in text[1:-1].replace(",", " ").split()]
            except ValueError:
                return None
            return self._label_index.get(_perm_label(img))
        return None

    def to_json(self):
        out = {"family": "finite_perm", "generators": [list(g) for g in self.gens],
               "n": self.n, "cap": self.cap, "name": self.name}
        if self._gen_names:
            out["names"] = {nm: [int(t) for t in self.labels[i][1:-1].split()]
                            for nm, i in self._gen_names.items()}
        return out


def _perm_label(images):
    return "(" + " ".join(map(str, images)) + ")"


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
        self._identity = ((0,) * rank, 0)

    def mul(self, a, b):
        (v, s), (w, t) = a, b
        return (tuple(map(sub if s else add, v, w)), s ^ t)

    def inv(self, a):
        v, s = a
        if s:
            return a
        return (tuple(map(neg, v)), 0)

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
            try:
                v, s = tuple(int(t) for t in vec.split(",")), int(s)
            except ValueError:
                raise GroupError(f"element literal {text!r} is not (v_1,...,v_n|s), "
                                 "integer entries") from None
            if len(v) != self.rank:
                raise GroupError("wrong rank in element literal")
            return (v, s & 1)
        return None

    def to_json(self):
        return {"family": "semidirect_zn_c2", "rank": self.rank,
                "vars": self.var_names, "name": self.name}


class PullbackDihedralGroup(Group):
    """Pull-back of D -> D_m <- E; elements ((eps, i), e) with
    p(S^eps T^i) = hom(e) in D_m.

    E is a finite table group, m the modulus and hom the map E -> D_m,
    given as pairs (eps, i) with i in [0, m).

    The cyclic family is this one with a reflection-free hom.  C = <T> is
    the subgroup eps = 0 of D = <S, T>, and C_m that of D_m, and p maps C
    onto C_m.  So when no hom(e) has a reflection, an element (d, e) of the
    pull-back of D has p(d) = hom(e) in C_m, hence d in C: the pull-back of
    D is the pull-back of C -> C_m <- E, with T^i stored as (0, i).  Its
    arithmetic, classes, centralizers and K_# are this class's at eps = 0;
    `PullbackCyclicGroup` only reads and writes the T-exponents."""

    family = "pullback_dihedral"
    is_finite = False
    is_two_ends = True

    def __init__(self, E, m, hom, generator_words=None, name=None):
        if not isinstance(E, FiniteTableGroup):
            raise GroupError("pull-back needs a finite table group E")
        self.E = E
        self.m = m
        self.name = name
        self._gen_words = dict(generator_words or {})
        self.hom = self._validate_hom(list(hom))
        self._identity = ((0, 0), E.identity)

    def _in_target(self, x):
        return (isinstance(x, (list, tuple)) and len(x) == 2 and x[0] in (0, 1)
                and type(x[1]) is int and 0 <= x[1] < self.m)

    def _target_name(self):
        return f"D_{self.m}, pairs (eps, i) with eps in {{0, 1}} and i in [0, {self.m})"

    def _validate_hom(self, hom):
        """The hom as D_m pairs, checked to be a homomorphism from E: one
        value per element of E, each a reduced element of the target
        (`_in_target`), hom(1) = 1, and hom(ab) = hom(a) hom(b) for every a
        and every b in S = generating_set(E).  That is n |S| products, not
        n^2.

        Light's induction, as in `FiniteTableGroup._validate`: the b for
        which the law holds at every a are closed under products.  If it
        holds for b1 and b2, then
        hom(a b1 b2) = hom(a b1) hom(b2) = hom(a) hom(b1) hom(b2)
                     = hom(a) hom(b1 b2),
        the last step by the law for b2 at a = b1 and the associativity of
        D_m.  Every element of the finite group E is a product of members
        of S (the identity a power of one, or, on the trivial group, the
        b = 1 that hom(1) = 1 settles), so the law holds for every b."""
        from .structure import generating_set
        E, m = self.E, self.m
        if len(hom) != E.order():
            raise GroupError("hom must list one value per element of E")
        if not all(map(self._in_target, hom)):
            raise GroupError(f"hom must take values in {self._target_name()}")
        hom = [self._d_part(h) for h in hom]
        for b in generating_set(E):
            e2, i2 = hom[b]
            # E.table[a][b] is ab
            if any((e1 ^ e2, ((-i1 if e2 else i1) + i2) % m) != hom[ab]
                   for (e1, i1), ab in zip(hom, map(itemgetter(b), E.table))):
                raise GroupError("hom is not multiplicative")
        if hom[E.identity] != (0, 0):
            raise GroupError("hom does not fix the identity")
        return hom

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

    def conj(self, g, x):
        """x g x^-1: E by its table; the D part is dmul(dmul(d, g_D),
        dinv(d)) for d = x_D, in closed form: T^a S^eps T^i T^-a is
        S^eps T^(i - 2a eps), and S negates the T-exponent."""
        (ex, a), (eps, i) = x[0], g[0]
        if eps:
            i -= 2 * a
        return ((eps, -i if ex else i), self.E.conj(g[1], x[1]))

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
        """The elements with T-exponent in [-bound, bound], in key order.
        Over e they are ((eps, i), e) with (eps, i mod m) = hom(e), so the
        exponents step by m from the least one in the window."""
        out = []
        for e, (eps, base) in enumerate(self.hom):
            first = (base + bound) % self.m - bound
            out += [((eps, i), e) for i in range(first, bound + 1, self.m)]
        out.sort(key=self.key)
        return out

    def key(self, g):
        (eps, i), e = g
        return (eps, i, e)

    def generators(self):
        return {nm: self.parse_element_raw(raw) for nm, raw in self._gen_words.items()}

    def parse_element_raw(self, raw):
        """The element of a JSON pair [d, e], d as `to_json` writes it."""
        d, e = raw
        g = (self._d_part(d), e)
        if not self.check_membership(g):
            raise GroupError("element violates the pull-back condition")
        return g

    def _d_part(self, d):
        """The D-part (eps, i) of a hom value or of a JSON element pair."""
        return tuple(d) if isinstance(d, (list, tuple)) else d

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
            try:
                g = ((int(parts[0]) & 1, int(parts[1])), e)
            except ValueError:
                raise GroupError(f"element literal {text!r} is not (eps,i|label), "
                                 "eps and i integers") from None
            if not self.check_membership(g):
                raise GroupError("element violates the pull-back condition")
            return g
        return None

    def to_json(self):
        return {"family": self.family, "E": self.E.to_json(), "m": self.m,
                "hom": [self._d_json(h) for h in self.hom],
                "generators": self._gen_words, "name": self.name}

    def _d_json(self, d):
        return list(d)


class PullbackCyclicGroup(PullbackDihedralGroup):
    """Pull-back of C -> C_m <- E: the dihedral pull-back whose hom takes no
    reflection (see `PullbackDihedralGroup`).  Its hom is given and written
    as T-exponents h in [0, m) and kept as (0, h); an element (T^i, e) is
    stored as ((0, i), e), and read and printed as (i|label)."""

    family = "pullback_cyclic"

    def _in_target(self, x):
        return type(x) is int and 0 <= x < self.m

    def _target_name(self):
        return f"C_{self.m}, integers in [0, {self.m})"

    def _d_part(self, d):
        return (0, d)

    def format_element(self, g):
        (_, i), e = g
        return f"({i}|{self.E.format_element(e)})"

    def _parse_family(self, text):
        if text.startswith("(") and text.endswith(")") and "|" in text:
            body = text[1:-1]
            i, lab = body.split("|", 1)
            e = self.E._label_index.get(lab)
            if e is None:
                raise GroupError(f"unknown E-label {lab!r}")
            try:
                g = ((0, int(i)), e)
            except ValueError:
                raise GroupError(f"element literal {text!r} is not (i|label), "
                                 "i an integer") from None
            if not self.check_membership(g):
                raise GroupError("element violates the pull-back condition")
            return g
        return None

    def _d_json(self, d):
        return d[1]


# ---------------------------------------------------------------------------
# constructors for finite groups


def _exact_row(items, n):
    """The list of the n `items` with no spare slot: a list that grows
    while it is filled keeps up to an eighth more (S6's table spent
    0.23 MB on them)."""
    row = [0] * n
    row[:] = items
    return row


def table_from_mul(elements, mul, labels=None, generator_names=None, name=None):
    idx = {g: i for i, g in enumerate(elements)}
    n = len(idx)
    table = [_exact_row([idx[mul(a, b)] for b in elements], n) for a in elements]
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

    Consistency (t^m = 1 mod n, s(t-1) = 0 mod n) is asserted.  a^i b^j is
    index j n + i, and the table is written by index arithmetic:
    a^i b^j a^k b^l = a^(i + k t^j + s c) b^(j + l - c m), c = (j + l) // m.
    """
    if pow(t, m, n) != 1 % n or (s * (t - 1)) % n != 0:
        raise GroupError("inconsistent metacyclic data")
    tpow = [pow(t, j, n) for j in range(m)]
    table = [_exact_row([(i + k * tpow[j] + s * ((j + l) // m)) % n + (j + l) % m * n
                         for l in range(m) for k in range(n)], n * m)
             for j in range(m) for i in range(n)]
    an, bn = names
    labels = [_word_label(an, i, bn, j) for j in range(m) for i in range(n)]
    return FiniteTableGroup(labels, table,
                            generator_names={an: 1 % n, bn: (1 % m) * n},
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
    # metacyclic_group lists a^i b^j at index = j*n + i
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
    """The group of a JSON description in the format of `to_json`; each key
    is checked for type, and lists for the shape of their rows and entries."""
    if isinstance(data, str):
        data = json.loads(data)
    if not isinstance(data, dict):
        raise GroupError("a group description is a JSON object")
    if "builtin" in data:
        return builtin_group(need(data, "builtin", GroupError, "group description", str))
    fam = data.get("family")
    what = f"{fam} group description"

    def field(key, kind, ok=None, shape="", optional=False):
        """data[key], a `kind` that passes `ok`; None for an optional key
        that is absent or null."""
        if optional and data.get(key) is None:
            return None
        value = need(data, key, GroupError, what, kind)
        if ok is not None and not ok(value):
            raise GroupError(f"{what}: {key!r} is not {shape}")
        return value

    name = field("name", str, optional=True)
    if fam == "finite_table":
        labels = field("labels", list, _strs, "a list of strings")
        table = field("table", list, lambda t: all(isinstance(r, list) for r in t),
                      "a list of rows")
        gens = field("generators", dict,
                     lambda d: all(v in labels or type(v) is int and 0 <= v < len(labels)
                                   for v in d.values()),
                     "an object of element labels", optional=True)
        return FiniteTableGroup(labels, table, generator_names=gens, name=name)
    if fam == "finite_perm":
        return FinitePermGroup(
            field("generators", list, lambda gs: all(map(_ints, gs)), "a list of integer lists"),
            field("n", int, lambda v: v >= 0, "a non-negative integer"),
            cap=field("cap", int, lambda v: v >= 1, "a positive integer", optional=True),
            generator_names=field("names", dict, lambda d: all(map(_ints, d.values())),
                                  "an object of integer lists", optional=True),
            name=name)
    if fam == "semidirect_zn_c2":
        return SemidirectZnC2(field("rank", int),
                              var_names=field("vars", list, _strs, "a list of strings",
                                              optional=True),
                              name=name)
    if fam in ("pullback_cyclic", "pullback_dihedral"):
        cyclic = fam == "pullback_cyclic"

        def d_part(d):
            return type(d) is int if cyclic else _ints(d) and len(d) == 2

        E = group_from_json(field("E", dict))
        m = field("m", int, lambda v: v >= 1, "a positive integer")
        hom = field("hom", list, lambda h: all(map(d_part, h)),
                    "a list of integers" if cyclic else "a list of integer pairs")
        gens = field("generators", dict,
                     lambda d: all(isinstance(g, (list, tuple)) and len(g) == 2
                                   and d_part(g[0]) and type(g[1]) is int
                                   for g in d.values()),
                     "an object of [d, e] pairs", optional=True)
        cls = PullbackCyclicGroup if cyclic else PullbackDihedralGroup
        return cls(E, m, hom, generator_words=_raw_gens(gens), name=name)
    raise GroupError(f"unknown family {fam!r}")


def _strs(x):
    return all(isinstance(s, str) for s in x)


def _ints(x):
    """Whether x is a list (or, from `to_json`, a tuple) of integers, not
    booleans."""
    return isinstance(x, (list, tuple)) and all(type(i) is int for i in x)


def _raw_gens(d):
    if not d:
        return None
    out = {}
    for k, (dv, e) in d.items():
        out[k] = (tuple(dv) if isinstance(dv, (list, tuple)) else dv, e)
    return out
