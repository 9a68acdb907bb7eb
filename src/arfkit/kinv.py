"""The primary Arf invariant and its K_1-level refinement.

omega sends <A,B> to the class of Tr(alpha(A)B) in K(G) = F_2[cl(G)]
(group flavor) or R/kappa(R) (commutative flavor).  omega1 sends it to the
unit class [1 + alpha(a) b T^2/(1+T)] in H^0(K_1(R_n, I_n)), computed as a
polynomial in u = T^2/(1+T) over the base ring and lifted to R_n once.  For
a group expression, equality is decided by the cl(G) class vector of the
z_i = a_i^-1 b_i, read straight from them; the unit is multiplied out and
lifted only when its representative is read.  For commutative R the
lambda/mu pair identifies that Tate group with C(R) = Coker(1 + q), and
equality of unit classes is decided through the proof's degree-by-degree
norm normalization.
"""
from __future__ import annotations

from math import comb

from . import fp
from .arf import ArfExpression, ArfError, GROUP, RING
from .groups import classes as gclasses
from .groups import structure as gstruct
from .rings.base import (RingError, PolyRing, GroupAlgebra, TruncatedRing,
                         PrimeField, IntegerRing)


# ---------------------------------------------------------------------------
# K(G) classes


class KGClass:
    """F_2 vector indexed by cl(G)-classes, held as {class key: rep}."""

    def __init__(self, G, reps=()):
        self.G = G
        self._by_key = {}
        for z in reps:
            self._toggle(z)

    def _toggle(self, z):
        key = gclasses.class_key(self.G, z)
        if self._by_key.pop(key, None) is None:
            self._by_key[key] = z

    @property
    def reps(self):
        return tuple(sorted(self._by_key.values(), key=self.G.key))

    def __add__(self, other):
        if other.G is not self.G:
            raise ArfError("values over different descriptors")
        return KGClass(self.G, [*self._by_key.values(), *other._by_key.values()])

    def is_zero(self):
        return not self._by_key

    def __eq__(self, other):
        if not isinstance(other, KGClass) or other.G is not self.G:
            return NotImplemented
        return self._by_key.keys() == other._by_key.keys()

    def __hash__(self):
        return hash(frozenset(self._by_key))

    def display(self):
        if self.is_zero():
            return "0"
        return " + ".join(
            f"[{self.G.format_element(gclasses.class_rep_element(self.G, z))}]"
            for z in self.reps)


# ---------------------------------------------------------------------------
# C(R) for commutative rings: monomial-orbit and finite backends.  Each
# backend reduces a ring element to canonical data and answers `is_zero` and
# `show` on that data, so CRClass never looks inside it.


class COrbitContext:
    """R/kappa(R) for sparse polynomial rings: coefficients mod 2, monomial
    orbits under m ~ m^2 (~ m^-1 when the involution inverts).  A value is
    the frozenset of its canonical monomials."""

    def __init__(self, ring: PolyRing):
        self.ring = ring
        self.inverse = ring.involution == "inverse"

    def canonical_monomial(self, e):
        e = gclasses.orbit_primitive(e)
        if self.inverse:
            e = min(e, tuple(-x for x in e))
        return e

    def reduce(self, x):
        cnt = {}
        for e, c in x:
            r = self.canonical_monomial(e)
            cnt[r] = (cnt.get(r, 0) + c) % 2
        return frozenset(e for e, c in cnt.items() if c)

    @staticmethod
    def is_zero(value):
        return not value

    def show(self, value):
        mk = self.ring.monomial
        return " + ".join(f"[{self.ring.format(mk(e))}]" for e in sorted(value))

    def kappa_witness(self, z):
        """(x, y) with z = x + alpha(x) + y + y^2 modulo 2R, or None.

        Greedy orbit descent: the square move strictly lowers degree, the
        inverse move lowers the lexicographic tie-break."""
        z = {e for e, c in self.ring.coefficients_mod2(z)}
        x_part, y_part = set(), set()
        guard = 0
        while z:
            guard += 1
            if guard > 10000:
                raise RingError("kappa witness runaway")
            m = max(z, key=lambda e: (sum(abs(t) for t in e), e))
            if any(m) and all(t % 2 == 0 for t in m):
                root = tuple(t // 2 for t in m)
                y_part ^= {root}
                z ^= {m, root}
                continue
            if self.inverse:
                mi = tuple(-t for t in m)
                if mi != m and mi < m:
                    x_part ^= {m}
                    z ^= {m, mi}
                    continue
            return None
        mk = self.ring.monomial
        x = self.ring.sum(mk(e) for e in x_part)
        y = self.ring.sum(mk(e) for e in y_part)
        return x, y


class CFiniteContext:
    """C(R) for a finite commutative ring with an enumerable additive basis.
    A value is a reduced coordinate vector over that basis."""

    def __init__(self, ring):
        self.ring = ring
        self.basis, self.to_coords, self.from_coords = additive_basis(ring)
        dim = len(self.basis)
        gens = []
        self._witness_cols = []
        for b in self.basis:
            v = self.to_coords(ring.add(b, ring.involute(b)))
            gens.append(v)
            self._witness_cols.append(("x", b, v))
        for b in self.basis:
            if ring.involute(b) == b:
                v = self.to_coords(ring.add(b, ring.mul(b, b)))
                gens.append(v)
                self._witness_cols.append(("y", b, v))
        self.context = fp.QuotientContext(dim, 2, gens)

    def reduce(self, x):
        return self.context.reduce(self.to_coords(x))

    @staticmethod
    def is_zero(value):
        return not any(value)

    def show(self, value):
        return "[" + self.ring.format(self.from_coords(value)) + "]"

    def kappa_witness(self, z):
        cols = [list(v) for (_, _, v) in self._witness_cols]
        mat = [[cols[j][i] for j in range(len(cols))] for i in range(len(self.basis))]
        sol = fp.solve(mat, self.to_coords(z), len(cols), 2)
        if sol is None:
            return None
        R = self.ring
        x = R.zero()
        y = R.zero()
        for c, (kind, b, _) in zip(sol, self._witness_cols):
            if not c:
                continue
            if kind == "x":
                x = R.add(x, b)
            else:
                y = R.add(y, b)
        return x, y


def additive_basis(ring):
    if isinstance(ring, GroupAlgebra) and ring.G.is_finite:
        n = ring.G.order()

        def to_coords(x):
            v = [0] * n
            for g in x:
                v[g] = 1
            return tuple(v)

        def from_coords(v):
            return frozenset(g for g, c in enumerate(v) if c % 2)

        return [frozenset([g]) for g in range(n)], to_coords, from_coords
    if isinstance(ring, TruncatedRing) and isinstance(ring.base, PrimeField) \
            and ring.base.p == 2:
        def to_coords(x):
            return tuple(c % 2 for c in x)

        def from_coords(v):
            return ring.from_coeffs([c % 2 for c in v])

        return [ring.t(k) for k in range(ring.n + 1)], to_coords, from_coords
    if isinstance(ring, PrimeField) and ring.p == 2:
        return [1], lambda x: (x % 2,), lambda v: v[0] % 2
    raise RingError(f"no additive basis for {ring.name}")


def c_context(ring):
    if isinstance(ring, PolyRing):
        return COrbitContext(ring)
    return CFiniteContext(ring)


class CRClass:
    """A value in R/kappa(R) (or C(R)): canonical reduced data."""

    def __init__(self, context, value):
        self.context = context
        self.value = value

    def is_zero(self):
        return self.context.is_zero(self.value)

    def __eq__(self, other):
        return (isinstance(other, CRClass) and self.context.ring is other.context.ring
                and self.value == other.value)

    def __hash__(self):
        return hash(self.value)

    def display(self):
        return "0" if self.is_zero() else self.context.show(self.value)


def cr_reduce(ring, x):
    ctx = c_context(ring)
    return CRClass(ctx, ctx.reduce(x))


# ---------------------------------------------------------------------------
# omega


def omega(expr: ArfExpression):
    """The Arf invariant: sum of [alpha(a) b] over the pairs."""
    if expr.flavor == GROUP:
        G = expr.context
        return KGClass(G, [G.mul(G.inv(a), b) for a, b in expr.pairs])
    if expr.flavor == RING:
        R = expr.context
        if not isinstance(R, (PolyRing,)) and not _is_finite_comm(R):
            raise ArfError("omega: unsupported ring for kappa reduction")
        total = R.sum(R.mul(R.involute(a), b) for a, b in expr.pairs)
        return cr_reduce(R, total)
    raise ArfError("omega expects a group or ring expression")


def _is_finite_comm(R):
    try:
        additive_basis(R)
        return True
    except RingError:
        return False


# ---------------------------------------------------------------------------
# omega1 and unit classes


class UnitClass:
    """A unit of 1 + I_n regarded in H^0(K_1(R_n, I_n)).

    A commutative class is held by `rep`, its unit in R_n.  A group class
    (kind "group", made by `omega1`) is held by the z_i = a_i^-1 b_i of its
    pairs alone: pass rep=None and the z_i; `rep` is multiplied out and
    lifted only when read.  Equality and hash read `_group_data`."""

    def __init__(self, Rn: TruncatedRing, rep, kind, zs=None):
        if kind == "group" and (rep is not None or zs is None
                                or not isinstance(Rn.base, GroupAlgebra)):
            raise ArfError("a group unit class is given by its z_i over F_2[G], not by a rep")
        if kind != "group" and (rep is None or zs is not None):
            raise ArfError("a commutative unit class is given by its rep")
        self.Rn = Rn
        self._rep = rep     # None: lifted from zs on first read
        self.kind = kind  # "commutative" | "group"
        self.zs = zs
        self._data = None   # _group_data(), built on first use

    @property
    def rep(self):
        if self._rep is None:
            base = self.Rn.base
            self._rep = _lift_u_powers(self.Rn, _u_coefficients(
                base, [base.element(z) for z in self.zs], self.Rn.n))
        return self._rep

    def __eq__(self, other):
        if not (isinstance(other, UnitClass) and other.kind == self.kind):
            return NotImplemented
        if self.kind == "commutative":
            return unit_classes_equal(self.Rn, self.rep, other.rep)
        return self._group_data() == other._group_data()

    def __hash__(self):
        # a commutative class has no canonical form (equality runs the norm
        # normalization), so all of them share one hash
        return hash(self._group_data()) if self.kind == "group" else 0

    def _group_data(self):
        """The cl(G) class vector `KGClass(G, z_i)`.

        For group-algebra bases, the T^2 coefficient modulo Im(delta) is
        a complete invariant of classes represented with trivial T part;
        on involution products it coincides with the cl(G)-class vector.
        That vector is read from the z_i, without multiplying out `rep`:

        * u = T^2/(1+T), so u^k = T^(2k) + higher terms, and the T^2
          coefficient of rep = sum_k e_k u^k is e_1 = sum_i z_i, for every
          n >= 2;
        * its T coefficient is 0, so rep has trivial T part;
        * over F_2[G] the support of e_1 is the set of z occurring an odd
          number of times among the z_i.  `KGClass` toggles the class key
          of each element it is given, so the keys left after toggling
          every z_i are those of the classes holding an odd number of
          them, which are the keys left by the support of e_1.  Equality
          and hash of a `KGClass` read its keys only.

        Built once per instance, so comparing and hashing are lookups."""
        if self._data is None:
            self._data = KGClass(self.Rn.base.G, self.zs)
        return self._data

    def display(self):
        return "[" + self.Rn.format(self.rep) + "]"


def omega1(expr: ArfExpression, n=2):
    """Product over pairs of 1 + alpha(a) b T^2/(1+T), expanded in R_n."""
    if n < 2:
        raise ArfError("omega1 needs truncation degree n >= 2")
    if expr.flavor == GROUP:
        G = expr.context
        return UnitClass(TruncatedRing(GroupAlgebra(G), n), None, "group",
                         [G.mul(G.inv(a), b) for a, b in expr.pairs])
    if expr.flavor != RING:
        raise ArfError("omega1 expects a group or ring expression")
    base = expr.context
    zs = [base.mul(base.involute(a), b) for a, b in expr.pairs]
    Rn = TruncatedRing(base, n)
    return UnitClass(Rn, _lift_u_powers(Rn, _u_coefficients(base, zs, n)), "commutative")


def _u_coefficients(base, zs, n):
    """e_0..e_(n/2) with prod_i (1 + z_i u) = sum_k e_k u^k for the central
    u = T^2/(1+T) in T^2 R_n; e_k sums the ordered products z_i1 ... z_ik,
    i1 < ... < ik."""
    e = [base.one()] + [base.zero()] * (n // 2)
    for i, z in enumerate(zs):
        for k in range(min(i + 1, n // 2), 0, -1):
            e[k] = base.add(e[k], base.mul(e[k - 1], z))
    return e


def _lift_u_powers(Rn, e):
    """sum_k e[k] u^k in R_n, by u^k = sum_m (-1)^m C(k-1+m, m) T^(2k+m)."""
    base = Rn.base
    out = [e[0]] + [base.zero()] * Rn.n
    for k in range(1, len(e)):
        if base.is_zero(e[k]):
            continue
        for m in range(Rn.n - 2 * k + 1):
            c = base.sum([e[k]] * comb(k - 1 + m, m))
            out[2 * k + m] = base.add(out[2 * k + m], base.neg(c) if m % 2 else c)
    return tuple(out)


def lambda_(f: UnitClass) -> CRClass:
    """lambda reads [b alpha(b)] off f = 1 + aT + bT^2 + ...; an
    isomorphism H^0(K_1(R_n,I_n)) -> C(R) for even n."""
    Rn = f.Rn
    if Rn.n % 2:
        raise ArfError("lambda needs even truncation degree")
    base = Rn.base
    b = f.rep[2]
    val = base.mul(b, base.involute(b))
    return cr_reduce(base, val)


def mu(Rn: TruncatedRing, z) -> UnitClass:
    """mu([z]) = [1 + z T^2/(1+T)]."""
    if Rn.n % 2:
        raise ArfError("mu needs even truncation degree")
    return UnitClass(Rn, _lift_u_powers(Rn, [Rn.base.one(), z]), "commutative")


def unit_classes_equal(Rn, f, g):
    """Decide [f] = [g] in H^0(1+I_n)/(norms), by normalizing f/g."""
    h = Rn.mul(f, Rn.inverse(g))
    return normalize_unit(Rn, h) is not None


def normalize_unit(Rn, h):
    """Norm multipliers reducing h in Z = {h = alpha(h)} to 1, following
    the proof's induction, or None when [h] != 1 (detected by lambda)."""
    base = Rn.base
    if Rn.involute(h) != h:
        raise ArfError("unit is not an H^0 cycle")
    multipliers = []
    ctx = c_context(base)
    # stage 0: kill the T^2 coefficient b through z = b (note [b^2] = [b])
    if not base.is_zero(h[1]):
        raise ArfError("cycle with nonzero T coefficient in a trivial-involution ring")
    b = h[2] if Rn.n >= 2 else base.zero()
    if not base.is_zero(b):
        wit = ctx.kappa_witness(b)
        if wit is None:
            return None
        x, y = wit
        if not _char2(base):
            # mod-2 witness has x = 0 (trivial involution); lift exactly:
            # x = (b - y - y^2)/2 satisfies b = x + alpha(x) + y + y^2 in R
            rem = base.sub(base.sub(b, y), base.mul(y, y))
            x = _halve(base, rem)
        gg = _norm_of(Rn, x, y)
        h = Rn.mul(h, gg)
        multipliers.append(gg)
    # inductive stages: h = 1 + a T^(2k+1) + b T^(2k+2) + ...
    for k in range(1, (Rn.n + 1) // 2 + 1):
        d1, d2 = 2 * k + 1, 2 * k + 2
        if d1 > Rn.n:
            break
        a = h[d1]
        bb = h[d2] if d2 <= Rn.n else base.zero()
        if base.is_zero(a) and base.is_zero(bb):
            continue
        coeffs = [base.zero()] * (Rn.n + 1)
        ka = base.sum([a] * k)
        coeffs[d1] = base.add(bb, ka)
        if d2 <= Rn.n:
            coeffs[d2] = base.neg(base.sum([bb] * (k + 1)))
        gk = Rn.add(Rn.one(), Rn.from_coeffs(coeffs))
        gg = Rn.mul(gk, Rn.involute(gk))
        h = Rn.mul(h, gg)
        multipliers.append(gg)
    if h != Rn.one():
        raise ArfError("normalization failed to terminate at 1")
    return multipliers


def _char2(ring):
    while isinstance(ring, TruncatedRing):
        ring = ring.base
    return isinstance(ring, (GroupAlgebra, PolyRing, PrimeField)) and ring.p == 2


def _halve(ring, x):
    if isinstance(ring, PolyRing) and ring.p == 0:
        for e, c in x:
            if c % 2:
                raise ArfError("odd coefficient cannot be halved")
        return ring._norm({e: c // 2 for e, c in x})
    if isinstance(ring, IntegerRing):
        if x % 2:
            raise ArfError("odd integer cannot be halved")
        return x // 2
    raise ArfError(f"no exact halving for {ring.name}")


def _norm_of(Rn, x, y):
    """g alpha(g) for g = 1 + yT - (x+y)T^2."""
    base = Rn.base
    coeffs = [base.zero()] * (Rn.n + 1)
    coeffs[0] = base.one()
    coeffs[1] = y
    coeffs[2] = base.neg(base.add(x, y))
    g = Rn.from_coeffs(coeffs)
    return Rn.mul(g, Rn.involute(g))


# ---------------------------------------------------------------------------
# Coker(delta) on H^0 of group-ring abelianizations


class H0CokerDelta:
    """Coker(delta: H^0(Z[G]_ab) -> H^0(Z[G]_ab)) for a finite group:
    the F_2 space on self-inverse conjugacy classes modulo [C] + [C^2]."""

    def __init__(self, G):
        self.G = G
        classes = gstruct.conjugacy_classes(G)
        self.classes = classes
        self._class_of = {}
        for i, c in enumerate(classes):
            for g in c:
                self._class_of[g] = i
        self.self_inverse = []
        for i, c in enumerate(classes):
            rep = min(c, key=G.key)
            if self._class_of[G.inv(rep)] == i:
                self.self_inverse.append(i)
        pos = {ci: j for j, ci in enumerate(self.self_inverse)}
        dim = len(self.self_inverse)
        rows = []
        for ci in self.self_inverse:
            rep = min(classes[ci], key=G.key)
            sq = self._class_of[G.mul(rep, rep)]
            row = [0] * dim
            row[pos[ci]] += 1
            row[pos[sq]] += 1      # C^2 is self-inverse when C is
            rows.append(row)
        self._pos = pos
        self.context = fp.QuotientContext(dim, 2, rows)

    @property
    def dim(self):
        return self.context.quotient_dim

    def project(self, coeffs):
        """coeffs: dict g -> integer (an element of Z[G]); returns the
        canonical vector of its H^0 class mod Im(delta)."""
        per_class = {}
        for g, c in coeffs.items():
            i = self._class_of[g]
            per_class[i] = per_class.get(i, 0) + c
        vec = [0] * len(self.self_inverse)
        for i, c in per_class.items():
            if i in self._pos:
                vec[self._pos[i]] = c % 2
            else:
                # a = alpha(a) forces paired coefficients; pairs lie in
                # Im(1 + t) and vanish in H^0
                j = self._class_of[self.G.inv(min(self.classes[i], key=self.G.key))]
                if (per_class.get(i, 0) - per_class.get(j, 0)) % 2:
                    raise ArfError("element is not an H^0 cycle")
        return self.context.reduce(vec)


def group_ring_h0_cokernel(G):
    """Basis of Coker(delta) = {a in Z[G]_ab : a = alpha(a)} /
    Span{g - h^-1 g h, g1 + g1^-1, g2 + g2^2 (g2 ~ g2^-1)}, with projection."""
    return H0CokerDelta(G)
