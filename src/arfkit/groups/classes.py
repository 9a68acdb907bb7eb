"""The equivalence g ~ g^-1 ~ hgh^-1 ~ g^2 and its class machinery.

Every family has a total class key (`class_key`): the part of a finite
group's exact partition, or a closed form (lattice products, and two-ends
pull-backs through an orbit table on the finite fibre E), kept per element
queried.  A plain windowed closure, for cross-validation, yields classes
flagged approximate.

A cyclic pull-back is a `PullbackDihedralGroup` whose hom takes no
reflection (see `groups.core`), so every decider has one pull-back path.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from ..memo import derived, derived_entry
from .core import Group, GroupError, SemidirectZnC2, PullbackDihedralGroup


@dataclass(frozen=True)
class EquivClass:
    group: Group = field(compare=False, repr=False)
    rep: object
    members: frozenset = field(compare=False)
    certificate: tuple = ("full",)
    approximate: bool = False

    def label(self):
        return f"[{self.group.format_element(self.rep)}]"


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def conjugators(G, g):
    """{h: (x, ...)}: every x of the finite group G with x g x^-1 = h, in
    G.elements() order.  One row per queried g, built on first use; rows
    hold elements only, no reference back to G."""
    return derived_entry(G, "conjugators", g, _conjugator_row, G, g)


def _conjugator_row(G, g):
    row = {}
    for x in G.elements():
        row.setdefault(G.conj(g, x), []).append(x)
    return {h: tuple(xs) for h, xs in row.items()}


def conjugacy_classes(G):
    """Ordinary conjugacy classes of a finite group."""
    seen = set()
    classes = []
    for g in G.elements():
        if g not in seen:
            orbit = frozenset(conjugators(G, g))
            seen |= orbit
            classes.append(orbit)
    classes.sort(key=lambda c: G.key(min(c, key=G.key)))
    return classes


def cl_partition_finite(G):
    """Exact partition of a finite group under the generated equivalence."""
    return derived(G, "cl_partition", _partition_finite, G)


def cl_part(G, z):
    """The part of cl_partition_finite(G) holding z."""
    part = derived(G, "cl_part", _part_map, G).get(z)
    if part is None:
        raise GroupError("element outside group")
    return part


def _part_map(G):
    return {g: part for part in cl_partition_finite(G) for g in part}


def _partition_finite(G):
    els = G.elements()
    uf = _UnionFind(els)
    for g in els:
        uf.union(g, G.inv(g))
        uf.union(g, G.mul(g, g))
    for orbit in conjugacy_classes(G):
        g = next(iter(orbit))
        for h in orbit:
            uf.union(g, h)
    groups = {}
    for g in els:
        groups.setdefault(uf.find(g), set()).add(g)
    parts = [frozenset(s) for s in groups.values()]
    parts.sort(key=lambda s: G.key(min(s, key=G.key)))
    return parts


def cl_classes(G, window=None, method="auto"):
    """Partition of (windowed) elements into classes of cl(G).

    Finite groups are exact.  Infinite families combine the window with a
    registered exact decider when one exists; `method="window"` forces the
    plain windowed closure (classes flagged approximate).
    """
    if G.is_finite:
        parts = cl_partition_finite(G)
        return [EquivClass(G, min(s, key=G.key), s, ("full",)) for s in parts]
    if window is None:
        raise GroupError("infinite family: cl_classes needs a window bound")
    els = G.window_elements(window)
    if method != "window" and has_exact_classes(G):
        buckets = {}
        for g in els:
            buckets.setdefault(class_key(G, g), []).append(g)
        out = [EquivClass(G, class_rep_element(G, min(b, key=G.key)), frozenset(b),
                          ("window", window, canonicalizer_id(G)), False)
               for b in buckets.values()]
        out.sort(key=lambda c: G.key(c.rep))
        return out
    # plain windowed closure; merging is monotone in the window
    uf = _UnionFind(els)
    in_window = set(els)
    movers = list(G.generators().values()) + els
    for g in els:
        gi = G.inv(g)
        if gi in in_window:
            uf.union(g, gi)
        gg = G.mul(g, g)
        if gg in in_window:
            uf.union(g, gg)
        for h in movers:
            c = G.conj(g, h)
            if c in in_window:
                uf.union(g, c)
    groups = {}
    for g in els:
        groups.setdefault(uf.find(g), set()).add(g)
    out = [EquivClass(G, min(s, key=G.key), frozenset(s),
                      ("window", window, None), True)
           for s in groups.values()]
    out.sort(key=lambda c: G.key(c.rep))
    return out


def canonicalizer_id(G):
    if G.is_two_ends:
        return "pullback-class-key"
    return {"semidirect_zn_c2": "semidirect-closed-form"}.get(G.family)


def has_exact_classes(G):
    return G.is_finite or canonicalizer_id(G) is not None


# ---------------------------------------------------------------------------
# exact deciders


def same_class(G, z1, z2):
    """Exact decision of z1 ~ z2 in cl(G)."""
    return z1 == z2 or class_key(G, z1) == class_key(G, z2)


def class_key(G, z):
    """Canonical key of the class of z: z1 ~ z2 in cl(G) iff their keys are
    equal.  Keys are hashable; a finite group's key holds the part of z.
    An infinite family reads the key from a table of the elements queried
    so far, filled by its closed form on first use."""
    if G.is_finite:
        return ("fin", cl_part(G, z))
    return derived_entry(G, "class_key", z, _infinite_key, G, z)


def _infinite_key(G, z):
    if isinstance(G, SemidirectZnC2):
        return _lattice_key(z)
    if isinstance(G, PullbackDihedralGroup):
        return _pullback_key(G, z)
    raise GroupError(f"no exact class decider for family {G.family}")


def _lattice_key(z):
    """The class key of z = (v, s) in Z^n x| C2: ("one",) for a flip or the
    identity, else ("lat", the primitive vector of v with its first odd
    entry positive)."""
    v, s = z
    if s or not any(v):
        return ("one",)
    v = orbit_primitive(v)
    for x in v:
        if x % 2:
            if x < 0:
                v = tuple(-y for y in v)
            break
    return ("lat", v)


def orbit_primitive(v):
    """The exponent vector v halved while every entry is even: the least
    member of its orbit under doubling, the Frobenius g -> g^2 on a lattice
    element or a monomial.  The zero vector is its own."""
    if any(v):
        while all(x % 2 == 0 for x in v):
            v = tuple(x // 2 for x in v)
    return v


def class_rep_element(G, z):
    """A representative element of the class of z: the least member for a
    finite group, the primitive vector (or 1) for a lattice product, z
    itself for a two-ends pull-back."""
    if G.is_finite:
        return min(cl_part(G, z), key=G.key)
    if isinstance(G, SemidirectZnC2):
        k = class_key(G, z)
        return G.identity if k == ("one",) else (k[1], 0)
    return z


# -- pull-back machinery ----------------------------------------------------


def squaring_preperiod(E):
    """(pre, per) such that e^(2^(k+per)) = e^(2^k) for all e, k >= pre."""
    return derived(E, "squaring_levels", _squaring_levels, E)[:2]


def squaring_level(E, k):
    """(x^(2^k) for x in E.elements()), read from the levels k < pre + per,
    built once per E; a level k >= pre + per is the level
    pre + (k - pre) mod per."""
    pre, per, levels = derived(E, "squaring_levels", _squaring_levels, E)
    if k >= pre + per:
        k = pre + (k - pre) % per
    return levels[k]


def _squaring_levels(E):
    """(pre, per, the levels 0 .. pre + per - 1), squared until a level
    repeats."""
    seq = [tuple(E.elements())]
    cur = seq[0]
    while True:
        cur = tuple(E.mul(e, e) for e in cur)
        for k, old in enumerate(seq):
            if old == cur:
                return k, len(seq) - k, seq
        seq.append(cur)
        if len(seq) > 2 * E.order() + 4:   # pragma: no cover
            # invariant: pre <= log2 |E|, and per divides the product of the
            # phi(p^a), p^a the largest odd prime powers dividing the
            # exponent of E, which is below |E|
            raise GroupError("squaring map failed to cycle")


def _v2(n):
    n = abs(n)
    if n == 0:
        return None
    k = 0
    while n % 2 == 0:
        n //= 2
        k += 1
    return k


def conj_witness(G, z1, z2):
    """An x with x z1 x^-1 = z2, or None.  Exact for all families."""
    if G.is_finite:
        xs = conjugators(G, z1).get(z2)
        return xs[0] if xs else None
    if isinstance(G, SemidirectZnC2):
        (v1, s1), (v2, s2) = z1, z2
        if s1 != s2:
            return None
        n = G.rank
        zero = tuple(0 for _ in range(n))
        if s1 == 0:
            if v1 == v2:
                return G.identity
            if tuple(-x for x in v1) == v2:
                return (zero, 1)
            return None
        d = tuple(a - b for a, b in zip(v2, v1))
        if all(x % 2 == 0 for x in d):
            return (tuple(x // 2 for x in d), 0)
        s = tuple(a + b for a, b in zip(v2, v1))
        if all(x % 2 == 0 for x in s):
            return (tuple(x // 2 for x in s), 1)
        return None
    if isinstance(G, PullbackDihedralGroup):
        return _pullback_conj_witness(G, z1, z2)
    raise GroupError(f"no conjugacy decider for family {G.family}")


def _pullback_conj_witness(G, z1, z2):
    (d1, e1), (d2, e2) = z1, z2
    m = G.m
    for ex in conjugators(G.E, e1).get(e2, ()):
        epsx, c = G.hom[ex]
        if d1[0] == 0:
            want = (0, -d1[1] if epsx else d1[1])
            if want == d2:
                return ((epsx, c), ex)
        else:
            if d2[0] != 1:
                continue
            i, i2 = d1[1], d2[1]
            if epsx == 0:
                # conj by (0,a): (1,i) -> (1, i - 2a), need a = (i - i2)/2
                num = i - i2
            else:
                # conj by (1,a): (1,i) -> (1, 2a - i), need a = (i + i2)/2
                num = i + i2
            if num % 2 == 0:
                a = num // 2
                if (a - c) % m == 0:
                    return ((epsx, a), ex)
    return None


def _search_depth(G, zs):
    """Squarings the power/conjugacy search needs among the elements zs:
    the preperiod and period of squaring on E, plus 2-valuation alignment
    of the infinite-cyclic parts."""
    pre, per = squaring_preperiod(G.E)
    vals = [_v2(t) for t in (_t_exponent(G, z) for z in zs) if t]
    return pre + per + 2 + max(vals, default=0) + 2


def _power_conj(G, z, targets, amax):
    """(a, j, x, eps) with x (z^(2^a))^eps x^-1 = targets[j] and a <= amax,
    the least a and then the least j; or None."""
    cur = z
    for a in range(amax + 1):
        inv = G.inv(cur)
        for j, w in enumerate(targets):
            x = conj_witness(G, cur, w)
            if x is not None:
                return (a, j, x, 1)
            x = conj_witness(G, inv, w)
            if x is not None:
                return (a, j, x, -1)
        cur = G.mul(cur, cur)
    return None


def _t_exponent(G, z):
    """The T-exponent of z in a pull-back; None for an S-type z."""
    return None if z[0][0] else z[0][1]


def _pullback_key(G, z):
    """The class key of z = (t, e) in a two-ends pull-back G with finite
    fibre E, t the T-exponent of z (none for S-type z).

    * t = 0 or S-type z: the cl(E) key of e.
    * t != 0: if t < 0, replace (t, e) by z^-1 = (-t, e^-1).  With
      v = v2(t), (pre, per) = squaring_preperiod(E), K the least multiple
      of per with K >= pre + v and f = e^(2^(K-v)), the key is
      ("t", t >> v, orbit of f), for E acting on itself by
      x.f = x f^s(x) x^-1, s(x) = -1 iff hom(x) has a reflection.

    Proof.  In any group z1 ~ z2 iff x z1^(2^a) x^-1 = z2^(+-2^b) for some
    a, b, x: this relation contains the generating moves, lies in their
    closure and is an equivalence (for transitivity raise the two links
    to 2^c and 2^b and compose the conjugators).  Every x in E lifts to G.
    A lift fixes t and conjugates e, except that a reflection in hom(x)
    negates t; inverting then gives (t, x e^-1 x^-1).  So t = 0 is kept,
    and (0, e1) ~ (0, e2) iff e1 ~ e2 in cl(E); an S-type z ~ z^2 =
    (1, e^2), and e^2 ~ e.  For t = u 2^v > 0, u odd, the moves keeping
    t > 0 act on e by x.f, an action commuting with squaring, and
    z^(2^(L-v)) = (u 2^L, e^(2^(L-v))) has E-part f at every multiple
    L >= K of per (L - v >= pre).  So z1 ~ z2 iff u1 = u2 and the E-parts
    at some common level lie in one orbit; squaring keeps them so at every
    higher level, among them a multiple of per above K1 and K2, where the
    E-parts are f1 and f2.
    """
    t = _t_exponent(G, z)
    E, e = G.E, z[1]
    if not t:
        return class_key(E, e)
    if t < 0:
        t, e = -t, E.inv(e)
    pre, per = squaring_preperiod(E)
    v = _v2(t)
    K = -(-(pre + v) // per) * per
    f = E.power(e, 1 << (K - v))
    return ("t", t >> v, derived(G, "fibre_orbit_ids", _fibre_orbit_ids, G)[f])


def _fibre_orbit_ids(G):
    """{f: least member of its orbit} for the action x.f of `_pullback_key`
    (with a reflection-free hom the orbits are the conjugacy classes of E)."""
    E = G.E
    ids = {}
    for f in E.elements():
        if f not in ids:
            for x in E.elements():
                g = E.inv(f) if G.hom[x][0] else f
                ids.setdefault(E.conj(g, x), f)
    return ids


def chain_reach(G, z, z0):
    """A length n such that, for z ~ z0 of infinite order in a two-ends
    pull-back, power_conj_search(G, z, chain) hits among the first n squares
    chain[j] = z0^(2^j).  By `_pullback_key`, z^(2^(L-v)) is conjugate to
    z0^(+-2^(L-v0)) at L = max(K, K0) < pre + per + max(v, v0), with v, v0
    the 2-valuations of the T-exponents; the least hit has j <= L - v0."""
    pre, per = squaring_preperiod(G.E)
    t, t0 = _t_exponent(G, z), _t_exponent(G, z0)
    return pre + per + max((_v2(t) if t else 0) - _v2(t0), 0)


def power_conj_search(G, z, targets):
    """(a, j, x, eps) with x (z^(2^a))^eps x^-1 = targets[j], or None.

    Complete relative to the targets: if z^(2^a) is conjugate to a target
    up to inversion for any a, a witness with a below the search bound is
    found (squaring on E is preperiodic and the T-exponent constrains a
    by 2-valuations only)."""
    return _power_conj(G, z, targets, _search_depth(G, (z, *targets)))


# ---------------------------------------------------------------------------
# 2-power roots (the generating set of sqrt(z))


def two_power_roots(G, z):
    """Elements g with g^(2^k) = z for some k >= 0, as a tuple.

    A finite group builds the roots of all its elements at once, on first
    use.  For infinite families the tuple is a finite set whose images
    exhaust the images of all roots in any mod-2 abelianization: roots come
    in translation families with period dividing 2m in the T-exponent, so
    representatives over a 2m-window suffice.
    """
    if G.is_finite:
        return derived(G, "two_power_roots", _finite_roots, G).get(z, (z,))
    out = {z}
    if isinstance(G, SemidirectZnC2):
        v, s = z
        if s == 0 and any(v):
            w = v
            while all(x % 2 == 0 for x in w):
                w = tuple(x // 2 for x in w)
                out.add((w, 0))
            return tuple(sorted(out, key=G.key))
        if s == 0:  # z = identity: all flips and the identity are roots
            for eps in itertools.product((0, 1), repeat=G.rank):
                out.add((eps, 1))
            return tuple(sorted(out, key=G.key))
        return (z,)
    if isinstance(G, PullbackDihedralGroup):
        return _pullback_roots(G, z)
    raise GroupError(f"no root solver for family {G.family}")


def _finite_roots(G):
    """{z: the 2-power roots of z} for a finite group, from one walk
    g, g^2, g^4, ... per element g until it repeats."""
    roots = {}
    for g in G.elements():
        x, seen = g, set()
        while x not in seen:
            seen.add(x)
            x = G.mul(x, x)
        for x in seen:
            roots.setdefault(x, []).append(g)
    return {z: tuple(sorted(gs, key=G.key)) for z, gs in roots.items()}


def _pullback_roots(G, z):
    E = G.E
    pre, per = squaring_preperiod(E)
    out = {z}
    i = _t_exponent(G, z)
    if i is None:
        # S-type z: any 2^k-th power with k >= 1 has S-free first part
        return tuple(sorted(out, key=G.key))
    kmax = (pre + per if i == 0 else _v2(i) or 0)
    for k in range(1, kmax + 1):
        for e, ek in enumerate(squaring_level(E, k)):
            if ek != z[1]:
                continue
            if i % (1 << k) == 0:
                g = ((0, i // (1 << k)), e)
                if G.check_membership(g):
                    out.add(g)
            if i == 0:
                # (S T^j, e)^(2^k) = (1, e^(2^k)); representatives of the
                # T-translation family suffice for mod-2 images
                epsh, c = G.hom[e]
                if epsh == 1:
                    out.add(((1, c), e))
                    out.add(((1, c + G.m), e))
    return tuple(sorted(out, key=G.key))
