"""The equivalence g ~ g^-1 ~ hgh^-1 ~ g^2 and its class machinery.

For finite groups the closure is computed exactly.  For the built-in
infinite families we carry exact deciders: closed-form canonical
representatives for the lattice products, and a bounded power/conjugacy
search (complete, see `_pair_bound`) for the two-ends pull-backs.  A plain
windowed closure is available for cross-validation and yields classes
flagged approximate.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from ..memo import derived
from .core import (Group, GroupError, SemidirectZnC2, PullbackCyclicGroup,
                   PullbackDihedralGroup)


@dataclass(frozen=True)
class EquivClass:
    group: Group = field(compare=False, repr=False)
    rep: object
    members: object = field(default=None, compare=False)   # frozenset | None
    certificate: tuple = ("full",)
    approximate: bool = False

    def __contains__(self, g):
        if self.members is not None:
            return g in self.members
        return same_class(self.group, self.rep, g)

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


def cl_partition_finite(G):
    """Exact partition of a finite group under the generated equivalence."""
    return derived(G, "cl_partition", _partition_finite, G)


def _partition_finite(G):
    els = G.elements()
    uf = _UnionFind(els)
    for g in els:
        uf.union(g, G.inv(g))
        uf.union(g, G.mul(g, g))
        for h in els:
            uf.union(g, G.conj(g, h))
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
    exact = method != "window" and has_exact_classes(G)
    if exact:
        buckets = []
        for g in els:
            for b in buckets:
                if same_class(G, g, b[0]):
                    b.append(g)
                    break
            else:
                buckets.append([g])
        out = []
        for b in buckets:
            rep = min(b, key=G.key)
            ck = class_key(G, rep)
            if ck is not None:
                rep = _preferred_rep(G, rep)
            out.append(EquivClass(G, rep, frozenset(b),
                                  ("window", window, canonicalizer_id(G)), False))
        out.sort(key=lambda c: G.key(c.rep))
        return out
    # plain windowed closure; merging is monotone in the window
    uf = _UnionFind(els)
    in_window = set(els)
    conjugators = list(G.generators().values()) + els
    for g in els:
        gi = G.inv(g)
        if gi in in_window:
            uf.union(g, gi)
        gg = G.mul(g, g)
        if gg in in_window:
            uf.union(g, gg)
        for h in conjugators:
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
    return {"semidirect_zn_c2": "semidirect-closed-form",
            "pullback_cyclic": "pullback-power-conjugacy",
            "pullback_dihedral": "pullback-power-conjugacy"}.get(G.family)


def has_exact_classes(G):
    return G.is_finite or canonicalizer_id(G) is not None


# ---------------------------------------------------------------------------
# exact deciders


def same_class(G, z1, z2):
    """Exact decision of z1 ~ z2 in cl(G)."""
    if z1 == z2:
        return True
    if G.is_finite:
        for part in cl_partition_finite(G):
            if z1 in part:
                return z2 in part
        raise GroupError("element outside group")
    if isinstance(G, SemidirectZnC2):
        return class_key(G, z1) == class_key(G, z2)
    if isinstance(G, (PullbackCyclicGroup, PullbackDihedralGroup)):
        return _pullback_same_class(G, z1, z2)
    raise GroupError(f"no exact class decider for family {G.family}")


def class_key(G, z):
    """Canonical class key, or None when only pairwise decision exists."""
    if G.is_finite:
        for part in cl_partition_finite(G):
            if z in part:
                return ("fin", G.key(min(part, key=G.key)))
        raise GroupError("element outside group")
    if isinstance(G, SemidirectZnC2):
        v, s = z
        if s or not any(v):
            return ("one",)
        while all(x % 2 == 0 for x in v):
            v = tuple(x // 2 for x in v)
        for x in v:
            if x % 2:
                if x < 0:
                    v = tuple(-y for y in v)
                break
        return ("lat", v)
    return None


def _preferred_rep(G, rep):
    if isinstance(G, SemidirectZnC2):
        k = class_key(G, rep)
        if k == ("one",):
            return G.identity
        return (k[1], 0)
    return rep


def class_rep_element(G, z):
    """A canonical representative element of the class of z (exact families)."""
    k = class_key(G, z)
    if k is None:
        return z
    if G.is_finite:
        for part in cl_partition_finite(G):
            if z in part:
                return min(part, key=G.key)
    return _preferred_rep(G, z)


# -- pull-back machinery ----------------------------------------------------


def squaring_preperiod(E):
    """(pre, per) such that e^(2^(k+per)) = e^(2^k) for all e, k >= pre."""
    seq = [tuple(E.elements())]
    cur = seq[0]
    while True:
        cur = tuple(E.mul(e, e) for e in cur)
        for k, old in enumerate(seq):
            if old == cur:
                return k, len(seq) - k
        seq.append(cur)
        if len(seq) > 2 * E.order() + 4:   # pragma: no cover
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
        for x in G.elements():
            if G.conj(z1, x) == z2:
                return x
        return None
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
    if isinstance(G, PullbackCyclicGroup):
        (i1, e1), (i2, e2) = z1, z2
        if i1 != i2:
            return None
        for ex in G.E.elements():
            if G.E.conj(e1, ex) == e2:
                return (G.hom[ex], ex)
        return None
    if isinstance(G, PullbackDihedralGroup):
        return _dihedral_conj_witness(G, z1, z2)
    raise GroupError(f"no conjugacy decider for family {G.family}")


def _dihedral_conj_witness(G, z1, z2):
    (d1, e1), (d2, e2) = z1, z2
    m = G.m
    for ex in G.E.elements():
        if G.E.conj(e1, ex) != e2:
            continue
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


def _pair_bound(G):
    pre, per = squaring_preperiod(G.E)
    return pre + per + 2


def _pullback_same_class(G, z1, z2):
    """z1 ~ z2 iff some 2-power powers are conjugate (up to inversion).

    Squaring commutes with conjugation and inversion, so the relation
    "powers eventually conjugate" is an equivalence containing the three
    generating moves and contained in their closure; the search bound comes
    from the preperiod/period of squaring on E plus 2-valuation alignment
    of the infinite-cyclic parts.
    """
    bound = _pair_bound(G)
    tpart = _t_exponent(G, z1), _t_exponent(G, z2)
    extra = 0
    if tpart[0] not in (None, 0) or tpart[1] not in (None, 0):
        extra = max((_v2(t) or 0) for t in tpart if t not in (None, 0))
    amax = bound + extra + 2
    p1 = [z1]
    p2 = [z2]
    for _ in range(amax):
        p1.append(G.mul(p1[-1], p1[-1]))
        p2.append(G.mul(p2[-1], p2[-1]))
    for a in range(amax + 1):
        for b in range(amax + 1):
            w = p2[b]
            if conj_witness(G, p1[a], w) is not None:
                return True
            if conj_witness(G, p1[a], G.inv(w)) is not None:
                return True
    return False


def _t_exponent(G, z):
    if isinstance(G, PullbackCyclicGroup):
        return z[0]
    if isinstance(G, PullbackDihedralGroup):
        return None if z[0][0] else z[0][1]
    return None


def power_conj_search(G, z, targets):
    """(a, j, x, eps) with x (z^(2^a))^eps x^-1 = targets[j], or None.

    Complete relative to the targets: if z^(2^a) is conjugate to a target
    up to inversion for any a, a witness with a below the search bound is
    found (squaring on E is preperiodic and the T-exponent constrains a
    by 2-valuations only)."""
    bound = _pair_bound(G)
    tz = _t_exponent(G, z)
    extra = (_v2(tz) or 0) if tz not in (None, 0) else 0
    for t in targets:
        tt = _t_exponent(G, t)
        if tt not in (None, 0):
            extra = max(extra, _v2(tt) or 0)
    amax = bound + extra + 2
    cur = z
    for a in range(amax + 1):
        for j, w in enumerate(targets):
            x = conj_witness(G, cur, w)
            if x is not None:
                return (a, j, x, 1)
            x = conj_witness(G, G.inv(cur), w)
            if x is not None:
                return (a, j, x, -1)
        cur = G.mul(cur, cur)
    return None


def equivalence_path(G, z1, z2):
    """(a, b, eps, x) with z1^(2^a) = x (z2^(2^b))^eps x^-1, or None."""
    if G.is_finite or isinstance(G, SemidirectZnC2):
        raise GroupError("equivalence_path is a pull-back helper")
    bound = _pair_bound(G)
    tpart = _t_exponent(G, z1), _t_exponent(G, z2)
    extra = 0
    if tpart[0] not in (None, 0) or tpart[1] not in (None, 0):
        extra = max((_v2(t) or 0) for t in tpart if t not in (None, 0))
    amax = bound + extra + 2
    p1 = [z1]
    p2 = [z2]
    for _ in range(amax):
        p1.append(G.mul(p1[-1], p1[-1]))
        p2.append(G.mul(p2[-1], p2[-1]))
    for a in range(amax + 1):
        for b in range(amax + 1):
            x = conj_witness(G, p2[b], p1[a])
            if x is not None:
                return (a, b, 1, x)
            x = conj_witness(G, G.inv(p2[b]), p1[a])
            if x is not None:
                return (a, b, -1, x)
    return None


# ---------------------------------------------------------------------------
# 2-power roots (the generating set of sqrt(z))


def two_power_roots(G, z, t_window=None):
    """Elements g with g^(2^k) = z for some k >= 0.

    For infinite families the returned list is a finite set whose images
    exhaust the images of all roots in any mod-2 abelianization: roots come
    in translation families with period dividing 2m in the T-exponent, so
    representatives over a 2m-window suffice.
    """
    out = {z}
    if G.is_finite:
        for g in G.elements():
            x = g
            seen = set()
            k = 0
            while x not in seen:
                if x == z:
                    out.add(g)
                seen.add(x)
                x = G.mul(x, x)
                k += 1
        return sorted(out, key=G.key)
    if isinstance(G, SemidirectZnC2):
        v, s = z
        if s == 0 and any(v):
            w = v
            while all(x % 2 == 0 for x in w):
                w = tuple(x // 2 for x in w)
                out.add((w, 0))
            return sorted(out, key=G.key)
        if s == 0:  # z = identity: all flips and the identity are roots
            for eps in itertools.product((0, 1), repeat=G.rank):
                out.add((eps, 1))
            return sorted(out, key=G.key)
        return [z]
    if isinstance(G, (PullbackCyclicGroup, PullbackDihedralGroup)):
        return _pullback_roots(G, z)
    raise GroupError(f"no root solver for family {G.family}")


def _pullback_roots(G, z):
    E = G.E
    pre, per = squaring_preperiod(E)
    out = {z}
    dihedral = isinstance(G, PullbackDihedralGroup)
    i = _t_exponent(G, z)
    if i is None:
        # S-type z: any 2^k-th power with k >= 1 has S-free first part
        return sorted(out, key=G.key)
    kmax = (pre + per if i == 0 else _v2(i) or 0)
    for k in range(1, kmax + 1):
        for e in E.elements():
            if E.power(e, 1 << k) != z[1]:
                continue
            if i % (1 << k) == 0:
                g = _make(G, 0, i // (1 << k), e)
                if g is not None:
                    out.add(g)
            if dihedral and i == 0:
                # (S T^j, e)^(2^k) = (1, e^(2^k)); representatives of the
                # T-translation family suffice for mod-2 images
                epsh, c = G.hom[e]
                if epsh == 1:
                    out.add(((1, c), e))
                    out.add(((1, c + G.m), e))
    return sorted(out, key=G.key)


def _make(G, eps, i, e):
    if isinstance(G, PullbackCyclicGroup):
        g = (i, e)
    else:
        g = ((eps, i), e)
    return g if G.check_membership(g) else None
