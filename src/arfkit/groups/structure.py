"""Centralizers, type classification and mod-squares abelianizations.

Every K_# is kept as the forms of homomorphisms K -> F_2 on generators
(`SharpSpace`), read by `formspace.FormQuotient`, loaded on first read."""
from __future__ import annotations

import functools
import itertools

from .. import fp
from ..memo import derived, derived_entry
from .core import (GroupError, SemidirectZnC2, PullbackDihedralGroup,
                   cyclic_group, dihedral_group,
                   metacyclic_group, abelian_group, direct_product,
                   quotient_group, symmetric_group, alternating_group_4)
# conjugacy_classes lives with the conjugator rows; kept importable here
from .classes import conj_witness, conjugators, conjugacy_classes


# ---------------------------------------------------------------------------
# subgroups

class FiniteSubgroup:
    """Subgroup of any descriptor given by its explicit member set."""

    kind = "finite"

    def __init__(self, G, members):
        self.G = G
        self.members = tuple(sorted(set(members), key=G.key))

    @classmethod
    def ordered(cls, G, members):
        """The subgroup of `members`, a tuple already in key order with no
        repeats, as a conjugator row entry is."""
        sub = object.__new__(cls)
        sub.G, sub.members = G, members
        return sub

    def __contains__(self, g):
        return g in self.members

    def __len__(self):
        return len(self.members)


class LatticeSubgroup:
    """The flip-free part Z^n of a SemidirectZnC2 group."""

    kind = "lattice"

    def __init__(self, G):
        self.G = G

    def __contains__(self, g):
        return g[1] == 0


class FullGroup:
    kind = "full"

    def __init__(self, G):
        self.G = G

    def __contains__(self, g):
        return True


class PullbackSubgroup:
    """Sub-pull-back {(d, e) in G : e in e_members} (all valid d allowed).

    The e-members come from conjugator rows and stabilizers, so they are a
    subgroup of E by construction; the test suite checks closure on every
    one the two-ends groups build, and the constructor checks nothing."""

    kind = "pullback"

    def __init__(self, G, e_members):
        self.G = G
        self.e_members = tuple(sorted(set(e_members)))

    def __contains__(self, g):
        return self.G.check_membership(g) and g[1] in self.e_members


def subgroup_closure(G, gens, span=()):
    """Member set of the finite group G generated by `gens` and the members
    of the subgroup `span`, grown from `span` by right multiplication."""
    seen = set(span) | {G.identity}
    todo = [G.mul(x, g) for x in seen for g in gens]
    while todo:
        y = todo.pop()
        if y not in seen:
            seen.add(y)
            todo.extend(G.mul(y, g) for g in gens)
    return seen


# ---------------------------------------------------------------------------
# centralizers and types

def centralizer(G, z):
    """G_z = {g : gz = zg}."""
    if G.is_finite:
        return FiniteSubgroup.ordered(G, conjugators(G, z)[z])
    if isinstance(G, SemidirectZnC2):
        v, s = z
        if z == G.identity:
            return FullGroup(G)
        if s == 0:
            return LatticeSubgroup(G)
        # centralizer of a flip (v,1) is {1, z}
        return FiniteSubgroup(G, [G.identity, z])
    if isinstance(G, PullbackDihedralGroup):
        return _pullback_stabilizer(G, z, allow_inverse=False)
    raise GroupError(f"unsupported family {G.family}")


def extended_centralizer(G, z):
    """Gbar_z = {g : g^-1 z g in {z, z^-1}}."""
    if G.is_finite:
        return FiniteSubgroup.ordered(G, _fixing_or_inverting(G, z))
    if isinstance(G, SemidirectZnC2):
        v, s = z
        if s == 1 or z == G.identity:
            # involutions and the identity have z = z^-1, so Gbar_z = G_z
            return centralizer(G, z)
        return FullGroup(G)
    if isinstance(G, PullbackDihedralGroup):
        return _pullback_stabilizer(G, z, allow_inverse=True)
    raise GroupError(f"unsupported family {G.family}")


def _fixing_or_inverting(G, z):
    """The x of the finite group G with x z x^-1 in {z, z^-1}, in key
    order."""
    row = conjugators(G, z)
    inverting = row.get(G.inv(z))
    if inverting is None or inverting is row[z]:
        return row[z]
    return tuple(sorted(row[z] + inverting, key=G.key))


def _pullback_stabilizer(G, z, allow_inverse):
    (eps, i), ez = z
    row = conjugators(G.E, ez)
    fixing = row[ez]
    inverting = row.get(G.E.inv(ez), ()) if allow_inverse else ()
    if eps == 0:
        # conjugation by (d, e) sends z to (T^(+-i), e ez e^-1), the sign
        # being the S-degree of d (forced by hom(e)); membership is a
        # condition on e alone.
        e_members = [e for e in fixing if i == 0 or not G.hom[e][0]]
        e_members += [e for e in inverting if i == 0 or G.hom[e][0]]
        return PullbackSubgroup(G, e_members)
    # S-type z: the D-side stabilizer of S T^i is {1, S T^i}, and both fix
    # S T^i, so the (extended) centralizer is finite: each e sending ez to
    # ez (or ez^-1) has at most one lift with D-part 1 or S T^i.
    members = []
    for e in fixing + inverting:
        sdeg, c = G.hom[e]
        d = (1, i) if sdeg else (0, 0)
        if (d[1] - c) % G.m == 0:
            members.append((d, e))
    return FiniteSubgroup(G, members)


def type_of(G, z):
    """1 if z = z^-1; 2 if z^-1 is conjugate to z but distinct; 3 otherwise.

    A finite group reads it off the conjugator row of z: type 2 iff the
    row has a z^-1 entry.  On Z^n x| C2 a flip inverts every translation,
    so z != z^-1 (a nonzero translation) is of type 2, with no search.  A
    two-ends family reads it from a table of the elements queried so
    far."""
    if G.is_finite:
        return _type(G, z)
    if isinstance(G, SemidirectZnC2):
        return 1 if z[1] or not any(z[0]) else 2
    return derived_entry(G, "type_of", z, _type, G, z)


def _type(G, z):
    zi = G.inv(z)
    if z == zi:
        return 1
    if G.is_finite:
        return 2 if zi in conjugators(G, z) else 3
    return 2 if conj_witness(G, z, zi) is not None else 3


# ---------------------------------------------------------------------------
# abelianization mod squares


class SharpSpace:
    """K_# = K_ab/(K_ab)^2 of a subgroup K, kept as linear forms.

    `elements[i]` is the group element of coordinate i: `bits` sends it
    to the i-th unit vector.  `bits(g)`, the one map each family supplies,
    sends a group element of K to its vector packed at the source (bit i =
    coordinate i), and `coord(g)` unpacks it to a tuple.  `forms[i]` is
    the form of coordinate i over `width` unknowns; with Q(v) the sum of
    the forms of the coordinates of v and C the span of `constraints`,
    K_# is F_2^dim / Q^-1(C).
    `context`, the `formspace.FormQuotient` that reads the quotient and
    fp's residues from them, is built on its first read only.  A lattice
    or semidirect K_# has unit forms and no constraints.

    A finite K, or the e-part of a two-ends one, is walked on
    s_k = generating_set(K) (`walk`): from 1 by right multiplication,
    each step (a, s_k) once.  The member a s_k that a step reaches first
    gets the form form(a) + e_k + c(a, s_k) t, and every other step is
    the constraint form(a) + e_k + c(a, s_k) t + form(a s_k).  Here c is
    a 2-cocycle `carry`: that of a two-ends K, or w(a) w(b) on Gbar_z for
    the pair group of a type-2 Sigma summand (`upsilon.SigmaSummand`).  t,
    the form of its t column, is an unknown of its own; a finite K has
    c = 0 and no t.  A member no walk reaches (only when the generators do
    not generate) gets an unknown and a walk of its own.

    Proof that Q^-1(C) is R, the span of the relations r(a, b) =
    u_a + u_b + u_ab + c(a, b) t.  As r(a, bc) = r(a, b) + r(ab, c) +
    r(b, c) mod 2 (c is a 2-cocycle) and r(a, 1) = u_1, R is spanned by
    u_1 and the r(a, s), s a generator.
    (a) Q is onto: each unknown is the form of a column (s_k, reached by
        the step (1, s_k), has e_k + c(1, s_k) t).
    (b) Q(R) = C: Q(u_1) = 0, and Q(r(a, s)) is 0 on a step the walk
        takes and its constraint on any other.
    (c) The kernel of Q lies in R: by (a) it has dimension #columns -
        #unknowns = #members - #generators - #missed members, and u_1 and
        the r(a, s) of the steps that reach a member other than a
        generator lie in it, one per column, its last in walk order, so
        they are independent and span it.
    So R = Q^-1(Q(R)) = Q^-1(C).
    """

    def __init__(self, bits, elements, forms, width, constraints):
        self.dim = len(elements)
        self.bits = bits
        self.elements = elements
        self.forms, self.width, self.constraints = forms, width, constraints

    @functools.cached_property
    def context(self):
        from ..formspace import FormQuotient     # loaded on the first read
        return FormQuotient(self.forms, self.width, self.constraints)

    @property
    def quotient_dim(self):
        return self.context.quotient_dim

    def coord(self, g):
        """The vector of the group element g of K, a tuple."""
        return fp.unpack(self.bits(g), self.dim)

    def form(self, g):
        """The form of the group element g of K: Q(bits(g))."""
        return fp.xor_sum(self.bits(g), self.forms)


def walk(G, members, carry=None):
    """(index, generator coordinates, forms, width, constraints) of the
    `SharpSpace` walk on the list `members`: the unknowns are the
    generators, t with a `carry`, then the missed members."""
    index = {g: i for i, g in enumerate(members)}
    gens = generating_set(G, members)
    t = 1 << len(gens)
    width = len(gens) + (carry is not None)
    forms, constraints = [None] * len(members), []
    for head in [G.identity] + members:
        h = index[head]
        if forms[h] is not None:
            continue
        # 1, then each member the walks so far missed, on an unknown of its own
        forms[h], width = (0, width) if head == G.identity else (1 << width, width + 1)
        walk = [head]
        for a in walk:                  # grows while it is read
            fa = forms[index[a]]
            for k, s in enumerate(gens):
                y = G.mul(a, s)
                j, f = index[y], fa ^ 1 << k
                if carry is not None and carry(a, s) & 1:
                    f ^= t
                if forms[j] is None:
                    forms[j] = f
                    walk.append(y)
                elif forms[j] != f:
                    constraints.append(forms[j] ^ f)
    return index, [index[s] for s in gens], forms, width, fp.distinct(constraints)


class FiniteSharp(SharpSpace):
    """K_# of a finite subgroup K, by the walk of `SharpSpace`: forms[i] is
    the form of elements[i] over one unknown per generator (bit k: the
    value at s_k of a homomorphism K -> F_2).  `index` maps a member to
    its coordinate, gens[k] is that of s_k, and no reference to G is
    kept."""

    def __init__(self, G, members):
        members = sorted(set(members), key=G.key)
        index, self.gens, forms, width, constraints = walk(G, members)
        self.index = index

        def bits(g):
            i = index.get(g)
            if i is None:
                raise GroupError("element outside subgroup")
            return 1 << i

        super().__init__(bits, members, forms, width, constraints)

    def form(self, g):
        return self.forms[self.index[g]] if g in self.index else super().form(g)


def generating_set(G, members=None):
    """Generators of the finite subgroup `members` (default: all of G, built
    once per group and shared, so callers leave the list as it is): each
    member, in order, that the earlier ones do not generate."""
    if members is None:
        return derived(G, "generating_set", _generating_set, G, G.elements())
    return _generating_set(G, members)


def _generating_set(G, members):
    gens, span = [], {G.identity}
    for g in members:
        if g not in span:
            gens.append(g)
            span = subgroup_closure(G, gens, span)
            if len(span) == len(members):
                break
    return gens


def sharp_of_members(G, members):
    """K_# for a finite subgroup given by its members."""
    return FiniteSharp(G, members)


def sharp_of_pullback(sub):
    """K_# for a sub-pull-back, via the presentation
    <t, u_e | u_e u_f = u_{ef} t^k(e,f), u_e t u_e^-1 = t^(+-1), u_1 = 1>,
    walked on the e-members with the carry k (see `SharpSpace`).

    Coordinate i < tcol is u_e = (hom(e), e) for the i-th e-member, and
    coordinate tcol, the last, is t = (T^m, 1)."""
    G = sub.G
    E, hom, m = G.E, G.hom, G.m
    members = list(sub.e_members)
    tcol = len(members)
    ident = E.identity

    def carry(e, f):
        (e1, i1), (e2, i2) = hom[e], hom[f]
        return ((-i1 if e2 else i1) + i2 - hom[E.mul(e, f)][1]) // m

    index, gens, forms, width, constraints = walk(E, members, carry)

    def bits(g):
        (eps, i), e = g
        if e not in index or (eps & 1, i % m) != hom[e]:
            raise GroupError("element outside subgroup")
        j = (i - hom[e][1]) // m & 1
        # g = u_e t^j; with u_1 = 1, t itself gets the unit vector of t
        if j and e == ident:
            return 1 << tcol
        return j << tcol | 1 << index[e]

    return SharpSpace(bits, [(hom[e], e) for e in members] + [((0, m), ident)],
                      forms + [1 << len(gens)], width, constraints)


def parity_bits(v):
    """v mod 2 for an integer vector v, packed: bit i is v[i] mod 2."""
    out = 0
    for i, x in enumerate(v):
        out |= (x & 1) << i
    return out


def _unit_sharp(bits, n, flip):
    """F_2^n on the units of Z^n (and F_2^(n+1) with the flip): unit forms,
    no constraints."""
    els = [(tuple(int(j == i) for j in range(n)), 0) for i in range(n)]
    els += [((0,) * n, 1)] * flip
    return SharpSpace(bits, els, [1 << i for i in range(len(els))], len(els), [])


def sharp_of_semidirect(G):
    """G_# for Z^n x| C2: F_2^(n+1) with coordinates (v mod 2, s)."""
    n = G.rank

    def bits(g):
        v, s = g
        return parity_bits(v) | (s & 1) << n

    return _unit_sharp(bits, n, True)


def sharp_of_lattice(G):
    def bits(g):
        v, s = g
        if s:
            raise GroupError("element outside the lattice")
        return parity_bits(v)

    return _unit_sharp(bits, G.rank, False)


def sharp_of_subgroup(sub):
    if sub.kind == "finite":
        return sharp_of_members(sub.G, sub.members)
    if sub.kind == "pullback":
        return sharp_of_pullback(sub)
    if sub.kind == "lattice":
        return sharp_of_lattice(sub.G)
    if sub.kind == "full":
        # only the lattice products have a "full" subgroup: finite and
        # pull-back centralizers always come back as explicit subgroups
        return sharp_of_semidirect(sub.G)
    raise GroupError(f"unknown subgroup kind {sub.kind}")


def ab_mod_squares(G):
    """J_# = J_ab/(J_ab)^2 with a coordinate map; pull-back families use
    their finite presentation."""
    if G.is_finite:
        return sharp_of_members(G, G.elements())
    if isinstance(G, SemidirectZnC2):
        return sharp_of_semidirect(G)
    if isinstance(G, PullbackDihedralGroup):
        return sharp_of_pullback(PullbackSubgroup(G, G.E.elements()))
    raise GroupError(f"unsupported family {G.family}")


def hom_to_c2_count(G):
    """Brute-force count of homomorphisms G -> C2 (independent oracle
    for dim J_#)."""
    els = G.elements()
    gens = generating_set(G)
    count = 0
    for bits in itertools.product((0, 1), repeat=len(gens)):
        # extend by BFS; fail on inconsistency
        val = {G.identity: 0}
        ok = True
        frontier = [G.identity]
        while frontier and ok:
            nxt = []
            for x in frontier:
                for g, b in zip(gens, bits):
                    y = G.mul(x, g)
                    w = (val[x] + b) % 2
                    if y in val:
                        if val[y] != w:
                            ok = False
                            break
                    else:
                        val[y] = w
                        nxt.append(y)
                if not ok:
                    break
            frontier = nxt
        if ok and len(val) == len(els):
            count += 1
    return count


# ---------------------------------------------------------------------------
# the fixed table list of all groups of order <= 16

def groups_of_order(n):
    make = {
        1: lambda: [cyclic_group(1)],
        2: lambda: [cyclic_group(2)],
        3: lambda: [cyclic_group(3)],
        4: lambda: [cyclic_group(4), abelian_group([2, 2])],
        5: lambda: [cyclic_group(5)],
        6: lambda: [cyclic_group(6), symmetric_group(3)],
        7: lambda: [cyclic_group(7)],
        8: lambda: [cyclic_group(8), abelian_group([4, 2]), abelian_group([2, 2, 2]),
                    dihedral_group(4), metacyclic_group(4, 2, 3, 2, name="Q8")],
        9: lambda: [cyclic_group(9), abelian_group([3, 3])],
        10: lambda: [cyclic_group(10), dihedral_group(5)],
        11: lambda: [cyclic_group(11)],
        12: lambda: [cyclic_group(12), abelian_group([6, 2]), dihedral_group(6),
                     alternating_group_4(), metacyclic_group(6, 2, 5, 3, name="Q12")],
        13: lambda: [cyclic_group(13)],
        14: lambda: [cyclic_group(14), dihedral_group(7)],
        15: lambda: [cyclic_group(15)],
        16: _groups_16,
    }
    if n not in make:
        raise GroupError("catalog covers orders 1..16")
    return make[n]()


def _groups_16():
    out = [
        cyclic_group(16),
        abelian_group([8, 2]),
        abelian_group([4, 4]),
        abelian_group([4, 2, 2]),
        abelian_group([2, 2, 2, 2]),
        dihedral_group(8),                                   # D16
        metacyclic_group(8, 2, 7, 4, name="Q16"),
        metacyclic_group(8, 2, 3, 0, name="SD16"),
        metacyclic_group(8, 2, 5, 0, name="M16"),
        metacyclic_group(4, 4, 3, 0, name="C4:C4"),
        direct_product(dihedral_group(4), cyclic_group(2), name="D4xC2"),
        direct_product(metacyclic_group(4, 2, 3, 2, name="Q8"), cyclic_group(2),
                       name="Q8xC2"),
        _group_16_semi(),
        _group_16_pauli(),
    ]
    return out


def _group_16_semi():
    """(C4 x C2) x| C2 with the flip a -> ab, b -> b (order 16)."""
    def phi(w):
        return ((w[0]) % 4, (w[1] + w[0]) % 2)

    els = [((x, y), e) for e in (0, 1) for x in range(4) for y in range(2)]

    def mul(g, h):
        (v, e), (w, f) = g, h
        w2 = phi(w) if e else w
        return (((v[0] + w2[0]) % 4, (v[1] + w2[1]) % 2), e ^ f)

    from .core import table_from_mul
    labels = [f"a{v[0]}b{v[1]}c{e}" for (v, e) in els]
    return table_from_mul(els, mul, labels=labels, name="(C4xC2):C2")


def _group_16_pauli():
    """The central product D4 o C4 (the 1-qubit Pauli group mod phases)."""
    D4 = dihedral_group(4)
    C4 = cyclic_group(4)
    P = direct_product(D4, C4, name="D4xC4")
    # central order-2 element (r^2, g^2)
    r2 = D4.parse_element("r^2")
    t2 = C4.parse_element("g^2")
    z = P._label_index[f"{D4.format_element(r2)}.{C4.format_element(t2)}"]
    return quotient_group(P, [P.identity, z], name="D4oC4")


def groups_upto(n):
    out = []
    for k in range(1, n + 1):
        out.extend(groups_of_order(k))
    return out
