import copy
import itertools
import json
import random
import re
import sys
from collections import Counter

import pytest

import arfkit.fp as fp
import arfkit.groups as G
import arfkit.groups.classes as gcl
import arfkit.groups.structure as gst
import arfkit.homology as H
import arfkit.upsilon as ups
from arfkit.groups import GroupError
from arfkit.memo import derived
from test_homology import LOOP5, _relation_bases
from test_random_groups import _relabelled


@pytest.fixture(scope="module")
def order24():
    return G.group_order24()


@pytest.fixture(scope="module")
def groupB():
    return G.group_c2_c_c12()


@pytest.fixture(scope="module")
def plane():
    return G.group_plane()


def test_mul_identity_law(order24):
    for g in order24.elements()[:8]:
        assert order24.mul(order24.identity, g) == g


def test_mul_order24_relation(order24):
    X = order24.parse_element("X")
    S = order24.parse_element("S")
    assert order24.mul(order24.mul(S, X), S) == order24.power(X, 5)


def test_semidirect_defining_action(plane):
    v = ((3, -1), 1)
    w = ((2, 5), 0)
    assert plane.mul(v, w) == ((1, -6), 1)


def test_lattice_arithmetic_matches_the_defining_formula():
    # (v, s)(w, t) = (v + (-1)^s w, s + t) and (v, s)^-1 = (-(-1)^s v, s)
    # on ranks 1-4, with negative entries and both flips on either side
    rng = random.Random(30)
    for rank in range(1, 5):
        Gx = G.SemidirectZnC2(rank)
        for _ in range(40):
            v, w = (tuple(rng.randint(-6, 6) for _ in range(rank)) for _ in range(2))
            for s, t in itertools.product((0, 1), repeat=2):
                sign = (-1) ** s
                want = (tuple(a + sign * b for a, b in zip(v, w)), (s + t) % 2)
                assert Gx.mul((v, s), (w, t)) == want, (v, s, w, t)
                inv = Gx.inv((v, s))
                assert inv == (tuple(-sign * a for a in v), s), (v, s)
                assert Gx.mul((v, s), inv) == Gx.identity == Gx.mul(inv, (v, s))


def test_order_examples(plane):
    assert plane.order_of(plane.identity) == 1
    assert plane.order_of(((1, 0), 1)) == 2
    assert plane.order_of(((1, 0), 0)) is None


def test_cl_classes_order24(order24):
    cls = G.cl_classes(order24)
    assert [c.label() for c in cls] == ["[1]", "[X]"]


def test_cl_classes_s3():
    S3 = G.symmetric_group(3)
    cls = G.cl_classes(S3)
    # transpositions merge with 1 via g ~ g^2; the two 3-cycles form a class
    assert len(cls) == 2
    sizes = sorted(len(c.members) for c in cls)
    assert sizes == [2, 4]


def test_cl_classes_trivial():
    cls = G.cl_classes(G.cyclic_group(1))
    assert len(cls) == 1


def test_involutions_examples(plane):
    C3 = G.cyclic_group(3)
    assert C3.involutions() == [C3.identity]
    Z2 = G.SemidirectZnC2(2)
    got = Z2.involutions(window=1)
    flips = [g for g in got if g[1] == 1]
    assert Z2.identity in got and len(flips) == 9


def test_involutions_d4_extension():
    C = G.group_c_by_d4()
    Y, S = C.parse_element("Y"), C.parse_element("S")
    ys2 = C.power(C.mul(Y, S), 2)
    got = set(C.involutions(window=8))
    for i in range(-3, 4):
        a = C.mul(C.power(Y, 2 * i), S)
        assert a in got
        assert C.mul(a, ys2) in got
    assert ys2 in got
    # and nothing of the shape Y^odd S
    assert C.mul(Y, S) not in got


def test_centralizer_examples(plane):
    S3 = G.symmetric_group(3)
    z = S3.parse_element("c")
    cz = G.centralizer(S3, z)
    assert len(cz) == 3 and z in cz
    # identity -> whole group
    assert len(G.centralizer(S3, S3.identity)) == 6
    PC = G.pullback_cyclic_example()
    gz = G.centralizer(PC, ((0, 1), 1))
    assert gz.kind == "pullback" and len(gz.e_members) == 4


def test_extended_centralizer_examples():
    D4 = G.dihedral_group(4)
    z = D4.parse_element("r")
    assert len(G.extended_centralizer(D4, z)) == 8
    assert len(G.centralizer(D4, z)) == 4
    plane = G.SemidirectZnC2(2)
    zz = ((1, 0), 0)
    ext = G.extended_centralizer(plane, zz)
    assert ext.kind == "full"
    assert ((0, 0), 1) in ext


def test_type_of_examples():
    S3 = G.symmetric_group(3)
    assert G.type_of(S3, S3.identity) == 1
    assert G.type_of(S3, S3.parse_element("c")) == 2
    C3 = G.cyclic_group(3)
    assert G.type_of(C3, 1) == 3


def test_type_conjugation_invariance():
    for Gx in [G.symmetric_group(3), G.dihedral_group(4)]:
        for z in Gx.elements():
            t = G.type_of(Gx, z)
            for x in Gx.elements():
                assert G.type_of(Gx, Gx.conj(z, x)) == t


def test_ab_mod_squares_dims():
    assert G.ab_mod_squares(G.cyclic_group(4)).quotient_dim == 1
    assert G.ab_mod_squares(G.dihedral_group(4)).quotient_dim == 2
    assert G.ab_mod_squares(G.symmetric_group(3)).quotient_dim == 1


def test_ab_mod_squares_vs_hom_count():
    # independent oracle: # of homomorphisms G -> C2 = 2^dim
    for Gx in [G.cyclic_group(4), G.dihedral_group(4), G.symmetric_group(3),
               G.alternating_group_4(), G.abelian_group([2, 4])]:
        dim = G.ab_mod_squares(Gx).quotient_dim
        assert G.hom_to_c2_count(Gx) == 2 ** dim


def test_generating_set_generates_greedily():
    # each generator lies outside the span of the earlier ones, and they
    # span the subgroup; the span is recomputed from scratch here
    def span(Gx, gens):
        out, todo = {Gx.identity}, [Gx.identity]
        while todo:
            x = todo.pop()
            for g in gens:
                y = Gx.mul(x, g)
                if y not in out:
                    out.add(y)
                    todo.append(y)
        return out

    for Gx in G.groups_upto(16) + [G.symmetric_group(4)]:
        for members in [Gx.elements()] + [gst.centralizer(Gx, z).members
                                          for z in Gx.elements()]:
            gens = gst.generating_set(Gx, members)
            for k, g in enumerate(gens):
                assert g not in span(Gx, gens[:k])
            assert span(Gx, gens) == set(members), Gx.name
    assert gst.generating_set(G.cyclic_group(1)) == []


def _all_pairs_basis(sub):
    """Reduced basis of the K_# relations r(a, b) over all member pairs
    (reference for the generator-sized presentations)."""
    Gx = sub.G
    if sub.kind == "finite":
        members, mul, carry, n = sub.members, Gx.mul, None, len(sub.members)
    else:
        E, hom, m = Gx.E, Gx.hom, Gx.m
        members, mul, n = sub.e_members, E.mul, len(sub.e_members) + 1

        def carry(e, f):
            (_, i1), (e2, i2) = hom[e], hom[f]
            return ((-i1 if e2 else i1) + i2 - hom[mul(e, f)][1]) // m

    index = {g: i for i, g in enumerate(members)}
    rows = []
    for a in members:
        for b in members:
            r = [0] * n
            for g in (a, b, mul(a, b)):
                r[index[g]] += 1
            if carry is not None:
                r[n - 1] += carry(a, b)
            rows.append(r)
    if carry is not None:
        rows.append(fp.unit(n, index[Gx.E.identity]))
    return fp.Subspace(n, 2, rows).basis()


def _presented_subgroups():
    """Centralizers and extended centralizers: every element of the 42
    catalogue groups and of the three order-24 groups, and the window-2
    elements of the three two-ends built-ins."""
    finite = G.groups_upto(16) + [
        G.group_order24(), G.symmetric_group(4),
        G.direct_product(G.alternating_group_4(), G.cyclic_group(2))]
    two_ends = [G.builtin_group(b) for b in ("ch1-c2-c-c12", "ch1-c-by-d4",
                                             "pb-cyclic-c4")]
    out = []
    for Gx in finite + two_ends:
        seen = set()
        for z in (Gx.elements() if Gx.is_finite else Gx.window_elements(2)):
            for sub in (gst.centralizer(Gx, z), gst.extended_centralizer(Gx, z)):
                key = getattr(sub, "members", None) or sub.e_members
                if key not in seen:
                    seen.add(key)
                    out.append(sub)
    return out


def test_generator_presentations_match_all_pairs(monkeypatch):
    subs = _presented_subgroups()
    assert len(subs) == 169
    reference = [_all_pairs_basis(sub) for sub in subs]
    for sub, basis in zip(subs, reference):
        assert gst.sharp_of_subgroup(sub).context.basis() == basis
    # planted: without the rows of the last generator some basis differs
    real = gst.generating_set
    monkeypatch.setattr(gst, "generating_set", lambda *a: real(*a)[:-1])
    assert any(gst.sharp_of_subgroup(sub).context.basis() != basis
               for sub, basis in zip(subs, reference))


def test_group_axioms_random():
    rng = random.Random(11)
    fams = [G.group_order24(), G.symmetric_group(4), G.SemidirectZnC2(2),
            G.group_c2_c_c12(), G.pullback_cyclic_example()]
    for Gx in fams:
        pool = Gx.elements() if Gx.is_finite else Gx.window_elements(3)
        for _ in range(1000):
            a, b, c = (rng.choice(pool) for _ in range(3))
            assert Gx.mul(Gx.mul(a, b), c) == Gx.mul(a, Gx.mul(b, c))
            assert Gx.mul(a, Gx.inv(a)) == Gx.identity


def test_orbit_stabilizer():
    for Gx in [G.symmetric_group(3), G.dihedral_group(4), G.metacyclic_group(4, 2, 3, 2)]:
        n = Gx.order()
        for z in Gx.elements():
            orbit = {Gx.conj(z, x) for x in Gx.elements()}
            assert len(orbit) * len(G.centralizer(Gx, z)) == n


def test_extended_index_at_most_two():
    for Gx in [G.symmetric_group(3), G.dihedral_group(4), G.cyclic_group(6)]:
        for z in Gx.elements():
            gz = len(G.centralizer(Gx, z))
            ez = len(G.extended_centralizer(Gx, z))
            assert ez % gz == 0 and ez // gz in (1, 2)


def test_cl_fixed_point_property(order24):
    # applying any generator relation to any member stays in its class
    for cls in G.cl_classes(order24):
        for g in cls.members:
            assert order24.inv(g) in cls.members
            assert order24.mul(g, g) in cls.members
            for h in order24.elements():
                assert order24.conj(g, h) in cls.members


def test_windowed_partition_refines_exact(groupB):
    win = G.cl_classes(groupB, window=4, method="window")
    assert all(c.approximate for c in win)
    for c in win:
        members = sorted(c.members, key=groupB.key)
        for m in members[1:]:
            assert G.same_class(groupB, members[0], m)


def test_pullback_same_class_examples(groupB):
    X = groupB.parse_element("X")
    Y = groupB.parse_element("Y")
    z1 = groupB.parse_element("X^2*Y^2")
    assert G.same_class(groupB, z1, groupB.mul(z1, z1))
    assert G.same_class(groupB, z1, groupB.inv(z1))
    assert not G.same_class(groupB, X, groupB.identity)
    assert G.same_class(groupB, groupB.parse_element("Y^3"),
                        groupB.parse_element("Y^6"))


def test_finite_two_power_roots_match_the_walk_per_root():
    # one table per group against the walk from every g for each z; the
    # table hands out tuples, built once
    for Gx in G.groups_upto(12) + [G.symmetric_group(4), G.dihedral_group(16)]:
        for z in Gx.elements():
            want = set()
            for g in Gx.elements():
                x, seen = g, set()
                while x not in seen:
                    if x == z:
                        want.add(g)
                    seen.add(x)
                    x = Gx.mul(x, x)
            roots = G.two_power_roots(Gx, z)
            assert roots == tuple(sorted(want, key=Gx.key)), (Gx.name, z)
            assert G.two_power_roots(Gx, z) is roots


def test_two_power_roots(groupB):
    z = groupB.parse_element("X^2*Y^2")
    roots = G.two_power_roots(groupB, z)
    xy = groupB.parse_element("X*Y")
    xy7 = groupB.parse_element("X*Y^7")
    assert set(roots) == {z, xy, xy7}


def _finite_roots(Gx):
    """{z: the 2-power roots of z} for a finite group, from one walk
    g, g^2, g^4, ... per element g until it repeats: the roots of every
    element at once (reference for the roots walked back per element)."""
    roots = {}
    for g in Gx.elements():
        x, seen = g, set()
        while x not in seen:
            seen.add(x)
            x = Gx.mul(x, x)
        for x in seen:
            roots.setdefault(x, []).append(g)
    return {z: tuple(sorted(gs, key=Gx.key)) for z, gs in roots.items()}


def test_roots_walked_back_match_the_walk_from_every_element():
    # at every element of the catalogue, the J >= 3 groups and the random
    # battery, on fresh descriptors; a second query hands out the same tuple
    from test_random_groups import battery_draws
    from test_upsilon import large_j_groups
    small, _, large = battery_draws()
    groups = (G.groups_upto(16) + [Gx for Gx, _ in large_j_groups().values()]
              + [_relabelled(random.Random(7), Gx)[0] for Gx in small + large])
    for Gx in groups:
        want = _finite_roots(Gx)
        for z in Gx.elements():
            roots = G.two_power_roots(Gx, z)
            assert roots == want[z], (Gx.name, z)
            assert G.two_power_roots(Gx, z) is roots


def _squaring_level(E, k):
    """(x^(2^k) for x in E.elements()), read from the levels k < pre + per
    that `squaring_preperiod` stores on E; a level k >= pre + per is the
    level pre + (k - pre) mod per."""
    pre, per, levels = derived(E, "squaring_levels", gcl._squaring_levels, E)
    if k >= pre + per:
        k = pre + (k - pre) % per
    return levels[k]


def _scanned_pullback_roots(Gx, z):
    """The 2-power roots of z in a two-ends pull-back, by a scan of every
    squaring level of E for the e with e^(2^k) = z's E-part (reference for
    the square-root lists)."""
    E = Gx.E
    pre, per = gcl.squaring_preperiod(E)
    out = {z}
    i = gcl._t_exponent(Gx, z)
    if i is None:
        return (z,)
    kmax = (pre + per if i == 0 else gcl._v2(i) or 0)
    for k in range(1, kmax + 1):
        for e, ek in enumerate(_squaring_level(E, k)):
            if ek != z[1]:
                continue
            if i % (1 << k) == 0:
                g = ((0, i // (1 << k)), e)
                if Gx.check_membership(g):
                    out.add(g)
            if i == 0:
                epsh, c = Gx.hom[e]
                if epsh == 1:
                    out.add(((1, c), e))
                    out.add(((1, c + Gx.m), e))
    return tuple(sorted(out, key=Gx.key))


def test_pullback_roots_match_the_scan_of_the_squaring_levels():
    # T-exponents up to 8, so 2-valuations 0 to 3, and the S-type elements
    for Gx in _two_ends_groups() + _more_pullbacks():
        for z in Gx.window_elements(8):
            assert G.two_power_roots(Gx, z) == _scanned_pullback_roots(Gx, z), (Gx.name, z)


def test_finite_groups_list_their_elements_in_key_order():
    # conjugacy_classes and cl(G) meet each class first at its least member
    for Gx in G.groups_upto(16) + [G.symmetric_group(4), G.alternating_group_4()]:
        els = Gx.elements()
        assert sorted(els, key=Gx.key) == els, Gx.name


def test_finite_perm_cap():
    with pytest.raises(GroupError):
        G.FinitePermGroup([tuple(range(1, 9)) + (0,)], 9, cap=5)


class _TuplePermGroup(G.Group):
    """A permutation group as image tuples, multiplied and inverted as
    permutations: the encoding FinitePermGroup had before it became an
    index table, kept as the reference of the table."""

    family = "finite_perm"
    is_finite = True

    def __init__(self, generators, n, generator_names=None):
        self.n = n
        self.gens = [tuple(g) for g in generators]
        ident = self._identity = tuple(range(n))
        seen = {ident}
        frontier = [ident]
        while frontier:
            nxt = []
            for x in frontier:
                for g in self.gens:
                    y = self.mul(x, g)
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        self._elements = sorted(seen)
        self._index = {g: i for i, g in enumerate(self._elements)}
        self._gen_names = {k: tuple(v) for k, v in (generator_names or {}).items()}

    def mul(self, a, b):
        return tuple(map(a.__getitem__, b))

    def inv(self, a):
        out = [0] * self.n
        for i, x in enumerate(a):
            out[x] = i
        return tuple(out)

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
        if text.startswith("(") and text.endswith(")") and "|" not in text:
            try:
                img = tuple(int(t) for t in text[1:-1].replace(",", " ").split())
            except ValueError:
                return None
            if len(img) == self.n and img in self._index:
                return img
        return None


def test_perm_tables_match_the_tuple_arithmetic():
    """On S3, A4, S4, S5, A5, C3^2 x| C4 in S6 and S6 the index table is the
    tuple group read through the labels: the element order, every product
    and inverse, the literals in both syntaxes, the generator names, the
    generating set, the class partition and J (not on S6, where the tuple
    group takes 2 s), and up to order 24 the relation bases of F_2[G]."""
    def sym(n):
        return [tuple([1, 0] + list(range(2, n))), tuple(list(range(1, n)) + [0])]
    for gens, n in [(sym(3), 3), ([(1, 0, 3, 2), (1, 2, 0, 3)], 4), (sym(4), 4), (sym(5), 5),
                    ([(1, 2, 0, 3, 4), (1, 2, 3, 4, 0)], 5),
                    ([(1, 2, 0, 3, 4, 5), (0, 1, 2, 4, 5, 3), (3, 4, 5, 1, 0, 2)], 6),
                    (sym(6), 6)]:
        names = {"t": gens[0], "c": gens[1]}
        old = _TuplePermGroup(gens, n, generator_names=names)
        new = G.FinitePermGroup(gens, n, generator_names=names)
        els = old.elements()
        phi = {g: new.parse_element(old.format_element(g)) for g in els}
        assert [phi[g] for g in els] == new.elements() and phi[old.identity] == new.identity
        assert [new.format_element(phi[g]) for g in els] == [old.format_element(g) for g in els]
        for g in els:
            assert new.parse_element("(" + ",".join(map(str, g)) + ")") == phi[g]
            assert new.inv(phi[g]) == phi[old.inv(g)]
            assert [new.mul(phi[g], phi[h]) for h in els] == [phi[old.mul(g, h)] for h in els]
        for word in ("t", "c", "t*c^2*t"):
            assert new.parse_element(word) == phi[old.parse_element(word)]
        assert gst.generating_set(new) == [phi[g] for g in gst.generating_set(old)]
        assert gcl.cl_partition_finite(new) == [frozenset(map(phi.get, part))
                                                for part in gcl.cl_partition_finite(old)]
        if new.order() < 720:
            assert ups.j_group_dimension(new) == ups.j_group_dimension(old)
        if new.order() <= 24:
            ref = G.table_from_mul(els, old.mul, labels=list(map(old.format_element, els)))
            assert _relation_bases(H.group_algebra(new, 2)) == \
                _relation_bases(H.group_algebra(ref, 2))


def test_catalog_counts():
    assert [len(G.groups_of_order(n)) for n in range(1, 17)] == \
        [1, 1, 1, 2, 1, 2, 1, 5, 2, 2, 1, 5, 1, 2, 1, 14]


def test_element_io_roundtrip(groupB, plane):
    for Gx in (groupB, plane):
        for g in Gx.window_elements(2)[:20]:
            assert Gx.parse_element(Gx.format_element(g)) == g
    j = groupB.to_json()
    B2 = G.group_from_json(j)
    assert B2.order_of(B2.parse_element("(0,0|y)")) == 12


def test_every_builtin_and_catalogue_group_roundtrips_through_json():
    """group_from_json(to_json()) keeps the order, the element labels and
    what each generator name parses to; a permutation group keeps its
    names in the optional "names" key."""
    groups = [G.builtin_group(name) for name in G.BUILTIN_GROUPS]
    groups += G.groups_upto(16) + [G.symmetric_group(4)]
    for Gx in groups:
        Rx = G.group_from_json(json.loads(json.dumps(Gx.to_json())))
        assert type(Rx) is type(Gx), Gx.name
        if Gx.is_finite:
            assert Rx.order() == Gx.order(), Gx.name
            els = Gx.elements()
        else:
            els = Gx.window_elements(2)
            assert Rx.window_elements(2) == els, Gx.name
        assert [Rx.format_element(g) for g in els] == [Gx.format_element(g) for g in els]
        names = list(Gx.generators())
        assert names == list(Rx.generators()), Gx.name
        for word in names + ["*".join(names)]:
            assert Rx.parse_element(word) == Gx.parse_element(word), (Gx.name, word)


# -- conjugator rows and the bounded power/conjugacy search -----------------


def _two_ends_groups():
    """The two-ends built-ins and the pull-backs of the fuzz battery."""
    E = G.metacyclic_group(4, 2, 3, 0, names=("t", "s"), name="D4e")
    PC = G.PullbackCyclicGroup(E, 2, [e // 4 for e in E.elements()],
                               name="pb-cyclic-d4")
    builtins = [G.builtin_group(name) for name in G.BUILTIN_GROUPS]
    return [Gx for Gx in builtins if Gx.is_two_ends] + [PC]



def test_pullback_window_is_every_member_in_key_order():
    # reference: every candidate over e with |T-exponent| <= bound that
    # satisfies the pull-back condition, sorted by key; a cyclic pull-back
    # stores T^i as (0, i) and holds no ((1, i), e)
    for Gx in _two_ends_groups() + _more_pullbacks():
        for bound in range(7):
            cands = []
            for e in Gx.E.elements():
                for i in range(-bound, bound + 1):
                    cands += [((0, i), e), ((1, i), e)]
            want = sorted((g for g in cands if Gx.check_membership(g)), key=Gx.key)
            assert Gx.window_elements(bound) == want, (Gx.name, bound)


def _more_pullbacks():
    """Two more dihedral pull-backs (SD16 over D_1 by s-degree, D8 over
    D_2), and two whose fibre orbits of odd-order elements are not single
    points (S3 over C_2 by sign, C6 over D_1 by parity)."""
    E1 = G.metacyclic_group(8, 2, 3)
    PD1 = G.PullbackDihedralGroup(E1, 1, [((e // 8) & 1, 0) for e in E1.elements()],
                                  name="pb-sd16-d1")
    E2 = G.metacyclic_group(8, 2, 7)
    PD2 = G.PullbackDihedralGroup(E2, 2, [((e // 8) & 1, (e % 8) % 2)
                                          for e in E2.elements()],
                                  name="pb-d8-d2")
    S3 = G.dihedral_group(3)
    PC3 = G.PullbackCyclicGroup(S3, 2, [e // 3 for e in S3.elements()],
                                name="pb-s3-c2")
    PD3 = G.PullbackDihedralGroup(G.cyclic_group(6), 1,
                                  [(e % 2, 0) for e in range(6)], name="pb-c6-d1")
    return [PD1, PD2, PC3, PD3]


class _CyclicPullbackReference:
    """The deleted code of `PullbackCyclicGroup`, on its old elements (i, e)
    with i the T-exponent and hom the list of T-exponents (reference): its
    arithmetic, its `conj_witness` branch, its centralizer and extended
    centralizer (as e-members), and the carry and K_# coordinates of
    `sharp_of_pullback`."""

    def __init__(self, E, m, hom):
        self.E, self.m, self.hom = E, m, hom

    def check_membership(self, g):
        i, e = g
        return isinstance(i, int) and 0 <= e < self.E.order() and i % self.m == self.hom[e]

    def mul(self, a, b):
        return (a[0] + b[0], self.E.mul(a[1], b[1]))

    def inv(self, a):
        return (-a[0], self.E.inv(a[1]))

    def conj(self, g, x):
        # the C part is central, and E conjugates by its table
        return (g[0], self.E.conj(g[1], x[1]))

    def order_of(self, g):
        return None if g[0] != 0 else self.E.order_of(g[1])

    def key(self, g):
        return (g[0], g[1])

    def conj_witness(self, z1, z2):
        (i1, e1), (i2, e2) = z1, z2
        if i1 != i2:
            return None
        xs = gcl.conjugators(self.E, e1).get(e2)
        return (self.hom[xs[0]], xs[0]) if xs else None

    def centralizer(self, z):
        return tuple(sorted(set(gcl.conjugators(self.E, z[1])[z[1]])))

    def extended_centralizer(self, z):
        # the first coordinate is central, so conjugating to z^-1 needs i = -i
        if z[0] != 0:
            return self.centralizer(z)
        row = gcl.conjugators(self.E, z[1])
        return tuple(sorted(set(row[z[1]] + row.get(self.E.inv(z[1]), ()))))

    def carry(self, e, f):
        hom = self.hom
        return (hom[e] + hom[f] - hom[self.E.mul(e, f)]) // self.m

    def sharp_bits(self, e_members, g):
        """The K_# vector of g over the sub-pull-back of the e-members, its
        t coordinate last; None for g outside it."""
        index = {e: k for k, e in enumerate(e_members)}
        i, e = g
        if e not in index or i % self.m != self.hom[e]:
            return None
        j = (i - self.hom[e]) // self.m & 1
        if j and e == self.E.identity:
            return 1 << len(e_members)
        return j << len(e_members) | 1 << index[e]


def _cyclic_pullbacks():
    """pb-cyclic-c4, pb-cyclic-d4 of the fuzz battery, S3 over C_2 by sign
    and Z x C7."""
    groups = _two_ends_groups() + _more_pullbacks() + _infinite_groups()
    return list({Gx.name: Gx for Gx in groups if Gx.family == "pullback_cyclic"}.values())


def _wrap(g):
    """The element ((0, i), e) of a cyclic pull-back for the old (i, e)."""
    return None if g is None else ((0, g[0]), g[1])


def _upsilon_displays(Gx, zs):
    """The display of [h] in L([z]) for every K_# element h of F(z), and of
    [1, t] when F(z) has a t, on a fresh descriptor."""
    out = []
    for z in zs:
        fz = ups.fz_data(Gx, z)
        for h, t in [(h, 0) for h in fz.sharp.elements] + [(None, 1)] * fz.has_t:
            v = ups.JValue(Gx)
            v.add_insert(z, h, t)
            out.append(v.display())
    return out


def test_cyclic_pullbacks_are_the_reflection_free_dihedral_pullbacks():
    # the deleted (i, e) code, read through (i, e) -> ((0, i), e), gives
    # the products, inverses, conjugates, orders, key order, witnesses,
    # centralizer e-members, carry walk and K_# bits of each cyclic
    # pull-back at its window-3 elements
    groups = _cyclic_pullbacks()
    assert [Gx.name for Gx in groups] == ["pb_cyclic_c4", "pb-cyclic-d4", "pb-s3-c2", "ZxC7"]
    for Gx in groups:
        data = Gx.to_json()
        hom = data["hom"]
        assert hom == [h for _, h in Gx.hom] and all(type(h) is int for h in hom)
        assert G.group_from_json(json.loads(json.dumps(data))).to_json() == data
        E, m = Gx.E, Gx.m
        ref = _CyclicPullbackReference(E, m, hom)
        old = sorted((g for e in E.elements() for g in
                      [(i, e) for i in range(-3, 4)] if ref.check_membership(g)), key=ref.key)
        assert list(map(_wrap, old)) == Gx.window_elements(3), Gx.name
        assert Gx.identity == _wrap((0, E.identity))
        for a in old:
            assert Gx.inv(_wrap(a)) == _wrap(ref.inv(a))
            assert Gx.order_of(_wrap(a)) == ref.order_of(a)
            assert Gx.parse_element(Gx.format_element(_wrap(a))) == _wrap(a)
            assert Gx.format_element(_wrap(a)) == f"({a[0]}|{E.format_element(a[1])})"
            for b in old:
                assert Gx.mul(_wrap(a), _wrap(b)) == _wrap(ref.mul(a, b))
                assert Gx.conj(_wrap(a), _wrap(b)) == _wrap(ref.conj(a, b))
                assert G.conj_witness(Gx, _wrap(a), _wrap(b)) == \
                    _wrap(ref.conj_witness(a, b)), (Gx.name, a, b)
        for z in old:
            for sub, want in [(gst.centralizer(Gx, _wrap(z)), ref.centralizer(z)),
                              (gst.extended_centralizer(Gx, _wrap(z)),
                               ref.extended_centralizer(z))]:
                assert sub.kind == "pullback" and sub.e_members == want, (Gx.name, z)
                sharp = gst.sharp_of_pullback(sub)
                _, _, forms, width, constraints = gst.walk(E, list(want), ref.carry)
                assert (sharp.forms[:-1], sharp.width, sharp.constraints) == \
                    (forms, width, constraints)
                assert sharp.elements == [_wrap((hom[e], e)) for e in want] + \
                    [_wrap((m, E.identity))]
                for g in old:
                    bits = ref.sharp_bits(want, g)
                    if bits is not None:
                        assert sharp.bits(_wrap(g)) == bits, (Gx.name, z, g)
    # each is the dihedral pull-back of the same E with hom (0, h): the same
    # class keys, types, L(c) dimensions and Upsilon displays, the cyclic
    # one printing (i|label) where the dihedral one prints (0,i|label)
    for Gx in groups:
        Dx = G.PullbackDihedralGroup(Gx.E, Gx.m, [(0, h) for h in Gx.to_json()["hom"]])
        zs = Gx.window_elements(3)
        assert Dx.window_elements(3) == zs
        for z in zs:
            assert gcl.class_key(Gx, z) == gcl.class_key(Dx, z), (Gx.name, z)
            assert gst.type_of(Gx, z) == gst.type_of(Dx, z), (Gx.name, z)
            assert ups.l_of_class(Gx, z).dim == ups.l_of_class(Dx, z).dim, (Gx.name, z)
        cyclic = _upsilon_displays(Gx, zs)
        assert len(cyclic) > len(zs) and any(d != "0" for d in cyclic)
        assert [re.sub(r"\((-?\d+)\|", r"(0,\1|", d) for d in cyclic] == \
            _upsilon_displays(Dx, zs), Gx.name


def _finite_groups():
    return G.groups_upto(16) + [Gx.E for Gx in _two_ends_groups()]


def test_conjugator_rows_match_brute_force():
    # x g x^-1 by two products and an inverse, against the rows and conj
    for Gx in _finite_groups():
        els = Gx.elements()
        for g in els:
            images = [Gx.mul(Gx.mul(x, g), Gx.inv(x)) for x in els]
            assert [Gx.conj(g, x) for x in els] == images, (Gx.name, g)
            want = {}
            for h in els:
                xs = tuple(x for x, c in zip(els, images) if c == h)
                if xs:
                    want[h] = xs
            assert G.conjugators(Gx, g) == want, (Gx.name, g)


def test_centralizers_and_classes_match_brute_force():
    for Gx in _finite_groups():
        els = Gx.elements()
        for z in els:
            zi = Gx.inv(z)
            cz = {x for x in els if Gx.mul(x, z) == Gx.mul(z, x)}
            ez = {x for x in els if Gx.mul(Gx.mul(Gx.inv(x), z), x) in (z, zi)}
            assert set(G.centralizer(Gx, z).members) == cz, (Gx.name, z)
            assert set(G.extended_centralizer(Gx, z).members) == ez, (Gx.name, z)
        orbits = {frozenset(Gx.conj(g, x) for x in els) for g in els}
        assert set(G.conjugacy_classes(Gx)) == orbits, Gx.name


def test_pullback_stabilizers_match_window_brute_force():
    # window 3 holds every lift needed: the stabilizer of a T-type z is a
    # condition on the e-part, that of an S-type S T^i (|i| <= 2) is finite
    # with D-parts 1 and S T^i
    for Gx in _two_ends_groups():
        pool = Gx.window_elements(3)
        for z in Gx.window_elements(2):
            for sub, targets in ((G.centralizer(Gx, z), {z}),
                                 (G.extended_centralizer(Gx, z), {z, Gx.inv(z)})):
                fixing = [g for g in pool if Gx.conj(z, g) in targets]
                if sub.kind == "pullback":
                    assert set(sub.e_members) == {g[1] for g in fixing}, (Gx.name, z)
                else:
                    assert set(sub.members) == set(fixing), (Gx.name, z)


def _closure_faults(sub):
    """The e-member pairs of a sub-pull-back whose product leaves it, and
    whether it misses the identity of E (an empty list: a subgroup)."""
    E, eset = sub.G.E, set(sub.e_members)
    faults = [(a, b) for a in sub.e_members for b in sub.e_members
              if E.mul(a, b) not in eset]
    return faults + [("no identity",)] * (E.identity not in eset)


def test_pullback_subgroups_are_closed(monkeypatch):
    """`PullbackSubgroup` checks nothing: every sub-pull-back that the
    two-ends built-ins and the pull-backs above build (centralizers and
    extended centralizers of the window of exponent 3, the F(z) and
    squaring chains of their summands, and G_#) is closed under products
    in E, and a planted e-member set that is not fails the check."""
    built = []
    real = gst.PullbackSubgroup.__init__

    def recording(self, Gx, e_members):
        real(self, Gx, e_members)
        built.append(self)

    monkeypatch.setattr(gst.PullbackSubgroup, "__init__", recording)
    groups = _two_ends_groups() + _more_pullbacks()
    for Gx in groups:
        gst.ab_mod_squares(Gx)
        for z in Gx.window_elements(3):
            gst.centralizer(Gx, z)
            gst.extended_centralizer(Gx, z)
            ups.l_of_class(Gx, z).insert_entry(Gx, z, Gx.identity)
    monkeypatch.undo()
    assert {sub.G.name for sub in built} == {Gx.name for Gx in groups}
    for sub in built:
        assert _closure_faults(sub) == [], (sub.G.name, sub.e_members)
    # planted: an element of order 4 and the identity, without its square
    Gx = groups[0]
    E = Gx.E
    g = next(e for e in E.elements() if E.order_of(e) == 4)
    assert _closure_faults(gst.PullbackSubgroup(Gx, [E.identity, g]))
    assert _closure_faults(gst.PullbackSubgroup(Gx, [g]))


def _sharp_subgroups():
    """Centralizers of every K_# family: finite, lattice, full and the
    sub-pull-backs of both two-ends families."""
    S3, plane = G.symmetric_group(3), G.group_plane()
    subs = [G.centralizer(S3, S3.parse_element("c")),
            G.extended_centralizer(S3, S3.parse_element("c")),
            G.centralizer(plane, ((1, 0), 0)),
            G.centralizer(plane, plane.identity)]
    for Gx in _two_ends_groups() + _more_pullbacks():
        for z in Gx.window_elements(1):
            subs += [G.centralizer(Gx, z), G.extended_centralizer(Gx, z)]
    families = {(sub.kind, type(sub.G).__name__) for sub in subs}
    assert {("finite", "FinitePermGroup"), ("pullback", "PullbackCyclicGroup"),
            ("pullback", "PullbackDihedralGroup"), ("lattice", "SemidirectZnC2"),
            ("full", "SemidirectZnC2")} <= families
    return subs


def test_sharp_elements_are_the_coordinate_units():
    # elements[i] is the group element of coordinate i, in every presentation
    for sub in _sharp_subgroups():
        sharp = G.sharp_of_subgroup(sub)
        assert len(sharp.elements) == sharp.dim
        for i, g in enumerate(sharp.elements):
            assert g in sub
            assert sharp.coord(g) == fp.unit(sharp.dim, i), (sub.kind, g)


def _sharp_reference(sub, sharp):
    """(g, its K_# vector) for members g of K, the vector written from how g
    is built (reference): a unit vector for a finite K; v mod 2, and s for
    the full group, for a lattice one; and for a sub-pull-back, g = u_e t^j
    with j in [-3, 3], the unit of u_e plus j mod 2 on the t coordinate,
    the last, but t alone for u_1 t^j with j odd (u_1 = 1)."""
    Gx, dim = sub.G, sharp.dim
    if sub.kind == "finite":
        return [(g, fp.unit(dim, i)) for i, g in enumerate(sharp.elements)]
    if sub.kind in ("lattice", "full"):
        full = sub.kind == "full"
        return [(g, tuple(x % 2 for x in g[0]) + (g[1],) * full)
                for g in Gx.window_elements(2) if full or not g[1]]
    out = []
    t, tcol = sharp.elements[-1], dim - 1
    for k, u in enumerate(sharp.elements[:-1]):
        for j in range(-3, 4):
            want = [0] * dim
            want[tcol] = j % 2
            if u[1] != Gx.E.identity or not j % 2:
                want[k] = 1
            out.append((Gx.mul(u, Gx.power(t, j)), tuple(want)))
    return out


def test_sharp_coordinates_unpack_the_packed_bits():
    # every family packs its K_# coordinates at the source: `bits` has the
    # vector of the reference, and `coord` is its unpacking, on finite,
    # lattice and full K and on the elements u_e t^j of two-ends ones,
    # t itself included
    seen = set()
    for sub in _sharp_subgroups():
        sharp = G.sharp_of_subgroup(sub)
        for g, want in _sharp_reference(sub, sharp):
            assert g in sub
            bits = sharp.bits(g)
            assert type(bits) is int and fp.unpack(bits, sharp.dim) == want, (sub.kind, g)
            assert sharp.coord(g) == want, (sub.kind, g)
            seen.add((sub.kind, want[-1] if sub.kind == "pullback" else None))
    assert {("finite", None), ("lattice", None), ("full", None),
            ("pullback", 0), ("pullback", 1)} <= seen


def _scan_conj_witness(Gx, z1, z2):
    """The pull-back conj_witness as a scan over E (reference)."""
    E = Gx.E
    if isinstance(Gx, G.PullbackCyclicGroup):
        (i1, e1), (i2, e2) = z1, z2
        if i1 != i2:
            return None
        for ex in E.elements():
            if E.conj(e1, ex) == e2:
                return (Gx.hom[ex], ex)
        return None
    (d1, e1), (d2, e2) = z1, z2
    m = Gx.m
    for ex in E.elements():
        if E.conj(e1, ex) != e2:
            continue
        epsx, c = Gx.hom[ex]
        if d1[0] == 0:
            want = (0, -d1[1] if epsx else d1[1])
            if want == d2:
                return ((epsx, c), ex)
        else:
            if d2[0] != 1:
                continue
            i, i2 = d1[1], d2[1]
            num = i + i2 if epsx else i - i2
            if num % 2 == 0:
                a = num // 2
                if (a - c) % m == 0:
                    return ((epsx, a), ex)
    return None


def _v2(n):
    k = 0
    while n % 2 == 0:
        n //= 2
        k += 1
    return k


def _scan_same_class(Gx, z1, z2):
    """The pull-back class decider over all pairs of 2-power powers, with
    the scanning conj_witness (reference)."""
    if z1 == z2:
        return True
    pre, per = G.squaring_preperiod(Gx.E)
    dihedral = isinstance(Gx, G.PullbackDihedralGroup)
    tpart = [None if dihedral and z[0][0] else (z[0][1] if dihedral else z[0])
             for z in (z1, z2)]
    extra = max([_v2(abs(t)) for t in tpart if t], default=0)
    amax = pre + per + 2 + extra + 2
    p1, p2 = [z1], [z2]
    for _ in range(amax):
        p1.append(Gx.mul(p1[-1], p1[-1]))
        p2.append(Gx.mul(p2[-1], p2[-1]))
    return any(_scan_conj_witness(Gx, a, w) is not None
               or _scan_conj_witness(Gx, a, Gx.inv(w)) is not None
               for a in p1 for w in p2)


def _pullback_same_class(Gx, z1, z2):
    """z1 ~ z2 iff some 2-power powers are conjugate up to inversion: the
    pairwise search over the powers of both elements (reference).

    Squaring commutes with conjugation and inversion, so the relation
    "powers eventually conjugate" is an equivalence containing the three
    generating moves and contained in their closure; the search bound comes
    from the preperiod/period of squaring on E plus 2-valuation alignment
    of the infinite-cyclic parts."""
    amax = gcl._search_depth(Gx, (z1, z2))
    powers = [z2]
    for _ in range(amax):
        powers.append(Gx.mul(powers[-1], powers[-1]))
    return gcl._power_conj(Gx, z1, powers, amax) is not None


def test_class_key_matches_pullback_same_class():
    # All window-3 pairs: the reference is an equivalence relation, so
    # checking each key bucket against its first member, and the first
    # members against each other, decides every pair.  Then 300 seeded
    # pairs from window 8 and deep squares, where the key's level K and the
    # reference's search depth grow with the 2-valuation.
    rng = random.Random(11)
    for Gx in _two_ends_groups() + _more_pullbacks():
        pool = Gx.window_elements(3)
        buckets = {}
        for z in pool:
            buckets.setdefault(gcl.class_key(Gx, z), []).append(z)
        for first, *rest in buckets.values():
            for z in rest:
                assert _pullback_same_class(Gx, first, z), (Gx.name, first, z)
        for (a, *_), (b, *_) in itertools.combinations(buckets.values(), 2):
            assert not _pullback_same_class(Gx, a, b), (Gx.name, a, b)
        wide = Gx.window_elements(8)
        pairs = [(rng.choice(wide), rng.choice(wide)) for _ in range(300)]
        for _ in range(20):
            z = rng.choice(pool)
            deep = Gx.power(z, 1 << rng.randint(3, 9))
            pairs += [(deep, z), (z, Gx.inv(deep)), (deep, rng.choice(wide))]
        for z1, z2 in pairs:
            same = gcl.class_key(Gx, z1) == gcl.class_key(Gx, z2)
            assert same == _pullback_same_class(Gx, z1, z2), (Gx.name, z1, z2)


def _infinite_groups():
    """The five infinite built-ins and Z x C7, whose squaring permutes the
    classes of C7 in a 3-cycle."""
    names = ("ch1-c-by-d4", "ch1-c2-c-c12", "ch2-plane", "ch4-xyz", "pb-cyclic-c4")
    return [G.builtin_group(n) for n in names] + [
        G.PullbackCyclicGroup(G.cyclic_group(7), 1, [0] * 7, name="ZxC7")]


def _fresh_type(Gx, z):
    """The type of z by a conjugacy search for z^-1 (reference)."""
    zi = Gx.inv(z)
    if z == zi:
        return 1
    return 2 if gcl.conj_witness(Gx, z, zi) is not None else 3


def test_class_and_type_tables_match_fresh_deciders(monkeypatch):
    # the element -> key and element -> type tables of the infinite
    # families against the closed forms and the conjugacy search, on the
    # window-3 elements and their inverses: negative T-exponents, flips
    # and S-type elements included
    answers, types = {}, set()
    for Gx in _infinite_groups():
        zs = Gx.window_elements(3)
        zs += [Gx.inv(z) for z in zs]
        lattice = isinstance(Gx, G.SemidirectZnC2)
        for z in zs:
            key = gcl.class_key(Gx, z)
            fresh = gcl._lattice_key(z) if lattice else gcl._pullback_key(Gx, z)
            assert key == fresh, (Gx.name, z)
            assert key == gcl.class_key(Gx, Gx.inv(z)), (Gx.name, z)    # z ~ z^-1
            assert gst.type_of(Gx, z) == _fresh_type(Gx, z), (Gx.name, z)
        answers[Gx] = [(z, gcl.class_key(Gx, z), gst.type_of(Gx, z)) for z in zs]
        types |= {tp for _, _, tp in answers[Gx]}
    assert types == {1, 2, 3}

    def no_search(*args):
        raise AssertionError("a table entry was computed again")

    # every later query is a lookup in the tables
    for name in ("_lattice_key", "_pullback_key", "conj_witness"):
        monkeypatch.setattr(gcl, name, no_search)
    monkeypatch.setattr(gst, "conj_witness", no_search)
    for Gx, rows in answers.items():
        for z, key, tp in rows:
            assert gcl.class_key(Gx, z) is key and gst.type_of(Gx, z) == tp


def test_two_ends_class_decisions_make_no_conjugacy_search(monkeypatch):
    calls = []
    real = gcl.conj_witness

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(gcl, "conj_witness", counting)
    # fresh descriptors, so first-use table builds are counted too
    for Gx in _two_ends_groups() + _more_pullbacks():
        pool = Gx.window_elements(2)
        for z in pool:
            gcl.class_key(Gx, z)
            G.same_class(Gx, pool[0], z)
        G.cl_classes(Gx, window=2)
    assert calls == []


def test_pullback_conj_witness_matches_scan():
    for Gx in _two_ends_groups():
        pool = Gx.window_elements(2)
        for z1 in pool:
            for z2 in pool:
                assert G.conj_witness(Gx, z1, z2) == _scan_conj_witness(Gx, z1, z2), \
                    (Gx.name, z1, z2)


def test_pullback_same_class_matches_scan():
    rng = random.Random(5)
    for Gx in _two_ends_groups():
        pool = Gx.window_elements(2)
        pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(300)]
        # deep squares: the search depth must grow with the 2-valuation
        for _ in range(20):
            z = rng.choice(pool)
            deep = Gx.power(z, 1 << rng.randint(3, 9))
            pairs += [(deep, z), (z, Gx.inv(deep))]
        for z1, z2 in pairs:
            assert G.same_class(Gx, z1, z2) == _scan_same_class(Gx, z1, z2), \
                (Gx.name, z1, z2)


def test_power_conj_search_finds_chain_positions():
    Gx = G.group_c2_c_c12()
    X = Gx.parse_element("X")
    chain = [Gx.power(X, 1 << k) for k in range(6)]
    assert gcl.power_conj_search(Gx, X, chain) == (0, 0, Gx.identity, 1)
    hit = gcl.power_conj_search(Gx, Gx.inv(chain[3]), chain)
    a, j, x, eps = hit
    w = Gx.power(Gx.power(Gx.inv(chain[3]), 1 << a), eps)
    assert Gx.conj(w, x) == chain[j] and (a, j) == (0, 3)
    assert gcl.power_conj_search(Gx, Gx.identity, chain) is None


def test_pullback_conj_matches_the_generic_product():
    # the table conjugation of the pull-backs against x g x^-1 by two
    # products and an inverse (Group.conj), on all window-3 pairs
    for Gx in _two_ends_groups() + _more_pullbacks():
        assert type(Gx).conj is not G.Group.conj, Gx.name
        pool = Gx.window_elements(3)
        for g in pool:
            for x in pool:
                assert Gx.conj(g, x) == G.Group.conj(Gx, g, x), (Gx.name, g, x)


def _target_values(Gx):
    """Every reduced element of the target of the hom, C_m or D_m."""
    if Gx.family == "pullback_cyclic":
        return list(range(Gx.m))
    return [(eps, i) for eps in (0, 1) for i in range(Gx.m)]


def test_hom_check_refuses_every_single_corrupted_entry():
    # two homomorphisms that agree off one element e agree on a generating
    # set when |E| > 2, so each corruption breaks the law somewhere, and
    # the check on generators must find it
    for name in ("ch1-c-by-d4", "ch1-c2-c-c12"):
        Gx = G.builtin_group(name)
        cls = type(Gx)
        assert cls(Gx.E, Gx.m, Gx.hom).hom == Gx.hom
        corrupted = 0
        for e in Gx.E.elements():
            for value in _target_values(Gx):
                if value == Gx.hom[e]:
                    continue
                hom = list(Gx.hom)
                hom[e] = value
                with pytest.raises(GroupError, match="hom (is not multiplicative|does not fix)"):
                    cls(Gx.E, Gx.m, hom)
                corrupted += 1
        assert corrupted == Gx.E.order() * (len(_target_values(Gx)) - 1)


def _is_hom_by_all_pairs(E, hom, hom_mul, one):
    """The deleted check of every product: hom(ab) = hom(a) hom(b) for all
    n^2 pairs, and hom(1) = 1 (reference)."""
    return hom[E.identity] == one and all(
        hom_mul(hom[a], hom[b]) == hom[E.mul(a, b)] for a in E.elements() for b in E.elements())


def _c2_mul(x, y):
    return (x + y) % 2


def _d2_mul(x, y):
    (e1, i1), (e2, i2) = x, y
    return (e1 ^ e2, ((-i1 if e2 else i1) + i2) % 2)


def test_hom_check_accepts_exactly_the_homomorphisms():
    # every map E -> C_2 and E -> D_2 that fixes the identity is accepted
    # iff the check of all pairs accepts it; so a map that obeys the law at
    # every generator but one is refused (C4 has one generator)
    S3, D4, Q8 = G.symmetric_group(3), G.dihedral_group(4), G.metacyclic_group(4, 2, 3, 2)
    small = [G.cyclic_group(4), G.abelian_group([2, 2]), S3]
    cases = [(G.PullbackCyclicGroup, E, [0, 1], _c2_mul, 0) for E in small + [D4, Q8]]
    cases += [(G.PullbackDihedralGroup, E, [(0, 0), (0, 1), (1, 0), (1, 1)], _d2_mul, (0, 0))
              for E in small]
    for cls, E, values, hom_mul, one in cases:
        verdicts = Counter()
        for rest in itertools.product(values, repeat=E.order() - 1):
            hom = list(rest)
            hom.insert(E.identity, one)
            try:
                cls(E, 2, hom)
                accepted = True
            except GroupError:
                accepted = False
            assert accepted == _is_hom_by_all_pairs(E, hom, hom_mul, one), (E.name, hom)
            verdicts[accepted] += 1
        assert verdicts[True] >= 2 and verdicts[False] >= 2, (E.name, verdicts)


def test_hom_values_outside_the_target_are_refused():
    Gx = G.group_c2_c_c12()
    # eps = 2 on every s-degree-one element is consistent under XOR, but
    # it is no element of D_1
    hom = [(2 * eps, i) for eps, i in Gx.hom]
    with pytest.raises(GroupError, match="hom must take values in D_1"):
        G.PullbackDihedralGroup(Gx.E, Gx.m, hom)
    # T-exponents are no elements of D_2
    with pytest.raises(GroupError, match="hom must take values in D_2"):
        G.PullbackDihedralGroup(G.cyclic_group(2), 2, [0, 1])
    with pytest.raises(GroupError, match="hom must take values in C_2"):
        G.PullbackCyclicGroup(G.cyclic_group(4), 2, [0, 1, 2, 3])
    with pytest.raises(GroupError, match="one value per element"):
        G.PullbackCyclicGroup(G.cyclic_group(4), 2, [0, 1, 0])
    with pytest.raises(GroupError, match="does not fix the identity"):
        G.PullbackCyclicGroup(G.cyclic_group(1), 2, [1])


class _Opaque(G.Group):
    """An infinite descriptor of a family with no decider."""

    family = "opaque"
    _identity = 0


def test_every_refusal_of_the_group_deciders_is_typed():
    # every raise of groups/classes.py and groups/structure.py that carries
    # no invariant argument, with its type and exact message
    S3, plane = G.symmetric_group(3), G.group_plane()
    members = gst.centralizer(S3, S3.parse_element("c")).members
    outside = next(g for g in S3.elements() if g not in members)
    O = _Opaque()
    cases = [
        (lambda: gcl.cl_part(S3, S3.order()), "element outside group"),
        (lambda: G.cl_classes(plane), "infinite family: cl_classes needs a window bound"),
        (lambda: gcl.class_key(O, 1), "no exact class decider for family opaque"),
        (lambda: gcl.conj_witness(O, 1, 1), "no conjugacy decider for family opaque"),
        (lambda: gcl.two_power_roots(O, 1), "no root solver for family opaque"),
        (lambda: gst.centralizer(O, 1), "unsupported family opaque"),
        (lambda: gst.extended_centralizer(O, 1), "unsupported family opaque"),
        (lambda: gst.ab_mod_squares(O), "unsupported family opaque"),
        (lambda: gst.sharp_of_members(S3, members).bits(outside), "element outside subgroup"),
        (lambda: gst.sharp_of_subgroup(gst.LatticeSubgroup(plane)).bits(((0, 0), 1)),
         "element outside the lattice"),
        (lambda: gst.sharp_of_subgroup(type("Sub", (), {"kind": "cosets", "G": S3})()),
         "unknown subgroup kind cosets"),
        (lambda: gst.groups_of_order(17), "catalog covers orders 1..16"),
    ]
    # a sub-pull-back refuses an element over an e outside its e-members
    # and one off the pull-back condition
    PC = G.pullback_cyclic_example()
    z = PC.parse_element("(1|c)")
    sub = gst.PullbackSubgroup(PC, [PC.E.identity])
    cases += [(lambda g=g: gst.sharp_of_pullback(sub).bits(g), "element outside subgroup")
              for g in (z, ((0, 1), PC.E.identity), ((1, 0), PC.E.identity))]
    for call, message in cases:
        with pytest.raises(GroupError) as err:
            call()
        assert type(err.value) is GroupError and str(err.value) == message


def test_squaring_levels_match_repeated_squaring():
    for Gx in _two_ends_groups() + _more_pullbacks() + [G.group_order24()]:
        E = getattr(Gx, "E", Gx)
        pre, per = gcl.squaring_preperiod(E)
        level = E.elements()
        for k in range(pre + 2 * per + 1):
            assert list(_squaring_level(E, k)) == level, (Gx.name, k)
            level = [E.mul(x, x) for x in level]


def _metacyclic_by_tuples(n, m, t, s=0, names=("a", "b"), name=None):
    """The metacyclic group by `table_from_mul` over the tuples (i, j) =
    a^i b^j: the reference for the index arithmetic of metacyclic_group."""
    els = [(i, j) for j in range(m) for i in range(n)]

    def mul(x, y):
        (i, j), (k, l) = x, y
        i2 = (i + k * pow(t, j, n)) % n
        j2 = j + l
        return ((i2 + s * (j2 // m)) % n, j2 % m)

    an, bn = names
    return G.table_from_mul(els, mul, labels=[G.core._word_label(an, i, bn, j) for i, j in els],
                            generator_names={an: (1 % n, 0), bn: (0, 1 % m)},
                            name=name or f"metacyclic({n},{m},{t},{s})")


def test_metacyclic_tables_match_the_tuple_arithmetic():
    params = [(12, 2, 5, 0), (4, 2, 3, 2), (8, 2, 7, 4), (8, 2, 3, 0), (8, 2, 5, 0),
              (4, 4, 3, 0), (6, 2, 5, 3), (5, 2, 4, 0), (1, 1, 0, 0), (9, 3, 4, 3)]
    for args in params:
        Gx, ref = G.metacyclic_group(*args), _metacyclic_by_tuples(*args)
        assert (Gx.table, Gx.labels, Gx.generators(), Gx.name) == \
            (ref.table, ref.labels, ref.generators(), ref.name), args


def test_table_associativity_is_checked_on_generators():
    loop = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
    with pytest.raises(GroupError, match="table is not associative"):
        G.FiniteTableGroup([str(i) for i in range(5)], loop)
    # loop x C_26 has 130 elements
    big = [[loop[a // 26][b // 26] * 26 + (a + b) % 26 for b in range(130)] for a in range(130)]
    with pytest.raises(GroupError, match="table is not associative"):
        G.FiniteTableGroup([str(i) for i in range(130)], big)
    rng = random.Random(12)
    for Gx in G.groups_upto(16) + [G.group_order24(), G.symmetric_group(4)]:
        els = Gx.elements()
        perm = list(range(len(els)))
        rng.shuffle(perm)
        idx = {g: i for i, g in enumerate(els)}
        table = [[None] * len(els) for _ in els]
        for a, g in enumerate(els):
            for b, h in enumerate(els):
                table[perm[a]][perm[b]] = perm[idx[Gx.mul(g, h)]]
        assert G.FiniteTableGroup([str(i) for i in range(len(els))], table).order() == len(els)


def test_to_json_hands_out_copies():
    C4 = G.cyclic_group(4)
    els = C4.elements()
    want = [[C4.mul(a, b) for b in els] for a in els]
    data = C4.to_json()
    data["table"][1][1] = 0
    data["labels"][1] = "h"
    data["generators"]["h"] = 1
    assert [[C4.mul(a, b) for b in els] for a in els] == want
    assert C4.labels[1] != "h" and "h" not in C4.generators()
    again = G.group_from_json(C4.to_json())
    assert not any(a is b for a, b in zip(again.table, C4.table))


def test_operations_leave_the_handed_rows_alone():
    """A table group keeps the row lists it is handed and writes to none of
    them: the class, J(G) and homology builds leave them as they were, and
    so does writing to what `to_json` returns."""
    rng = random.Random(26)
    for Gx in [G.symmetric_group(3), G.dihedral_group(4), G.group_order24(),
               G.abelian_group([2, 2, 2])]:
        data = _relabelled(rng, Gx)[0].to_json()
        rows = data["table"]
        before = copy.deepcopy(rows)
        Hx = G.group_from_json(data)
        assert all(a is b for a, b in zip(Hx.table, rows))
        gcl.cl_partition_finite(Hx)
        ups.j_group_dimension(Hx)
        A = H.group_algebra(Hx, 2)
        assert H.space(A, "H0").dim == len(gcl.conjugacy_classes(Hx))
        H.coker_one_plus_vartheta(A)
        for row in Hx.to_json()["table"]:
            row.reverse()
        assert rows == before, Gx.name


@pytest.mark.parametrize("labels, table, message", [
    (["1", "g"], [[0, 1]], "table shape does not match labels"),
    (["1", "g"], [[0, 1], [1]], "table shape does not match labels"),
    (["1", "g"], [[0, 1], (1, 0)], "table shape does not match labels"),
    (["1", "g"], [[0, 1], [1, "0"]], "table entries must be integers"),
    (["1", "g"], [[0, 1], [1, False]], "table entries must be integers"),
    (["1", "1"], [[0, 1], [1, 0]], "duplicate labels"),
    (["1", "g"], [[0, 1], [1, 1]], "table row is not a permutation"),
    (["1", "g"], [[0, 1], [2, 0]], "table row is not a permutation"),
    (["a", "b"], [[1, 0], [1, 0]], "table has no identity"),
    (["a", "b"], [[0, 1], [0, 1]], "table has no identity"),      # rows, not columns
    (["1", "a", "b"], [[0, 1, 2], [1, 2, 0], [2, 1, 0]], "table has no two-sided inverses"),
    (list("01234"), LOOP5, "table is not associative"),
])
def test_table_refusals_by_message(labels, table, message):
    with pytest.raises(GroupError, match=f"^{re.escape(message)}$"):
        G.FiniteTableGroup(labels, table)


def test_rows_that_are_permutations_do_not_pass_for_a_group():
    """Tables whose rows are permutations and whose columns are not: every
    one is refused, half of them with a two-sided identity 0 so that the
    inverse and associativity checks are reached."""
    rng = random.Random(20261020)
    refused = Counter()
    for _ in range(3000):
        n = rng.randint(2, 6)
        rows = [rng.sample(range(n), n) for _ in range(n)]
        if rng.random() < 0.5:
            rows = [[a] + rng.sample([x for x in range(n) if x != a], n - 1)
                    for a in range(n)]
            rows[0] = list(range(n))
        if all(sorted(col) == list(range(n)) for col in zip(*rows)):
            continue
        with pytest.raises(GroupError) as exc:
            G.FiniteTableGroup([str(i) for i in range(n)], rows)
        refused[str(exc.value)] += 1
    assert set(refused) == {"table has no identity", "table has no two-sided inverses",
                            "table is not associative"}, refused
    assert sum(refused.values()) > 1000


def test_table_rows_have_no_spare_slots():
    """The rows that `FinitePermGroup` and `table_from_mul` write are lists
    of exactly the group's order, with no slot spare from growing while
    they were filled: odd orders, the trivial permutation group, S4 and
    the cyclic, dihedral and product groups built by `table_from_mul`."""
    groups = [G.symmetric_group(4), G.FinitePermGroup([(1, 2, 0, 4, 3)], 5),
              G.FinitePermGroup([(0, 1, 2)], 3), G.cyclic_group(7), G.dihedral_group(5),
              G.direct_product(G.cyclic_group(3), G.symmetric_group(3))]
    assert sorted(Gx.order() for Gx in groups) == [1, 6, 7, 10, 18, 24]
    for Gx in groups:
        n = Gx.order()
        assert all(sys.getsizeof(row) == sys.getsizeof([0] * n) for row in Gx.table), Gx.name
