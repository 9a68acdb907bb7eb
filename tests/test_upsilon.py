import functools
import gc
import hashlib
import itertools
import random
import weakref
from collections import Counter

import pytest

import arfkit.arf as arf
import arfkit.fp as fp
import arfkit.groups as G
import arfkit.groups.classes as gcl
import arfkit.groups.structure as gst
import arfkit.homology as H
import arfkit.rings as R
import arfkit.upsilon as ups
from arfkit.arf import ArfError
from arfkit.groups import GroupError
from arfkit.memo import derived
from test_random_groups import _random_expressions, _relabelled, battery_draws


@pytest.fixture(scope="module")
def plane():
    return G.group_plane()


@pytest.fixture(scope="module")
def groupB():
    return G.group_c2_c_c12()


def test_sigma_summand_examples():
    # z = 1 in any finite G: G_# x C2
    D4 = G.dihedral_group(4)
    s = ups.sigma_summand(D4, D4.identity)
    assert s.quotient_dim == G.ab_mod_squares(D4).quotient_dim + 1
    # 3-cycle in S3 (type 2): the C4 pull-back sharp gives C2
    S3 = G.symmetric_group(3)
    z = S3.parse_element("c")
    s2 = ups.sigma_summand(S3, z)
    assert s2.type == 2 and s2.quotient_dim == 1
    # type 3 in C3: trivial
    C3 = G.cyclic_group(3)
    s3 = ups.sigma_summand(C3, 1)
    assert s3.type == 3 and s3.quotient_dim == 0


def test_l_of_class_examples(plane):
    assert ups.l_of_class(plane, plane.parse_element("Y")).dim == 2
    assert ups.l_of_class(plane, plane.identity).dim == 1
    C3 = G.cyclic_group(3)
    assert ups.l_of_class(C3, 1).dim == 0


def _semidirect_reference(Gx, key):
    """The deleted elimination path of `SemidirectLc`: F_2^(n+1), or F_2
    for L([1]), modulo the one row (v mod 2, 0), as an fp.QuotientContext."""
    if key == ("one",):
        return fp.QuotientContext(1, 2, [])
    row = tuple(x % 2 for x in key[1]) + (0,)
    return fp.QuotientContext(Gx.rank + 1, 2, [row])


def test_semidirect_lc_matches_the_elimination():
    # payloads and dims of the closed-form lattice summands against the
    # quotient contexts they replaced, on the window-3 involution pairs
    for Gx in (G.group_plane(), G.group_xyz(), G.SemidirectZnC2(1, name="rank1")):
        invs = Gx.involutions(window=3)
        refs = {}
        for g in invs:
            for h in invs:
                z = Gx.mul(g, h)
                lc, tp = ups._summand(Gx, z)
                key = gcl.class_key(Gx, z)
                ref = refs.get(key) or refs.setdefault(key, _semidirect_reference(Gx, key))
                assert (lc.dim, lc.width) == (ref.quotient_dim, ref.space.dim), (Gx.name, z)
                if tp == 1:
                    assert lc.insert_entry(Gx, z, h, 1) == ref.reduce_packed(1)
                else:
                    v, s = h
                    want = ref.reduce_packed(gst.parity_bits(v) | (s & 1) << len(v))
                    assert lc.insert_entry(Gx, z, h) == want, (Gx.name, z, h)
        assert len(refs) > 2 ** Gx.rank, Gx.name


def test_upsilon_table(plane):
    val = ups.upsilon_eval(arf.parse_expression(arf.GROUP, plane, "<1,1>"))
    want = ups.JValue(plane)
    want.add_insert(plane.identity, None, 1)
    assert val == want and not val.is_zero()
    for i in (-2, 0, 3):
        for j in (-1, 0, 2):
            g = ((2 * i, 2 * j + 1), 1)
            hS = ((0, 0), 1)
            val = ups.upsilon_eval(arf.ArfExpression(arf.GROUP, plane, [(g, hS)]))
            want = ups.JValue(plane)
            want.add_insert(plane.mul(g, hS), hS)
            assert val == want and not val.is_zero()


def test_upsilon_single_pair_nonzero_small_groups():
    for Gx in G.groups_upto(8):
        invs = Gx.involutions()
        for g, h in itertools.product(invs, repeat=2):
            val = ups.upsilon_eval(arf.ArfExpression(arf.GROUP, Gx, [(g, h)]))
            assert not val.is_zero(), (Gx.name, g, h)


def test_upsilon_type3_rejected():
    C3 = G.cyclic_group(3)
    e = arf.ArfExpression(arf.GROUP, C3, [])
    assert ups.upsilon_eval(e).is_zero()
    # non-involution pairs are rejected at expression construction
    with pytest.raises(ArfError):
        arf.ArfExpression(arf.GROUP, C3, [(1, 1)])


def test_distinguish_worked_equality(groupB):
    e1 = arf.parse_expression(arf.GROUP, groupB, "<S, S*X^2*Y^2>")
    e2 = arf.parse_expression(arf.GROUP, groupB, "<S*X, S*X^3*Y^2>")
    r = ups.upsilon_distinguish(e1, e2)
    assert r.same_image and r.verdict == "Equal"   # two-ends upgrade


def test_distinguish_false_conjecture(groupB):
    e1 = arf.parse_expression(arf.GROUP, groupB, "<S, S*Y^2>")
    e2 = arf.parse_expression(arf.GROUP, groupB, "<S*X, S*X*Y^2>")
    r = ups.upsilon_distinguish(e1, e2)
    assert r.verdict == "Distinct" and repr(r) == "DistinguishResult(Distinct)"


def test_distinguish_plane(plane):
    e1 = arf.parse_expression(arf.GROUP, plane, "<S, S*Y^2>")
    e2 = arf.parse_expression(arf.GROUP, plane, "<S*X, S*X*Y^2>")
    assert ups.upsilon_distinguish(e1, e2).verdict == "Distinct"


def test_xi_open_question():
    X3 = G.group_xyz()
    xi = arf.parse_expression(
        arf.GROUP, X3,
        "<X*Y*S, S*Z> + <X*Z*S, S*Y> + <Y*Z*S, S*X> + <X*Y*Z*S, S>")
    assert ups.upsilon_eval(xi).is_zero()
    r = ups.upsilon_distinguish(xi, arf.ArfExpression(arf.GROUP, X3))
    assert r.verdict == "SameImage" and r.same_image


def test_rewrite_invariance(groupB, plane):
    rng = random.Random(19)
    import arfkit.kinv as kinv
    fams = [G.group_order24(), G.symmetric_group(3), plane, groupB,
            G.pullback_cyclic_example()]
    for Gx in fams:
        invs = Gx.involutions() if Gx.is_finite else Gx.involutions(window=3)
        for _ in range(40):
            pairs = [tuple(rng.choice(invs) for _ in range(2))
                     for _ in range(rng.randint(1, 2))]
            e = arf.ArfExpression(arf.GROUP, Gx, pairs)
            if e.is_zero():
                continue
            idx = rng.randrange(len(e.pairs))
            kind = rng.choice(["Swap", "Absorb", "Conj", "PowerTwo"])
            if kind == "Conj":
                pool = Gx.elements() if Gx.is_finite else Gx.window_elements(2)
                step = arf.DerivationStep("Conj", idx, (rng.choice(pool),))
            elif kind == "PowerTwo":
                step = arf.DerivationStep("PowerTwo", idx, (rng.randint(1, 2),))
            else:
                step = arf.DerivationStep(kind, idx)
            e2 = arf.apply_step(e, step)
            assert ups.upsilon_eval(e) == ups.upsilon_eval(e2), (Gx.name, step)
            assert kinv.omega(e) == kinv.omega(e2)


def test_colimit_coherence_small():
    for Gx in G.groups_upto(8):
        for part in gcl.cl_partition_finite(Gx):
            rep = min(part, key=Gx.key)
            lc = ups.l_of_class(Gx, rep)
            for z in part:
                fz = ups.fz_data(Gx, z)
                for g in fz.sharp.elements:
                    base = lc.insert_entry(Gx, z, g)
                    for x in Gx.elements():
                        z2 = Gx.conj(z, x)
                        assert lc.insert_entry(Gx, z2, Gx.conj(g, x)) == base


def test_eta_relations_small():
    for Gx in G.groups_upto(8):
        for cl in gst.conjugacy_classes(Gx):
            z = min(cl, key=Gx.key)
            sig = ups.sigma_summand(Gx, z)
            members = gst.extended_centralizer(Gx, z).members
            for g1 in members:
                for g2 in members:
                    for (tp, y1, y2) in ups.eta_relation_elements(Gx, z, g1, g2):
                        assert not any(sig.eta(tp, y1, y2))


def test_upsilon_values_match_homology_model():
    # beyond dimensions: vanishing of Upsilon on random expressions agrees
    # between the colimit model and Coker(1 + vartheta)
    rng = random.Random(55)
    for Gx in [G.cyclic_group(2), G.abelian_group([2, 2]),
               G.symmetric_group(3), G.dihedral_group(4), G.cyclic_group(6)]:
        A = H.group_algebra(Gx, 2)
        cok = H.coker_one_plus_vartheta(A)
        els = Gx.elements()
        idx = {g: i for i, g in enumerate(els)}
        invs = Gx.involutions()
        for _ in range(60):
            pairs = [tuple(rng.choice(invs) for _ in range(2))
                     for _ in range(rng.randint(1, 3))]
            e = arf.ArfExpression(arf.GROUP, Gx, pairs)
            group_zero = ups.upsilon_eval(e).is_zero()
            hom_val = cok.upsilon_expression(
                [(A.basis_vec(idx[a]), A.basis_vec(idx[b]))
                 for a, b in e.pairs])
            assert group_zero == all(c == 0 for c in hom_val), (Gx.name, pairs)


def large_j_groups():
    """Groups whose value group J(G) has dimension 3 or 4, where a wrong
    arrow or relation family has room to show: S3 x S3 and D5 x S3 (J 4),
    A5 as a permutation group and C3^2 x| C4 in S6 (J 3)."""
    S3 = G.symmetric_group(3)
    return {"S3xS3": (G.direct_product(S3, S3), 4),
            "D5xS3": (G.direct_product(G.dihedral_group(5), S3), 4),
            "A5": (G.FinitePermGroup([(1, 2, 0, 3, 4), (1, 2, 3, 4, 0)], 5, name="A5"), 3),
            # generated by (0 1 2), (3 4 5) and (0 3 1 4)(2 5)
            "C3^2:C4": (G.FinitePermGroup([(1, 2, 0, 3, 4, 5), (0, 1, 2, 4, 5, 3),
                                           (3, 4, 5, 1, 0, 2)], 6, name="C3^2:C4"), 3)}


@functools.lru_cache(maxsize=None)
def past_order_100():
    """(group, J, F_2[G]) for D9 x S3 (J 6), S5 (J 3) and S3^3 (J 8, order
    216), built once per test run: the J test and the centralizer test of
    test_homology share the algebras."""
    S3 = G.symmetric_group(3)
    groups = [(G.direct_product(G.dihedral_group(9), S3), 6), (G.symmetric_group(5), 3),
              (G.direct_product(G.direct_product(S3, S3), S3), 8)]
    return [(Gx, j, H.group_algebra(Gx, 2)) for Gx, j in groups]


def test_j_builds_f_of_the_class_representatives_only():
    """After J(G) the group's F(z) table holds the least element of each
    conjugacy class only (S5: 7 of 120, S3^3: 27 of 216), and inserting at
    every member, which lays out each L(c), builds no more."""
    S3 = G.symmetric_group(3)
    for Gx, classes in [(G.symmetric_group(5), 7),
                        (G.direct_product(G.direct_product(S3, S3), S3), 27)]:
        ups.j_group_dimension(Gx)
        table = derived(Gx, "fz", dict)
        reps = {min(cl, key=Gx.key) for cl in gst.conjugacy_classes(Gx)}
        assert set(table) == reps and len(reps) == classes, Gx.name
        for part in gcl.cl_partition_finite(Gx):
            lc = ups.l_of_class(Gx, min(part, key=Gx.key))
            for z in part:
                lc.insert_entry(Gx, z, Gx.identity)
        assert set(table) == reps, Gx.name


def test_a_type_3_element_shares_the_f_of_its_inverse():
    """A finite L(c) reads F(r^-1) for a type-3 representative r whose
    inverse has the lower key, and F(r) for every other r.  F(r^-1) has
    the K_#, the quotient dimension and the residues of F(r) (fz_data, a
    build of r's own), on the catalogue and the J >= 3 groups."""
    shared = 0
    for Gx in G.groups_upto(16) + [Gx for Gx, _ in large_j_groups().values()]:
        for part in gcl.cl_partition_finite(Gx):
            lc = ups.l_of_class(Gx, min(part, key=Gx.key))
            for r, (_, fz, _) in lc._classes.items():
                ri = Gx.inv(r)
                if gst.type_of(Gx, r) != 3 or Gx.key(r) < Gx.key(ri):
                    assert fz is ups.fz_data(Gx, r), (Gx.name, r)
                    continue
                shared += 1
                own = ups.fz_data(Gx, r)
                assert fz is ups.fz_data(Gx, ri) and (fz.z, own.z) == (ri, r), (Gx.name, r)
                assert fz.sharp is own.sharp and fz.w == own.w, (Gx.name, r)
                assert own.roots == tuple(sorted(map(Gx.inv, fz.roots), key=Gx.key)), (Gx.name, r)
                assert (fz.dim, fz.context.quotient_dim) == \
                    (own.dim, own.context.quotient_dim), (Gx.name, r)
                for h in fz.sharp.elements:
                    assert fz.context.reduce_packed(fz.bits(h)) == \
                        own.context.reduce_packed(own.bits(h)), (Gx.name, r, h)
    assert shared == 92, shared


def test_upsilon_value_ranks_match_homology_model():
    """Upsilon of every involution pair as a vector in J(G) (the L(c)
    payloads side by side, in part order) and in Coker(1 + vartheta).  The
    pairs span the whole value group, and the two matrices and their
    side-by-side stack have one rank: the two models give the pairs the
    same linear relations."""
    groups = large_j_groups()
    for name in ("S3xS3", "A5", "C3^2:C4"):
        Gx, j = groups[name]
        A = H.group_algebra(Gx, 2)
        cok = H.coker_one_plus_vartheta(A)
        idx = {g: i for i, g in enumerate(Gx.elements())}
        lcs = [ups.l_of_class(Gx, min(part, key=Gx.key))
               for part in gcl.cl_partition_finite(Gx)]
        width = sum(lc.ambient for lc in lcs)
        j_rows, cok_rows, stack = [], [], []
        for a, b in itertools.product(Gx.involutions(), repeat=2):
            parts = ups.upsilon_eval(arf.ArfExpression(arf.GROUP, Gx, [(a, b)])).parts
            in_j = fp.pack([c for lc in lcs
                            for c in (parts[lc][1] if lc in parts else (0,) * lc.ambient)])
            in_cok = fp.pack(cok.upsilon_pair(A.basis_vec(idx[a]), A.basis_vec(idx[b])))
            j_rows.append(in_j)
            cok_rows.append(in_cok)
            stack.append(in_j | in_cok << width)
        ranks = [fp.Subspace(dim, 2, rows).rank for dim, rows in
                 ((width, j_rows), (cok.hq.ambient_dim, cok_rows),
                  (width + cok.hq.ambient_dim, stack))]
        assert ranks == [j] * 3 and cok.dim == j, (name, ranks)


def test_j_dimension_matches_homology():
    # two independently built models of the value group must agree, on the
    # hand-picked groups (J up to 4, S3 x S3 x C2 past order 64, D5 x D5
    # (J 5) and S4 x S3 (J 4, order 144), and past order 100 D9 x S3 (J 6),
    # S5 (J 3) and S3^3 (J 8, order 216)) and on the whole catalogue up to
    # order 16
    S3 = G.symmetric_group(3)
    past_64 = G.direct_product(G.direct_product(S3, S3), G.cyclic_group(2))
    d5xd5 = G.direct_product(G.dihedral_group(5), G.dihedral_group(5))
    s4xs3 = G.direct_product(G.symmetric_group(4), S3)
    for Gx, j in list(large_j_groups().values()) + [(past_64, 4), (d5xd5, 5), (s4xs3, 4)]:
        assert ups.j_group_dimension(Gx) == j, Gx.name
        assert H.coker_one_plus_vartheta(H.group_algebra(Gx, 2)).dim == j, Gx.name
    for Gx, j, A in past_order_100():
        assert ups.j_group_dimension(Gx) == j, Gx.name
        assert H.coker_one_plus_vartheta(A).dim == j, Gx.name
    for Gx in [G.cyclic_group(1), G.cyclic_group(2), G.cyclic_group(3),
               G.cyclic_group(4), G.abelian_group([2, 2]),
               G.symmetric_group(3), G.dihedral_group(4), G.cyclic_group(6),
               G.metacyclic_group(4, 2, 3, 2, name="Q8"), G.cyclic_group(18),
               G.dihedral_group(10), G.symmetric_group(4), G.builtin_group("ch1-order24"),
               G.direct_product(G.alternating_group_4(), G.cyclic_group(2)),
               G.cyclic_group(32), G.dihedral_group(24),
               G.direct_product(G.cyclic_group(2), G.symmetric_group(4)),
               G.dihedral_group(32), G.abelian_group([2] * 6)] + G.groups_upto(16):
        A = H.group_algebra(Gx, 2)
        assert ups.j_group_dimension(Gx) == H.coker_one_plus_vartheta(A).dim, Gx.name


def _pair_values(rng, Gx):
    """Zero, the Upsilon images of up to 24 pairs of (window) involutions,
    and the sums of neighbouring ones."""
    invs = Gx.involutions() if Gx.is_finite else Gx.involutions(window=2)
    pairs = list(itertools.product(invs, repeat=2))
    pairs = rng.sample(pairs, min(len(pairs), 24))
    singles = [ups.upsilon_eval(arf.ArfExpression(arf.GROUP, Gx, [p])) for p in pairs]
    return [ups.JValue(Gx)] + singles + [a + b for a, b in zip(singles, singles[1:])]


def test_equality_is_the_vanishing_of_the_sum():
    """`JValue.__eq__` compares the summands in place; on the images of
    window involution pairs, their sums and zero, it agrees with building
    the sum and testing it (reference), on the catalogue, the order-24
    group and the lattice and two-ends built-ins."""
    rng = random.Random(30)
    groups = G.groups_upto(16) + [G.group_order24()]
    groups += [G.builtin_group(n) for n in ("ch2-plane", "ch4-xyz", "ch1-c-by-d4",
                                            "ch1-c2-c-c12", "pb-cyclic-c4")]
    seen = set()
    for Gx in groups:
        values = _pair_values(rng, Gx)
        for a, b in itertools.product(values, repeat=2):
            want = (a + b).is_zero()
            assert (a == b) is want and (a != b) is not want, Gx.name
            seen.add((Gx.is_finite, want))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_values_over_different_descriptors_are_not_equal():
    # values over distinct descriptors compare unequal, as KGClass declines
    # to compare them: two zeros over C2 and C3, and the images of one pair
    # over two copies of ch2-plane
    C2, C3 = G.cyclic_group(2), G.cyclic_group(3)
    assert ups.JValue(C2) != ups.JValue(C3)
    assert ups.JValue(C2) == ups.JValue(C2)
    planes = [G.builtin_group("ch2-plane") for _ in range(2)]
    e = [ups.upsilon_eval(arf.parse_expression(arf.GROUP, P, "<S, S*X>")) for P in planes]
    assert e[0] != e[1] and e[0] == e[0]
    assert ups.JValue(C2) != 0


def test_pullback_insert_positions_consistent(groupB):
    # the same colimit element reached through different chain positions:
    # one packed residue, so the two payloads are equal and add to zero
    z = groupB.parse_element("X^2*Y^2")
    lc = ups.l_of_class(groupB, z)
    h = groupB.parse_element("S*X^2*Y^2")
    z2 = groupB.mul(z, z)
    e1 = lc.insert_entry(groupB, z, h)
    e2 = lc.insert_entry(groupB, z2, h)   # arrow image of the same generator
    assert type(e1) is type(e2) is int and e1 == e2
    assert lc.resolve(lc.combine(e1, e2)) is None


def _dense_columns(Gx, src, dst, x):
    """Tuple columns of the arrow F(z) -> F(z') induced by conjugation by
    x, or of the squaring arrow when x is None: the dense arrow columns
    that came before the packed ones (reference)."""
    cols = []
    for i in range(src.dim):
        if i == src.sharp.dim:
            cols.append(fp.unit(dst.dim, dst.dim - 1))
            continue
        g = src.sharp.elements[i]
        if x is None:
            bits = dst.bits(g, src.w[i] if dst.has_t else 0)
        else:
            bits = dst.bits(Gx.conj(g, x))
        cols.append(fp.unpack(bits, dst.dim))
    return cols


def _dense_apply(cols, vec, width):
    """The tuple image of vec under the arrow with tuple columns `cols`."""
    out = fp.zeros(width)
    for c, col in zip(vec, cols):
        if c % 2:
            out = fp.add_vec(out, col)
    return out


def _dense_step(Gx, vec, cur, nxt, by):
    return _dense_apply(_dense_columns(Gx, cur, nxt, by), vec, nxt.dim)


def _position(Gx, lc, k):
    """F(z0^(2^k)) at chain position k, built afresh from the base point z0,
    so that k may lie past the end of `lc.chain` (reference)."""
    return ups.fz_data(Gx, Gx.power(lc.zs[0], 1 << k))


def _dense_push(Gx, lc, vec, pos, top):
    """vec at chain position pos pushed along the chain maps to top."""
    while pos < top:
        vec = _dense_step(Gx, vec, _position(Gx, lc, pos), _position(Gx, lc, pos + 1), None)
        pos += 1
    return vec


def _ride_back(Gx, lc, vec, pos):
    """vec at chain position pos of a cyclic chain carried on around the
    cycle to the stable point."""
    vec = _dense_push(Gx, lc, vec, pos, len(lc.chain) - 1)
    # the square of the chain's last element closes the cycle onto the
    # stable point by a conjugation
    last = lc.zs[-1]
    sq = ups.fz_data(Gx, Gx.mul(last, last))
    vec = _dense_step(Gx, vec, lc.chain[-1], sq, None)
    return _dense_step(Gx, vec, sq, lc.chain[lc.stable],
                       gcl.conj_witness(Gx, sq.z, lc.zs[lc.stable]))


def _walked_entry(Gx, lc, z, h, tbit):
    """(position, vector) of an F(z)-generator walked one dense arrow at a
    time: the power/conjugacy search over the chain, the squarings, the
    conjugation, then the chain maps up to the stable point or around the
    cycle, each written afresh from the chain's F data.  A hit past the
    stable point of a non-cyclic chain stays where it is, as it did when
    payloads were lists of such entries (reference).  The search runs over
    the squares that `PullbackLc._walk` reads, `chain_reach` of them on a
    non-cyclic chain."""
    src = ups.fz_data(Gx, z)
    vec = fp.unpack(src.bits(h, tbit), src.dim)
    reach = 0 if lc.cyclic else gcl.chain_reach(Gx, z, lc.zs[0])
    targets = [Gx.power(lc.zs[0], 1 << k) for k in range(max(len(lc.zs), reach))]
    a, j, x, _ = gcl.power_conj_search(Gx, z, targets)
    cur = src
    for _ in range(a):
        nxt = ups.fz_data(Gx, Gx.mul(cur.z, cur.z))
        vec = _dense_step(Gx, vec, cur, nxt, None)
        cur = nxt
    vec = _dense_step(Gx, vec, cur, _position(Gx, lc, j), x)
    if j <= lc.stable:
        return (lc.stable, _dense_push(Gx, lc, vec, j, lc.stable))
    if lc.cyclic:
        return (lc.stable, _ride_back(Gx, lc, vec, j))
    return (j, vec)


@functools.lru_cache(maxsize=None)
def _reference_context(Gx, lc, pos):
    """F at chain position pos as a quotient, with the rows u + loop(u) of
    the loop map when the chain is cyclic (reference)."""
    context = _position(Gx, lc, pos).context
    if not lc.cyclic:
        return context
    dim = _position(Gx, lc, pos).dim
    return context.extended(
        [fp.pack(fp.add_vec(fp.unit(dim, i), _ride_back(Gx, lc, fp.unit(dim, i), pos)))
         for i in range(dim)])


def _pushed_value(Gx, lc, walked):
    """The value of a sum of walked entries as `PullbackLc.resolve` found it
    when it pushed: every entry pushed along the chain maps to the deepest
    position, added there, and reduced modulo F there; None when zero
    (reference)."""
    top = max(pos for pos, _ in walked)
    dim = _position(Gx, lc, top).dim
    acc = fp.zeros(dim)
    for pos, vec in walked:
        acc = fp.add_vec(acc, _dense_push(Gx, lc, vec, pos, top))
    red = _reference_context(Gx, lc, top).reduce_packed(fp.pack(acc))
    return fp.unpack(red, dim) if red else None


def _z_times_c7():
    """Z x C7: squaring permutes the classes of C7 in a 3-cycle, so deep
    chain positions ride the cycle back to the base point."""
    return G.PullbackCyclicGroup(G.cyclic_group(7), 1, [0] * 7, name="ZxC7")


TWO_ENDS = [G.group_c2_c_c12, G.group_c_by_d4, G.pullback_cyclic_example, _z_times_c7]


def _generators(Gx, z):
    """(h, tbit) of every generator of F(z)."""
    fz = ups.fz_data(Gx, z)
    return [(h, tbit) for h in fz.sharp.elements
            for tbit in ((0, 1) if fz.has_t else (0,))]


@pytest.mark.parametrize("make", TWO_ENDS)
def test_transport_table_matches_the_walk(make, monkeypatch):
    Gx = make()
    searched = []
    real = gcl.power_conj_search
    monkeypatch.setattr(gcl, "power_conj_search",
                        lambda G_, z, targets: searched.append(z) or real(G_, z, targets))
    zs = Gx.window_elements(3)
    entries = {}
    for z in zs:
        lc = ups.l_of_class(Gx, z)
        for h, tbit in _generators(Gx, z):
            entries[z, h, tbit] = lc.insert_entry(Gx, z, h, tbit)
    # one search per distinct z, however many generators it inserts
    assert sorted(searched) == sorted(set(zs))
    monkeypatch.undo()
    for (z, h, tbit), entry in entries.items():
        lc = ups.l_of_class(Gx, z)
        pos, vec = _walked_entry(Gx, lc, z, h, tbit)
        # the packed transport gives the residue of the dense walk's
        # vector, bit for bit, and that vector lies in F(chain[stable])
        assert len(vec) == lc.width, (Gx.name, z, h, tbit)
        assert entry == lc.context.reduce_packed(fp.pack(vec)), (Gx.name, z, h, tbit)
        assert lc.resolve(entry) == _pushed_value(Gx, lc, [(pos, vec)])
        assert lc.resolve(lc.combine(entry, entry)) is None


def _two_ends_queries(Gx):
    """{summand: [(payload, walked entry)]} over the generators of F(z) for
    z in the window of exponent 3 and for the deep squares z0^(2^k),
    k <= 8, of each summand's base point z0.  The window is walked in
    reverse, so the summands are anchored at other members than in
    `test_transport_table_matches_the_walk`, some of them on cyclic chains
    that re-enter past position 0."""
    out = {}

    def insert(z):
        lc = ups.l_of_class(Gx, z)
        for h, tbit in _generators(Gx, z):
            out.setdefault(lc, []).append(
                (lc.insert_entry(Gx, z, h, tbit), _walked_entry(Gx, lc, z, h, tbit)))
        return lc

    bases = {insert(z).zs[0] for z in Gx.window_elements(3)[::-1]}
    for z0 in bases:
        for k in range(9):
            insert(Gx.power(z0, 1 << k))
    return out


def test_transport_matches_the_walk_on_more_pullbacks():
    """The packed transport against the dense walk on the pull-backs of
    `tests/test_groups.py`, with the window walked in reverse
    (`_two_ends_queries`).  There two summands are anchored at an element
    of order 4 and type 2 whose square is of type 1, so a hit before
    `stable` crosses a squaring map that sets the t bit by w."""
    # imported here: test_groups imports this module through test_homology
    from test_groups import _more_pullbacks, _two_ends_groups
    crossed = 0
    for Gx in _two_ends_groups() + _more_pullbacks():
        for lc, items in _two_ends_queries(Gx).items():
            crossed += lc.cyclic and lc.stable > 0 and lc.chain[lc.stable].has_t \
                and not lc.chain[0].has_t
            for entry, (pos, vec) in items:
                assert len(vec) == lc.width, Gx.name
                assert entry == lc.context.reduce_packed(fp.pack(vec)), (Gx.name, lc.zs[0])
                assert lc.resolve(entry) == _pushed_value(Gx, lc, [(pos, vec)]), Gx.name
    assert crossed >= 2


@pytest.mark.parametrize("make", TWO_ENDS)
def test_resolve_agrees_with_the_push(make):
    """Sums of payloads resolve to the value that pushing their walked
    entries to the deepest one and reducing there gives."""
    Gx = make()
    rng = random.Random(27)
    deep = 0
    for lc, items in _two_ends_queries(Gx).items():
        deep += any(pos > lc.stable for _, (pos, _) in items)
        for _ in range(20):
            picked = rng.sample(items, min(len(items), rng.randint(1, 4)))
            total = functools.reduce(lc.combine, (p for p, _ in picked))
            assert lc.resolve(total) == _pushed_value(Gx, lc, [w for _, w in picked]), Gx.name
    # some summands have entries past the stable point, where the push
    # did its work
    assert deep, Gx.name


@pytest.mark.parametrize("make", TWO_ENDS)
def test_chain_maps_past_the_stable_point_are_the_identity(make):
    """On a non-cyclic chain, F(z0^(2^t)) for stable <= t <= stable + 10 has
    the coordinates and the residues of F(chain[stable]), and the squaring
    map between two of them has unit columns (proof in `PullbackLc`).  The
    positions past the chain are built afresh (`_position`)."""
    Gx = make()
    lcs = {ups.l_of_class(Gx, z) for z in Gx.window_elements(3)}
    seen = 0
    for lc in lcs:
        if lc.cyclic:
            continue
        seen += 1
        base = lc.chain[lc.stable]
        units = [1 << i for i in range(lc.width)]
        residues = [lc.context.reduce_packed(u) for u in units]
        for t in range(lc.stable, lc.stable + 11):
            fz = _position(Gx, lc, t)
            assert fz.sharp.elements == base.sharp.elements, (Gx.name, t)
            assert ups._square_matrix(fz, _position(Gx, lc, t + 1)) == units, (Gx.name, t)
            assert [fz.context.reduce_packed(u) for u in units] == residues, (Gx.name, t)
    assert seen, Gx.name


def test_chain_maps_around_a_cycle_are_the_identity():
    """On a cyclic chain, every position from `stable` on has the
    coordinates and the residues of F(chain[stable]), every squaring map
    from there (into the square that closes the cycle too) has unit
    columns, and riding a unit vector on around the cycle (`_ride_back`)
    changes it by a loop row only (proof in `PullbackLc`)."""
    past = 0
    for make in TWO_ENDS:
        Gx = make()
        for lc in {ups.l_of_class(Gx, z) for z in Gx.window_elements(3)}:
            if not lc.cyclic:
                continue
            base = lc.chain[lc.stable]
            units = [1 << i for i in range(lc.width)]
            residues = [base.context.reduce_packed(u) for u in units]
            for t in range(lc.stable, len(lc.chain)):
                fz = lc.chain[t]
                assert fz.sharp.elements == base.sharp.elements, (Gx.name, t)
                assert lc.maps[t] == units, (Gx.name, t)
                assert [fz.context.reduce_packed(u) for u in units] == residues, (Gx.name, t)
                for i, u in enumerate(units):
                    ridden = fp.pack(_ride_back(Gx, lc, fp.unit(lc.width, i), t))
                    assert lc.context.reduce_packed(ridden) == \
                        lc.context.reduce_packed(u), (Gx.name, t, i)
                past += t > lc.stable
    # Z x C7 re-enters its 3-cycle at position 0
    assert past == 2


def _reference_is_iso(lc, t):
    """Whether maps[t]: F(chain[t]) -> F(chain[t + 1]) is an isomorphism, by
    equal quotient dimensions and the rank of its columns in the target:
    the test `PullbackLc` ran before the proof in its docstring showed the
    rank to follow from the dimensions (reference)."""
    src, dst = lc.chain[t], lc.chain[t + 1]
    if src.context.quotient_dim != dst.context.quotient_dim:
        return False
    return len(dst.context.independent(lc.maps[t])) == src.context.quotient_dim


def test_chain_maps_from_the_preperiod_on_are_isomorphisms():
    """On every non-cyclic chain, every squaring map from position pre on
    passes the deleted rank test, so equal dimensions alone fix `stable`."""
    # imported here: test_groups imports this module through test_homology
    from test_groups import _more_pullbacks, _two_ends_groups
    for Gx in [make() for make in TWO_ENDS] + _two_ends_groups() + _more_pullbacks():
        pre = gcl.squaring_preperiod(Gx.E)[0]
        seen = 0
        for lc in {ups.l_of_class(Gx, z) for z in Gx.window_elements(3)}:
            if lc.cyclic:
                continue
            seen += 1
            assert len(lc.maps) == len(lc.chain) - 1 > pre + 2, Gx.name
            for t in range(pre, len(lc.maps)):
                assert _reference_is_iso(lc, t), (Gx.name, lc.zs[0], t)
        assert seen, Gx.name


def _queried_history(make, order):
    """(state of every summand as built, its state after the queries, every
    payload) on a fresh descriptor, the state being (zs, stable, width, dim).
    The queries insert every generator of F(z) for z in the window of
    exponent 3 and in the deep squares z0^(2^k), 4 <= k < 12, of each base
    point z0 (as `test_memo._deep_queries`): the window first ("forward"),
    that list backwards ("reversed"), or the deep squares first, deepest
    first ("deep").  Each summand is anchored at the first window member
    of its class before any query, so the three orders share base points."""
    Gx = make()
    window = Gx.window_elements(3)
    lcs = {}
    for z in window:
        lc = ups.l_of_class(Gx, z)
        lcs.setdefault(lc.zs[0], lc)

    def state():
        return {z0: (tuple(lc.zs), lc.stable, lc.width, lc.dim) for z0, lc in lcs.items()}

    built = state()
    deep = [Gx.power(z0, 1 << k) for k in range(11, 3, -1) for z0 in lcs]
    queries = {"forward": window + deep[::-1], "reversed": (window + deep[::-1])[::-1],
               "deep": deep + window}[order]
    payloads = {}
    for z in queries:
        lc = ups.l_of_class(Gx, z)
        for h, tbit in _generators(Gx, z):
            payloads[z, h, tbit] = lc.insert_entry(Gx, z, h, tbit)
    return built, state(), payloads


@pytest.mark.parametrize("make", TWO_ENDS)
def test_two_ends_chains_and_payloads_do_not_depend_on_query_history(make):
    """Queries leave every chain as `__init__` built it, and three query
    orders give the same chains and payloads."""
    runs = [_queried_history(make, order) for order in ("forward", "reversed", "deep")]
    for built, after, _ in runs:
        assert after == built
    assert runs[1] == runs[0] and runs[2] == runs[0]


def _warmed_distinctions(name, reverse):
    """The witness and the difference display of every Distinct pair of 12
    seeded expressions on a fresh built-in whose window of exponent 3 was
    first walked forward, or in reverse: each two-ends summand is anchored
    at the first element of its class that the walk meets."""
    Gx = G.builtin_group(name)
    zs = Gx.window_elements(3)
    for z in zs[::-1] if reverse else zs:
        ups.l_of_class(Gx, z).insert_entry(Gx, z, Gx.identity)
    rng = random.Random(27)
    invs = Gx.involutions(window=2)
    exprs = [arf.ArfExpression(arf.GROUP, Gx, [(rng.choice(invs), rng.choice(invs))
                                              for _ in range(rng.randint(1, 3))])
             for _ in range(12)]
    out = []
    for e1, e2 in itertools.combinations(exprs, 2):
        r = ups.upsilon_distinguish(e1, e2)
        if r.verdict == "Distinct":
            shown = (ups.upsilon_eval(e1) + ups.upsilon_eval(e2)).display()
            out.append(f"{Gx.format_element(r.witness[0])} {r.witness[1]!r} {shown}")
    return out


@pytest.mark.parametrize("name", ["ch1-c2-c-c12", "ch1-c-by-d4", "pb-cyclic-c4"])
def test_two_ends_witness_does_not_depend_on_query_history(name):
    """Summands anchored at other members of their classes give the same
    witnesses and displays, byte for byte."""
    forward = _warmed_distinctions(name, False)
    assert len(forward) >= 20, name
    assert _warmed_distinctions(name, True) == forward


def test_chain_positions_share_one_sharp_per_e_member_set(monkeypatch):
    calls = Counter()
    real = gst.sharp_of_pullback

    def counting(sub):
        calls[sub.e_members] += 1
        return real(sub)

    monkeypatch.setattr(gst, "sharp_of_pullback", counting)
    Gx = G.group_c2_c_c12()     # fresh, so every K_# is built here
    lcs = [ups.l_of_class(Gx, Gx.parse_element(w)) for w in ("X", "X*Y", "Y", "X^2*Y^3")]
    assert len(calls) == 2 and set(calls.values()) == {1}, calls
    # every position of the infinite-order chain of X reads one K_#
    chain = lcs[0].chain
    assert len(chain) == 7 and len({id(fz.sharp) for fz in chain}) == 1
    pool = Gx.window_elements(2)
    for fz in (fz for lc in lcs for fz in lc.chain):
        sub = (gst.extended_centralizer if fz.type == 2 else gst.centralizer)(Gx, fz.z)
        if sub.kind != "pullback":
            continue
        fresh = real(sub)
        assert (fz.sharp.elements, fz.sharp.forms, fz.sharp.width, fz.sharp.constraints) == \
            (fresh.elements, fresh.forms, fresh.width, fresh.constraints), fz.z
        members = [g for g in pool if g in sub]
        assert len(members) > len(sub.e_members)
        assert [fz.sharp.bits(g) for g in members] == [fresh.bits(g) for g in members]


def test_pullback_lc_stable_and_cyclic(groupB):
    # infinite-order tail (stable case)
    z = groupB.parse_element("X^2*Y^2")
    lc = ups.l_of_class(groupB, z)
    assert lc.dim == 1
    # finite-order tail (cycle case)
    z2 = groupB.parse_element("Y^2")
    lc2 = ups.l_of_class(groupB, z2)
    assert ups.l_of_class(groupB, groupB.parse_element("Y^4")) is lc2
    h1 = groupB.parse_element("S*Y^2")
    h2 = groupB.parse_element("S*X*Y^2")
    v1 = lc2.resolve(lc2.insert_entry(groupB, z2, h1))
    v2 = lc2.resolve(lc2.insert_entry(groupB, z2, h2))
    assert v1 != v2     # [S] vs [S + X] stay distinct in L([Y^2])


def test_c_by_d4_basis_claims():
    # classes: {[1]} and the pairwise-distinct [Y^(2i+1)]; the listed
    # generators have independent Upsilon images
    C = G.group_c_by_d4()
    Y, S = C.parse_element("Y"), C.parse_element("S")
    assert gcl.same_class(C, Y, C.power(Y, 2))
    assert not gcl.same_class(C, Y, C.identity)
    assert not gcl.same_class(C, Y, C.power(Y, 3))
    assert gcl.same_class(C, C.power(Y, 3), C.power(Y, 6))
    assert gcl.same_class(C, C.identity, S)
    vals = [ups.upsilon_eval(arf.parse_expression(arf.GROUP, C, "<1,1>"))]
    for i in (1, 2, 3):
        e = arf.ArfExpression(arf.GROUP, C,
                              [(C.mul(C.power(Y, 4 * i + 2), S), S)])
        vals.append(ups.upsilon_eval(e))
    for v in vals:
        assert not v.is_zero()
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            assert not (vals[i] == vals[j])
    e1 = arf.parse_expression(arf.GROUP, C, "<Y^4*S, S>")
    e2 = arf.parse_expression(arf.GROUP, C, "<Y^2*S, S>")
    assert ups.upsilon_distinguish(e1, e2).same_image
    e3 = arf.parse_expression(arf.GROUP, C, "<Y^6*S, S>")
    assert ups.upsilon_distinguish(e3, e2).verdict == "Distinct"


def test_unknown_for_window_only():
    # a descriptor with no exact class machinery yields Unknown
    P = G.SemidirectZnC2(2)
    e1 = arf.parse_expression(arf.GROUP, P, "<S, S>")

    class Opaque(G.SemidirectZnC2):
        family = "opaque"

    Q = Opaque(2)
    f = arf.ArfExpression(arf.GROUP, Q, [(Q.identity, Q.identity)])
    r = ups.upsilon_distinguish(f, f)
    assert r.verdict == "Unknown"


@functools.lru_cache(maxsize=None)
def _value_battery():
    """Upsilon displays, verdicts, witnesses and transcripts at a fixed query
    order, on fresh descriptors: the catalogue up to order 16, the order-24
    group, S4 and the five infinite built-ins.  Built once per test run:
    the records, and the group and the two pair lists of each Distinct
    verdict."""
    rng = random.Random(2026)
    groups = G.groups_upto(16) + [G.group_order24(), G.symmetric_group(4)]
    groups += [G.builtin_group(n) for n in ("ch1-c-by-d4", "ch1-c2-c-c12",
                                            "ch2-plane", "ch4-xyz", "pb-cyclic-c4")]
    out, distinct = [], []
    for Gx in groups:
        fmt = Gx.format_element
        if Gx.is_finite:
            for part in gcl.cl_partition_finite(Gx):
                zs = sorted(part, key=Gx.key)
                for z in dict.fromkeys((zs[0], zs[-1])):
                    fz = ups.fz_data(Gx, z)
                    singles = []
                    for h in fz.sharp.elements:
                        v = ups.JValue(Gx)
                        v.add_insert(z, h)
                        singles.append(v)
                    if fz.has_t:
                        v = ups.JValue(Gx)
                        v.add_insert(z, None, 1)
                        singles.append(v)
                    total = ups.JValue(Gx)
                    for v in singles:
                        total = total + v
                        out.append(f"{Gx.name} [{fmt(z)}] {v.display()} | {total.display()}")
        invs = Gx.involutions() if Gx.is_finite else Gx.involutions(window=2)
        exprs = []
        for _ in range(10):
            pairs = [(rng.choice(invs), rng.choice(invs)) for _ in range(rng.randint(1, 3))]
            e = arf.ArfExpression(arf.GROUP, Gx, pairs)
            v = ups.upsilon_eval(e)
            exprs.append((e, pairs))
            out.append(f"{Gx.name} {e.display()} -> {v.display()} {v.is_zero()}")
        for (e1, p1), (e2, p2) in itertools.combinations(exprs, 2):
            r = ups.upsilon_distinguish(e1, e2)
            if r.verdict == "Distinct":
                distinct.append((Gx, p1, p2))
            w = r.witness
            if w is not None and w[0] != "omega":
                w = (fmt(w[0]), w[1])
            out.append(f"{Gx.name} {e1.display()} ~ {e2.display()}: {r.verdict} "
                       f"{w!r} {r.transcript!r} {r.same_image}")
    return out, distinct


def test_value_battery_is_pinned():
    # every display, verdict, witness and transcript must keep the digest;
    # witnesses and display orders follow the least class representative,
    # and a two-ends witness value is a plain tuple
    records, _ = _value_battery()
    assert len(records) == 4103
    digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
    assert digest == "26aeac9dfd8cf24fbbaca98b4bf24a02f8587b5a5838e17a3c3eddf33cca77cc"


def _check_witness(Gx, p1, p2):
    """The Distinct witness of two pair lists names the first summand that
    the difference of their images displays, and neither changes when each
    list is passed in reverse order."""
    def run(a, b):
        e1, e2 = (arf.ArfExpression(arf.GROUP, Gx, p) for p in (a, b))
        diff = ups.upsilon_eval(e1) + ups.upsilon_eval(e2)
        return ups.upsilon_distinguish(e1, e2), diff.display()

    r, shown = run(p1, p2)
    assert r.verdict == "Distinct", Gx.name
    assert shown.startswith(f"L([{Gx.format_element(r.witness[0])}]): "), (Gx.name, shown)
    back, back_shown = run(p1[::-1], p2[::-1])
    assert (back.witness, back_shown) == (r.witness, shown), Gx.name


def test_distinguish_witness_is_the_first_summand_shown():
    """On the value battery's Distinct verdicts and on a relabelled copy of
    each random-battery group, the witness is the summand of least class
    representative, whatever order the pairs come in."""
    _, distinct = _value_battery()
    for Gx, p1, p2 in distinct:
        _check_witness(Gx, p1, p2)
    rng = random.Random(25)
    groups, _, large = battery_draws()
    seen = 0
    for Gx in groups + large:
        Rx, _ = _relabelled(rng, Gx)
        exprs = _random_expressions(rng, Rx, 4)
        for p1, p2 in zip(exprs, exprs[1:]):
            e1, e2 = (arf.ArfExpression(arf.GROUP, Rx, p) for p in (p1, p2))
            if ups.upsilon_distinguish(e1, e2).verdict == "Distinct":
                _check_witness(Rx, p1, p2)
                seen += 1
    assert seen >= 100


# ---------------------------------------------------------------------------
# refusals of the summands and of Upsilon


def test_a_t_bit_needs_a_t_coordinate():
    # a 3-cycle of S3 and an element of type 2 on a two-ends group have no
    # t column in F(z)
    S3 = G.symmetric_group(3)
    Gx = G.group_c2_c_c12()
    z = next(z for z in Gx.window_elements(1) if gst.type_of(Gx, z) == 2)
    for K, w in [(S3, S3.parse_element("c")), (Gx, z)]:
        with pytest.raises(ArfError, match=r"^no t coordinate on this summand$"):
            ups.JValue(K).add_insert(w, tbit=1)


def test_a_generator_outside_the_subgroup_is_refused():
    S3 = G.symmetric_group(3)
    z = next(g for g in S3.elements() if gst.type_of(S3, g) == 1 and g != S3.identity)
    h = next(g for g in S3.elements() if S3.mul(g, z) != S3.mul(z, g))
    with pytest.raises(GroupError, match=r"^element outside subgroup$"):
        ups.JValue(S3).add_insert(z, h)


def test_a_summand_whose_group_is_gone_cannot_lay_out_its_members():
    Gx = G.symmetric_group(3)
    lc = ups.l_of_class(Gx, Gx.identity)
    ref = weakref.ref(Gx)
    del Gx
    gc.collect()
    assert ref() is None
    with pytest.raises(ArfError, match=r"^the group of this summand is gone$"):
        lc.context


def test_a_chain_that_does_not_settle_is_unknown(monkeypatch):
    # 3 positions are too few for the infinite-order chain of X^2, which
    # settles at 7
    monkeypatch.setattr(ups.PullbackLc, "MAX_CHAIN", 3)
    Gx = G.group_c2_c_c12()
    X2, S = Gx.parse_element("X^2"), Gx.parse_element("S")
    with pytest.raises(ups.UpsilonUnknown, match=r"^squaring chain failed to stabilize$"):
        ups.l_of_class(Gx, X2)
    e1 = arf.ArfExpression(arf.GROUP, Gx, [(Gx.mul(X2, S), S)])
    r = ups.upsilon_distinguish(e1, arf.ArfExpression(arf.GROUP, Gx, [(S, S)]))
    assert r.verdict == "Unknown" and r.transcript == ["squaring chain failed to stabilize"]


def test_a_two_ends_summand_refuses_an_element_of_another_class():
    Gx = G.group_c2_c_c12()
    lc = ups.l_of_class(Gx, Gx.parse_element("X"))
    with pytest.raises(ArfError, match=r"^element class does not match this summand$"):
        lc.insert_entry(Gx, Gx.identity, Gx.identity)


def test_upsilon_refuses_ring_pairs_and_mixed_descriptors():
    e = arf.parse_expression(arf.RING, R.IntegerRing(-1), "<2, -3>")
    with pytest.raises(ArfError, match=r"^Upsilon expects group pairs$"):
        ups.upsilon_eval(e)
    planes = [G.builtin_group("ch2-plane") for _ in range(2)]
    e1, e2 = (arf.parse_expression(arf.GROUP, P, "<S, S*X>") for P in planes)
    with pytest.raises(ArfError, match=r"^expressions over different descriptors$"):
        ups.upsilon_distinguish(e1, e2)


def test_f_of_z_reads_the_centralizer_unless_z_is_of_type_2():
    """FzData and the type-3 Sigma summand read the extended centralizer
    only.  It is the centralizer when z = z^-1 or no g inverts z, so on
    types 1 and 3 they read the centralizer's K_#, on the catalogue and on
    the window-2 elements of the two-ends and plane built-ins."""
    groups = G.groups_upto(16) + [G.builtin_group(b) for b in (
        "ch1-c2-c-c12", "ch1-c-by-d4", "pb-cyclic-c4", "ch2-plane")]
    kinds = set()
    for Gx in groups:
        for z in (Gx.elements() if Gx.is_finite else Gx.window_elements(2)):
            if gst.type_of(Gx, z) == 2:
                continue
            c, e = gst.centralizer(Gx, z), gst.extended_centralizer(Gx, z)
            kinds.add(c.kind)
            assert c.kind == e.kind, (Gx.name, z)
            if c.kind in ("finite", "pullback"):
                assert vars(c) == vars(e), (Gx.name, z)
                assert ups.fz_data(Gx, z).sharp is ups._sharp_of(Gx, c), (Gx.name, z)
                if Gx.is_finite and gst.type_of(Gx, z) == 3:
                    assert ups.sigma_summand(Gx, z).sharp is ups._sharp_of(Gx, c)
    assert kinds == {"finite", "pullback", "full"}, kinds


def test_values_over_different_descriptors_do_not_add():
    """A sum keys the other value's summands in its own group: over two C4
    descriptors it showed a + c == 0 with a != c, and a C4 value plus an S3
    one showed an S3 summand labelled by an element of C4."""
    C4, C4b, S3 = G.cyclic_group(4), G.cyclic_group(4), G.symmetric_group(3)
    a, c = (ups.upsilon_eval(arf.parse_expression(arf.GROUP, Gx, "<1, g^2>"))
            for Gx in (C4, C4b))
    s = ups.upsilon_eval(arf.parse_expression(arf.GROUP, S3, "<(1 0 2), (2 1 0)>"))
    assert not a.is_zero() and not s.is_zero() and a != c
    for x, y in ((a, s), (s, a), (a, c)):
        with pytest.raises(ArfError, match=r"^values over different descriptors$"):
            x + y
    assert (a + a).is_zero() and (a + ups.JValue(C4)) == a


def test_eta_refuses_chains_that_are_not_cycles_of_the_summand():
    S3 = G.symmetric_group(3)
    c = S3.parse_element("c")
    s = next(g for g in S3.elements() if gst.type_of(S3, g) == 1 and g != S3.identity)
    x = next(g for g in S3.elements() if S3.mul(g, s) != S3.mul(s, g))
    with pytest.raises(ArfError, match=r"^chain is not a cycle$"):
        ups.sigma_summand(S3, c).eta([], (0, 0), (1, 0))
    # a term off z and z^-1, and a term whose conjugate leaves them
    for z, term in [(c, (s, S3.identity)), (s, (s, x))]:
        with pytest.raises(ArfError, match=r"^chain leaves k\[z\] \+ k\[z\^-1\]$"):
            ups.sigma_summand(S3, z).eta([term], (0, 0), (0, 0))
