"""The packed F_2 builds against the dense builders they replaced.

The K_# relation rows, F(z), L(c), the arrow columns and the kernels of
`fp` are built from packed ints.  The builders below are the dense tuple
versions that came before, kept as references: every SharpSpace, F(z) and
L(c) must come out with the same reduced echelon basis, and the packed
kernel must equal the tuple one.  The references eliminate with the
one-pivot-at-a-time eliminator of test_fp, not with `fp`, and write the
L(c) arrows on every coordinate, not on the free ones only.

Every K_#, F(z), Sigma summand and L(c) is read from homomorphism forms
on generators (`SharpSpace`, `FiniteLc`).  The packed relation rows they
replaced (`_relation_rows`) and the elimination of a finite L(c) (the
F(z) blocks and the arrows on their free coordinates, the type-3
inversion among them) are kept below as their references too.
"""
import random

import pytest

import arfkit.fp as fp
import arfkit.groups as G
import arfkit.groups.classes as gcl
import arfkit.groups.structure as gst
import arfkit.upsilon as ups
from arfkit.formspace import FormQuotient
from arfkit.groups.core import table_from_mul
from test_fp import OnePivotF2
from test_groups import _presented_subgroups
from test_upsilon import _dense_columns, large_j_groups, past_order_100


# -- the dense references ------------------------------------------------------


def _rref(rows, ncols):
    """The reduced echelon basis of tuple rows, as tuples."""
    return [fp.unpack(r, ncols) for r in OnePivotF2(map(fp.pack, rows)).basis()]


def _dense_relation_rows(n, index, gens, mul, ident):
    rows = []
    for a in index:
        for s in gens:
            r = [0] * n
            for g in (a, s, mul(a, s)):
                r[index[g]] += 1
            rows.append(r)
    return rows + [fp.unit(n, index[ident])]


def _dense_sharp_basis(Gx, members):
    """K_# of the finite subgroup `members`, as sharp_of_members built it."""
    members = tuple(sorted(set(members), key=Gx.key))
    index = {g: i for i, g in enumerate(members)}
    rows = _dense_relation_rows(len(members), index,
                                gst.generating_set(Gx, members), Gx.mul, Gx.identity)
    return _rref(rows, len(members))


def _dense_fz_basis(Gx, fz):
    """F(z) from the dense sharp rows and each 2-power root's tuple."""
    pad = [0] * (1 if fz.has_t else 0)
    rows = [list(r) + pad for r in _dense_sharp_basis(Gx, fz.sharp.elements)]
    rows += [list(fz.sharp.coord(r)) + pad for r in gcl.two_power_roots(Gx, fz.z)]
    return _rref(rows, fz.dim)


def _dense_lc_basis(Gx, lc, fz_basis):
    """L(c) from length-`ambient` tuples: each F(z) basis row and each arrow
    row u_i + col, with the dense arrow columns, placed by _ins and summed
    by fp.add_vec."""
    def ins(z, vec):
        out = [0] * lc.ambient
        out[lc.offset[z]:lc.offset[z] + len(vec)] = vec
        return tuple(out)

    rows = set()
    for z in lc.members:
        for r in fz_basis[z]:
            rows.add(ins(z, r))
    gens = gst.generating_set(Gx) or [Gx.identity]
    for z in lc.members:
        src = ups.fz_data(Gx, z)
        arrows = [(Gx.conj(z, x), x) for x in gens] + [(Gx.mul(z, z), None)]
        if src.type == 3:
            arrows.append((Gx.inv(z), Gx.identity))
        for z2, x in arrows:
            dst = ups.fz_data(Gx, z2)
            for i, col in enumerate(_dense_columns(Gx, src, dst, x)):
                rows.add(fp.add_vec(ins(z, fp.unit(src.dim, i)), ins(z2, col)))
    return _rref(sorted(rows), lc.ambient)


def _tuple_kernel_basis(matrix, ncols):
    """The F_2 kernel from the reduced tuple rows."""
    rows = _rref(matrix, ncols)
    pivots = [r.index(1) for r in rows]
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        x = [0] * ncols
        x[f] = 1
        for j, row in zip(pivots, rows):
            x[j] = row[f]
        basis.append(tuple(x))
    return basis


# -- the comparisons -----------------------------------------------------------


def test_packed_builds_match_the_dense_builders():
    groups = G.groups_upto(16) + [
        G.builtin_group("ch1-order24"), G.symmetric_group(4), G.dihedral_group(24),
        G.direct_product(G.cyclic_group(2), G.symmetric_group(4))]
    # two groups with J >= 3, where the placed echelon blocks are largest
    large = large_j_groups()
    groups += [large["S3xS3"][0], large["C3^2:C4"][0]]
    assert len(groups) == 48
    for Gx in groups:
        assert gst.ab_mod_squares(Gx).context.basis() == \
            _dense_sharp_basis(Gx, Gx.elements()), Gx.name
        fz_basis = {}
        for z in Gx.elements():
            fz = ups.fz_data(Gx, z)
            assert fz.sharp.context.basis() == \
                _dense_sharp_basis(Gx, fz.sharp.elements), (Gx.name, z)
            fz_basis[z] = _dense_fz_basis(Gx, fz)
            assert fz.context.basis() == fz_basis[z], (Gx.name, z)
        for part in gcl.cl_partition_finite(Gx):
            lc = ups.l_of_class(Gx, min(part, key=Gx.key))
            assert lc.context.basis() == _dense_lc_basis(Gx, lc, fz_basis), Gx.name


def _relation_rows(n, index, gens, mul, ident, carry):
    """The rows u_a + u_s + u_as + carry(a, s) t (t last) for the members a
    of `index` and s in gens, and the row u_1, packed for `fp` (bit j =
    coordinate j, so t is bit n - 1).  They span every r(a, b): mod 2,
    r(a, bc) = r(a, b) + r(ab, c) + r(b, c) and r(a, 1) = u_1 (the carry is
    a 2-cocycle), and each b is a product of generators."""
    rows = [(1 << index[a]) ^ (1 << index[s]) ^ (1 << index[mul(a, s)])
            ^ (carry(a, s) & 1) << (n - 1) for a in index for s in gens]
    return rows + [1 << index[ident]]


def _sharp_rows(sub):
    """(dim, the K_# relation rows) of a finite or sub-pull-back subgroup,
    as SharpSpace presented it before its forms."""
    Gx = sub.G
    if sub.kind == "finite":
        members = tuple(sorted(set(sub.members), key=Gx.key))
        index = {g: i for i, g in enumerate(members)}
        gens = gst.generating_set(Gx, members)
        return len(members), _relation_rows(len(members), index, gens, Gx.mul,
                                            Gx.identity, lambda a, s: 0)
    E, hom, m = Gx.E, Gx.hom, Gx.m

    def carry(e, f):
        (_, i1), (e2, i2) = hom[e], hom[f]
        return ((-i1 if e2 else i1) + i2 - hom[E.mul(e, f)][1]) // m

    n = len(sub.e_members) + 1
    index = {e: i for i, e in enumerate(sub.e_members)}
    gens = gst.generating_set(E, list(sub.e_members))
    return n, _relation_rows(n, index, gens, E.mul, E.identity, carry)


def _subgroup_of(Gx, fz):
    if fz.type == 2:
        return gst.extended_centralizer(Gx, fz.z)
    return gst.centralizer(Gx, fz.z)


def _reference_fz(Gx, fz):
    """F(z) eliminated by fp: the K_# rows (the t column, when there is one,
    on top and 0 on all of them) and the packed coordinates of the roots."""
    _, rows = _sharp_rows(_subgroup_of(Gx, fz))
    return fp.QuotientContext(fz.dim, 2, rows + [fp.pack(fz.sharp.coord(r))
                                                 for r in fz.roots])


def _pair_group(Gx, z):
    """The pair group P = Gbar_z x_{C2} C4 = {(g, j) : j = w(g) mod 2} that
    the type-2 Sigma summand was built on before the carry walk, as a table
    group: (pairs, P, w), element i of P being pairs[i], and w(g) = 1 iff g
    inverts z."""
    members = gst.extended_centralizer(Gx, z).members
    w = {g: int(Gx.conj(z, g) != z) for g in members}
    pairs = [(g, j) for g in members for j in range(4) if w[g] == j % 2]
    P = table_from_mul(pairs, lambda a, b: (Gx.mul(a[0], b[0]), (a[1] + b[1]) % 4),
                       labels=[f"{Gx.format_element(g)}|t^{j}" for g, j in pairs])
    return pairs, P, w


def _reference_sigma(Gx, summand):
    """The Sigma summand eliminated by fp, as it was built on the K_# rows:
    type 1 with its C2 coordinate on top and z, type 2 on the K_# of the
    pair group P (`_pair_group`) and (z, t^2), type 3 the K_# of the
    centralizer."""
    z = summand.z
    if summand.type == 2:
        pairs, P, _ = _pair_group(Gx, z)
        n, rows = _sharp_rows(gst.FiniteSubgroup(P, P.elements()))
        return fp.QuotientContext(n, 2, rows + [1 << pairs.index((z, 2))])
    n, rows = _sharp_rows(gst.centralizer(Gx, z))
    if summand.type == 1:
        return fp.QuotientContext(n + 1, 2, rows + [fp.pack(summand.sharp.coord(z))])
    return fp.QuotientContext(n, 2, rows)


def _pair_images(Gx, z):
    """The packed vector of each element of P in the type-2 summand:
    (g, j) = s(g) t^((j - w(g)) / 2), with s(g) = (g, w(g)) the coordinate
    of g among the members of Gbar_z and t = (1, 2) the last coordinate."""
    pairs, _, w = _pair_group(Gx, z)
    members = gst.extended_centralizer(Gx, z).members
    col = {g: i for i, g in enumerate(members)}
    return [1 << col[g] | ((j - w[g]) // 2 & 1) << len(members) for g, j in pairs]


def _assert_same_pair_quotient(Gx, summand, ref, rng, what):
    """The type-2 summand is the reference quotient of P_# through
    (g, j) -> s(g) t^c (`_pair_images`): each reference relation maps to 0,
    the quotient dimensions are equal, and 24 seeded sums of P's elements
    are zero in both or in neither."""
    images, ctx = _pair_images(Gx, summand.z), summand.context
    assert ctx.dim == len(images) // 2 + 1, what
    assert ctx.quotient_dim == ref.quotient_dim, what
    for row in ref.space.packed_basis():
        assert ctx.reduce_packed(fp.xor_sum(row, images)) == 0, what
    for _ in range(24):
        v = rng.getrandbits(len(images))
        assert (ref.reduce_packed(v) == 0) == \
            (ctx.reduce_packed(fp.xor_sum(v, images)) == 0), what


def _assert_same_quotient(ctx, ref, rng, what):
    """basis(), quotient_dim and the residues of 8 seeded vectors."""
    assert ctx.basis() == ref.basis(), what
    assert ctx.quotient_dim == ref.quotient_dim, what
    for _ in range(8):
        v = rng.getrandbits(ref.space.dim)
        assert ctx.reduce_packed(v) == ref.reduce_packed(v), what


def test_sharp_forms_match_the_relation_rows(monkeypatch):
    """Every K_# presentation of `_presented_subgroups` (the two-ends
    pull-backs among them), every F(z) of the catalogue and of the two-ends
    built-ins' window-2 elements, and the Sigma summands of the catalogue
    (all three types) are fp's quotients of the relation rows, a type-2
    summand through the elements of its pair group; the K_# still are when
    the generators do not generate."""
    rng = random.Random(2301)
    subs = _presented_subgroups()
    assert len(subs) == 169
    assert {sub.kind for sub in subs} == {"finite", "pullback"}
    for sub in subs:
        n, rows = _sharp_rows(sub)
        _assert_same_quotient(gst.sharp_of_subgroup(sub).context,
                              fp.QuotientContext(n, 2, rows), rng, sub.kind)
    two_ends = [G.builtin_group(b) for b in ("ch1-c2-c-c12", "ch1-c-by-d4",
                                             "pb-cyclic-c4")]
    types = set()
    for Gx in G.groups_upto(16) + two_ends:
        for z in (Gx.elements() if Gx.is_finite else Gx.window_elements(2)):
            fz = ups.fz_data(Gx, z)
            _assert_same_quotient(fz.context, _reference_fz(Gx, fz), rng, (Gx.name, z))
            if Gx.is_finite:
                summand = ups.sigma_summand(Gx, z)
                types.add(summand.type)
                ref = _reference_sigma(Gx, summand)
                if summand.type == 2:
                    _assert_same_pair_quotient(Gx, summand, ref, rng, (Gx.name, z))
                else:
                    _assert_same_quotient(summand.context, ref, rng, (Gx.name, z))
    assert types == {1, 2, 3}
    # planted: without the last generator, the members no walk from 1
    # reaches get walks of their own, and the quotient is still the rows'
    real = gst.generating_set
    monkeypatch.setattr(gst, "generating_set", lambda *a: real(*a)[:-1])
    for sub in subs:
        n, rows = _sharp_rows(sub)
        _assert_same_quotient(gst.sharp_of_subgroup(sub).context,
                              fp.QuotientContext(n, 2, rows), rng, sub.kind)


def _reference_eta_pair(Gx, z, w, tensor_part, y1, y2):
    """The element (acc, n mod 4) of the pair group P that the type-2 eta of
    a cycle read before the carry walk."""
    zinv = Gx.inv(z)
    acc, n = Gx.identity, 0
    for a, g in tensor_part:
        acc = Gx.mul(acc, g)
        n += w[g]
        if a == zinv:
            n += 2 * w[g]
    n += 2 * (y1[0] + y1[1] + y2[1])
    return acc, n % 4


def _seeded_cycle(rng, Gx, z, members):
    """A chain [sum a_i (x) g_i, y1, y2] with a_i in {z, z^-1}, g_i in
    Gbar_z and y1 drawn at random, and y2 chosen to make it a cycle: an
    inverting g_i moves one unit from a_i to a_i^-1, and y2 = (1, 0) or
    (0, 1) moves one between z and z^-1."""
    zinv = Gx.inv(z)
    terms = [(rng.choice((z, zinv)), rng.choice(members)) for _ in range(rng.randrange(6))]
    odd = sum(Gx.conj(a, Gx.inv(g)) != a for a, g in terms) % 2
    y1 = (rng.randrange(2), rng.randrange(2))
    y2 = rng.choice(((1, 0), (0, 1)) if odd else ((0, 0), (1, 1)))
    return terms, y1, y2


def test_type_2_eta_vanishes_where_the_pair_group_reference_does():
    """eta of a type-2 summand, read on the carry walk, is zero exactly where
    the pair group's eta is, on 40 seeded cycles and every eta relation
    instance at a seeded (g1, g2), for each type-2 z of the catalogue, S4,
    the order-24 group, S3 x S3 and D5 x S3.  Its value is the residue of
    the pair's image under (g, j) -> s(g) t^c (`_pair_images`): zero-ness
    alone cannot tell eta from eta followed by the automorphism
    (g, j) -> (g, j + 2 w(g)) of P, which fixes (z, t^2)."""
    large = large_j_groups()
    groups = G.groups_upto(16) + [G.symmetric_group(4), G.builtin_group("ch1-order24"),
                                  large["S3xS3"][0], large["D5xS3"][0]]
    rng = random.Random(3307)
    seen = {True: 0, False: 0}
    for Gx in groups:
        for z in Gx.elements():
            if gst.type_of(Gx, z) != 2:
                continue
            summand = ups.sigma_summand(Gx, z)
            ref = _reference_sigma(Gx, summand)
            pairs, _, w = _pair_group(Gx, z)
            index = {pr: i for i, pr in enumerate(pairs)}
            images = _pair_images(Gx, z)
            members = gst.extended_centralizer(Gx, z).members
            cycles = [_seeded_cycle(rng, Gx, z, members) for _ in range(40)]
            cycles += ups.eta_relation_elements(Gx, z, rng.choice(members),
                                                rng.choice(members))
            for tp, y1, y2 in cycles:
                i = index[_reference_eta_pair(Gx, z, w, tp, y1, y2)]
                value = summand.eta(tp, y1, y2)
                zero = not any(value)
                assert zero == (ref.reduce_packed(1 << i) == 0), (Gx.name, z, tp, y1, y2)
                assert value == fp.unpack(summand.context.reduce_packed(images[i]),
                                          summand.dim), (Gx.name, z, tp, y1, y2)
                seen[zero] += 1
    # both answers occur often
    assert min(seen.values()) > 1000, seen


def _eliminated_lc(Gx, lc):
    """L(c) as `fp` eliminated it before the forms: the F(z) echelon blocks
    of `_reference_fz` placed at their offsets, extended by the arrow rows
    u_i + col_i on the free (non-pivot) coordinates i of each F(z),
    the type-3 inversion arrow among them.  A pivot coordinate is a sum of
    free ones modulo the F(z) relations, which every arrow sends to
    relations, so its arrow row lies in the span already."""
    blocks = {z: _reference_fz(Gx, ups.fz_data(Gx, z)).space.packed_basis()
              for z in lc.members}
    base = fp.QuotientContext(lc.ambient, 2, [r << lc.offset[z] for z in lc.members
                                              for r in blocks[z]])
    rows = []
    gens = gst.generating_set(Gx) or [Gx.identity]
    for z in lc.members:
        src, off = ups.fz_data(Gx, z), lc.offset[z]
        pivots = sum(r & -r for r in blocks[z])
        free = [i for i in range(src.dim) if not pivots >> i & 1]
        arrows = [(Gx.conj(z, x), x) for x in gens] + [(Gx.mul(z, z), None)]
        if src.type == 3:
            arrows.append((Gx.inv(z), Gx.identity))
        for z2, x in arrows:
            dst, off2 = ups.fz_data(Gx, z2), lc.offset[z2]
            for i in free:
                rows.append((1 << off + i) ^ (ups._arrow_column(Gx, src, dst, x, i) << off2))
    return base.extended(rows)


def test_finite_lc_forms_match_the_elimination():
    """dim, the reduced echelon rows, the residues of seeded vectors and
    every inserted generator of each finite L(c) are those of the
    elimination, on the catalogue, S4, ch1-order24, the J >= 3 groups up
    to order 120 (D9 x S3 and S5 past order 100; S3^3 would take a
    second) and D32."""
    groups = G.groups_upto(16) + [
        G.symmetric_group(4), G.builtin_group("ch1-order24"), G.dihedral_group(32)]
    groups += [Gx for Gx, _ in large_j_groups().values()]
    groups += [Gx for Gx, _, _ in past_order_100()[:2]]
    for Gx in groups:
        rng = random.Random(Gx.name)
        for part in gcl.cl_partition_finite(Gx):
            lc = ups.l_of_class(Gx, min(part, key=Gx.key))
            ref = _eliminated_lc(Gx, lc)
            ctx = lc.context
            assert isinstance(ctx, FormQuotient), Gx.name
            assert lc.dim == ref.quotient_dim, Gx.name
            # basis() packed: e_j plus its residue for each pivot column j
            units = [1 << j for j in range(lc.ambient)]
            echelon = [u ^ r for u in units if (r := ctx.reduce_packed(u)) != u]
            assert echelon == ref.space.packed_basis(), Gx.name
            if Gx.order() <= 16:
                assert ctx.basis() == ref.basis(), Gx.name
            for _ in range(8):
                v = rng.getrandbits(lc.ambient)
                assert ctx.reduce_packed(v) == ref.reduce_packed(v), Gx.name
            for z in lc.members:
                fz = ups.fz_data(Gx, z)
                for h in fz.sharp.elements:
                    for tbit in (0, 1) if fz.has_t else (0,):
                        want = ref.reduce_packed(fz.bits(h, tbit) << lc.offset[z])
                        assert lc.insert_entry(Gx, z, h, tbit) == \
                            fp.unpack(want, lc.ambient), (Gx.name, z, h)


def _random_matrix(rng, nrows, ncols):
    return [tuple(rng.randrange(2) for _ in range(ncols)) for _ in range(nrows)]


@pytest.mark.parametrize("ncols", [0, 1, 2, 5, 9, 17, 40])
def test_packed_kernel_matches_the_tuple_kernel(ncols):
    rng = random.Random(8000 + ncols)
    cases = [[], [(0,) * ncols] * 3,                         # the zero matrix
             [fp.unit(ncols, i) for i in range(ncols)]]      # full rank
    cases += [_random_matrix(rng, rng.randint(1, ncols + 2), ncols) for _ in range(10)]
    for M in cases:
        want = _tuple_kernel_basis(M, ncols)
        packed = fp.kernel_packed(M, ncols)
        assert [fp.unpack(x, ncols) for x in packed] == want
        assert fp.kernel_basis(M, ncols) == want
        # the row forms fp builds from give the same kernel
        assert fp.kernel_packed([fp.pack(r) for r in M], ncols) == packed
        assert fp.kernel_packed([{j: 1 for j, x in enumerate(r) if x} for r in M],
                                ncols) == packed
    assert fp.kernel_packed([], ncols) == [1 << f for f in range(ncols)]
    assert fp.kernel_packed([fp.unit(ncols, i) for i in range(ncols)], ncols) == []


def test_sharp_is_built_once_per_centralizer(monkeypatch):
    # K_# of a finite centralizer is built once per member set, however many
    # elements share it: once for the abelian C12.  J builds F(z) at the
    # least element of each conjugacy class only, so those are the K built
    calls = []
    real = gst.sharp_of_members

    def counting(Gx, members):
        calls.append(tuple(members))
        return real(Gx, members)

    monkeypatch.setattr(gst, "sharp_of_members", counting)
    C12 = G.cyclic_group(12)
    ups.j_group_dimension(C12)
    assert len(calls) == 1
    for Gx in (G.symmetric_group(4), G.dihedral_group(6)):
        calls.clear()
        ups.j_group_dimension(Gx)
        reps = [min(cl, key=Gx.key) for cl in gst.conjugacy_classes(Gx)]
        subs = {(gst.extended_centralizer(Gx, z) if gst.type_of(Gx, z) == 2
                 else gst.centralizer(Gx, z)).members for z in reps}
        assert sorted(calls) == sorted(subs), Gx.name
