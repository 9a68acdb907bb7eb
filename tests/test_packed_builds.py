"""The packed F_2 builds against the dense builders they replaced.

The K_# relation rows, F(z), L(c), the arrow columns and the kernels of
`fp` are built from packed ints.  The builders below are the dense tuple
versions that came before, kept as references: every SharpSpace, F(z) and
L(c) must come out with the same reduced echelon basis, and the packed
kernel must equal the tuple one.  The references eliminate with the
one-pivot-at-a-time eliminator of test_fp, not with `fp`, and write the
L(c) arrows on every coordinate, not on the free ones only.

A finite L(c) is read from homomorphism forms on generators
(`FiniteLc`); the packed elimination it replaced, the F(z) blocks and the
arrows on their free coordinates, is kept below as its reference too.
"""
import random

import pytest

import arfkit.fp as fp
import arfkit.groups as G
import arfkit.groups.classes as gcl
import arfkit.groups.structure as gst
import arfkit.upsilon as ups
from arfkit.formspace import FormQuotient
from test_fp import OnePivotF2
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
        src = lc.fz[z]
        arrows = [(Gx.conj(z, x), x) for x in gens] + [(Gx.mul(z, z), None)]
        if src.type == 3:
            arrows.append((Gx.inv(z), Gx.identity))
        for z2, x in arrows:
            dst = lc.fz[z2]
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
        assert gst.ab_mod_squares(Gx).context.space.basis() == \
            _dense_sharp_basis(Gx, Gx.elements()), Gx.name
        fz_basis = {}
        for z in Gx.elements():
            fz = ups.fz_data(Gx, z)
            assert fz.sharp.context.space.basis() == \
                _dense_sharp_basis(Gx, fz.sharp.elements), (Gx.name, z)
            fz_basis[z] = _dense_fz_basis(Gx, fz)
            assert fz.context.space.basis() == fz_basis[z], (Gx.name, z)
        for part in gcl.cl_partition_finite(Gx):
            lc = ups.l_of_class(Gx, min(part, key=Gx.key))
            assert lc.context.basis() == _dense_lc_basis(Gx, lc, fz_basis), Gx.name


def _eliminated_lc(Gx, lc):
    """L(c) as `fp` eliminated it before the forms: the F(z) echelon blocks
    placed at their offsets, extended by the arrow rows u_i + col_i on the
    free (non-pivot) coordinates i of each F(z).  A pivot coordinate is a
    sum of free ones modulo the F(z) relations, which every arrow sends to
    relations, so its arrow row lies in the span already."""
    base = fp.QuotientContext.direct_sum(
        lc.ambient, [(lc.fz[z].context.space, lc.offset[z]) for z in lc.members])
    rows = []
    gens = gst.generating_set(Gx) or [Gx.identity]
    for z in lc.members:
        src, off = lc.fz[z], lc.offset[z]
        pivots = sum(r & -r for r in src.context.space.packed_basis())
        free = [i for i in range(src.dim) if not pivots >> i & 1]
        arrows = [(Gx.conj(z, x), x) for x in gens] + [(Gx.mul(z, z), None)]
        if src.type == 3:
            arrows.append((Gx.inv(z), Gx.identity))
        for z2, x in arrows:
            dst, off2 = lc.fz[z2], lc.offset[z2]
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
                fz = lc.fz[z]
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
    # elements share it: once for the abelian C12
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
        subs = {(gst.extended_centralizer(Gx, z) if gst.type_of(Gx, z) == 2
                 else gst.centralizer(Gx, z)).members for z in Gx.elements()}
        assert sorted(calls) == sorted(subs), Gx.name
