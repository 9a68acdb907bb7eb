"""The packed F_2 relation families of `chains` against the term-list
builders they replaced.

Over F_2 the rows of H_0, H_1, HC_1 and HQ_1, the cycle equations and the
(1 + vartheta) rows of Coker(1 + vartheta) are XORs of shifted packed
products: entries of the packed tables `FiniteAlgebra.bits` and
`inv_bits`, or `basis_product` and `invol_packed`.  The builders below
are the term-list versions that came before, kept as references: every
family must span the same space as its reference, and the spaces built
from the reference rows (with no split into parts and no dropped rows)
must equal the ones `chains` and `operations` build.  The HQ_1 families of
`chains` are written for the middles s only, so they are compared with
b(T_3) added on both sides (the proof is in the `_hq1_rows` docstring).
A group algebra writes no packed table, so its families are written on
its constructor copy (`test_homology._constructor_copy`), and its spaces,
read from column forms, are compared with the references as they are.
"""
import itertools
import random

import arfkit.fp as fp
import arfkit.groups as G
import arfkit.homology as H
from arfkit.homology import chains
from test_homology import _constructor_copy, _relation_bases


# -- the term-list references ---------------------------------------------------


def _row(terms):
    """The sum of (column, coefficient) terms over F_2, packed."""
    row = 0
    for col, c in terms:
        row ^= (c & 1) << col
    return row


def _commutator_rows(A):
    d, mult = A.dim, A.mult
    return [_row(mult[i][j] + tuple((k, -c) for k, c in mult[j][i]))
            for i in range(d) for j in range(d)]


def _hc1_rows(A):
    d = A.dim
    return [_row([(i * d + j, 1), (j * d + i, 1)]) for i in range(d) for j in range(d)]


def _b2_rows(A, middles=None):
    """b(e_i (x) e_s (x) e_k) for every s in `middles` (default A.middles):
    with every basis index, all of b(T_3)."""
    d, mult = A.dim, A.mult
    return [_row([(m * d + k, c) for m, c in mult[i][s]]
                 + [(i * d + m, -c) for m, c in mult[s][k]]
                 + [(m * d + s, c) for m, c in mult[k][i]])
            for i in range(d) for s in (A.middles if middles is None else middles)
            for k in range(d)]


def _equations(A, hq):
    """b_1 as equations over T_2 and, for HQ_1, the columns e_i - invol(e_i)."""
    d, mult = A.dim, A.mult
    D = d * d
    eqs = [0] * d
    for i in range(d):
        for j in range(d):
            for k, c in mult[i][j] + tuple((k, -c) for k, c in mult[j][i]):
                eqs[k] ^= (c & 1) << i * d + j
    if hq:
        for i in range(d):
            for k, c in ((i, 1),) + tuple((k, -c) for k, c in A.involution[i]):
                eqs[k] ^= (c & 1) << D + i
    return eqs


def _hq1_rows(A):
    d, mult, inv = A.dim, A.mult, A.involution
    D = d * d
    rows = []
    for i in range(d):
        for j in range(d):
            ij = mult[i][j]
            rows.append(_row([(i * d + j, 1), (j * d + i, 1)]
                             + [(D + m, -c) for m, c in ij]
                             + [(D + n, -c * e) for m, c in ij for n, e in inv[m]]))
            rows.append(_row([(i * d + j, 1)]
                             + [(a * d + b, ca * cb) for a, ca in inv[i] for b, cb in inv[j]]
                             + [(D + m, c) for m, c in mult[j][i]]
                             + [(D + m, -c) for m, c in ij]))
    return rows


def _one_plus_vartheta_rows(A, basis):
    """(1 + vartheta) of tuple HQ_1 vectors, through unflatten and the dense
    `vartheta_chain`."""
    D = A.dim * A.dim
    rows = []
    for v in basis:
        ch2, c1 = H.unflatten(A, 2, v[:D]), v[D:]
        th2, thc = H.vartheta_chain(A, ch2, c1)
        rows.append(fp.pack(H.hq_vector(A, H.t_add(2, ch2, th2), A.add(c1, thc))))
    return rows


def _reference_bases(A):
    """_relation_bases(A) from the reference rows, each context reduced as
    one subspace."""
    d = A.dim
    D = d * d
    b2 = _b2_rows(A)
    h1_cycles = fp.kernel_packed(_equations(A, False), D)
    hq_cycles = fp.kernel_packed(_equations(A, True), D + d)
    out = []
    for dim, rows, cycles in ((D, b2, h1_cycles), (D, b2 + _hc1_rows(A), h1_cycles),
                              (D + d, _hq1_rows(A) + b2, hq_cycles)):
        space = fp.Subspace(dim, 2, rows)
        out.append((space, cycles))
    hq_space, _ = out[2]
    hq_basis = [fp.unpack(r, D + d) for r in hq_space.independent(hq_cycles)]
    cok = hq_space.extended(H.mu_rows(A)).extended(_one_plus_vartheta_rows(A, hq_basis))
    out.append((cok, hq_cycles))
    return [(space.basis(), [fp.unpack(r, space.dim) for r in space.independent(cycles)])
            for space, cycles in out]


# -- the comparisons -------------------------------------------------------------


def _rebased_json(A, rng):
    """A's JSON description on the basis b_i = e_i + a random sum of later
    e_j: the structure constants and the involution then have several terms."""
    d = A.dim
    P = [[int(i == j or (j > i and rng.random() < 0.4)) for j in range(d)] for i in range(d)]
    Pt = [[P[i][j] for i in range(d)] for j in range(d)]

    def coords(v):                      # v in the e basis -> in the b basis
        return list(fp.solve(Pt, v, d))

    def in_e(x):                        # b coordinates -> e coordinates
        return tuple(sum(x[i] * P[i][j] for i in range(d)) % 2 for j in range(d))

    b = [in_e([int(i == k) for k in range(d)]) for i in range(d)]
    return {"p": 2, "labels": [f"b{i}" for i in range(d)],
            "mult": [[coords(A.mul(x, y)) for y in b] for x in b],
            "unit": coords(A.unit), "involution": [coords(A.invol(x)) for x in b]}


def _algebras():
    """(A, P) pairs: the algebra A, and P, the one that writes A's packed
    rows: its constructor copy for a group algebra, else A itself."""
    groups = G.groups_upto(16)
    assert len(groups) == 42
    rng = random.Random(61)
    S3 = H.group_algebra(G.symmetric_group(3), 2)
    others = [
        H.matrix_algebra(H.group_algebra(G.cyclic_group(2), 2), 2),
        H.field_algebra(2),
        H.algebra_from_json(_rebased_json(S3, rng)),
        H.algebra_from_json(_rebased_json(H.group_algebra(G.cyclic_group(4), 2), rng))]
    algebras = [H.group_algebra(Gx, 2) for Gx in groups]
    return [(A, _constructor_copy(Gx, A)) for Gx, A in zip(groups, algebras)] + [
        (A, A) for A in others]


def _span(rows, dim):
    return fp.Subspace(dim, 2, rows).packed_basis()


def test_packed_families_span_the_term_list_families():
    for A, P in _algebras():
        d = A.dim
        D = d * d
        for B in (A, P):
            assert _span(chains._commutator_rows(B), d) == _span(_commutator_rows(A), d)
        assert _span(chains._hc1_rows(P), D) == _span(_hc1_rows(A), D)
        assert _span(chains._b2_rows(P), D) == _span(_b2_rows(A), D), A.name
        # the whole HQ_1 context: the families on the middles with the rows
        # b(T_3) on the middles, against every pair (i, j) with all of b(T_3)
        hq1 = itertools.chain(chains._hq1_rows(P), chains._b2_rows(P))
        ref = _hq1_rows(A) + _b2_rows(A, range(d))
        assert _span(hq1, D + d) == _span(ref, D + d), A.name
        b1 = chains._equations(A, chains._commutator_rows(A))
        assert _span(b1, D) == _span(_equations(A, False), D)
        assert _relation_bases(A) == _reference_bases(A), A.name


def test_rebased_algebras_have_several_terms():
    """The JSON algebras above reach the branches of the packed builders
    that a group algebra never does: products and involutions with more
    than one term."""
    for A, _ in _algebras()[-2:]:
        assert list(A.middles) == list(range(A.dim))
        assert any(v & (v - 1) for row in A.bits for v in row)
        assert any(v & (v - 1) for v in A.inv_bits)


def test_distinct_drops_only_zero_and_repeated_rows():
    rng = random.Random(67)
    rows = [rng.choice([0, 1, 2, 3, 5, 8, 1 << 70]) for _ in range(200)]
    S3 = G.symmetric_group(3)
    A = _constructor_copy(S3, H.group_algebra(S3, 2))
    hq1 = list(chains._hq1_rows(A)) + list(chains._b2_rows(A))
    for rows in (rows, hq1, chains._commutator_rows(A)):
        kept = chains.distinct(rows)
        assert len(kept) == len(set(kept))
        assert set(kept) == set(rows) - {0}
        assert kept == sorted(kept, key=rows.index)


def test_streamed_chunks_leave_the_bases_unchanged(monkeypatch):
    """`chains._quotient` reads its rows chunk by chunk, drops repeats within
    a chunk only and sweeps each chunk into the subspace built so far.
    Chunks far smaller than one relation family give the bases of one whole
    chunk on the algebras that take that path (the constructor copies of
    the group algebras among them), and leave the group algebras' column
    forms as they were."""
    def picked():
        return [B for pair in _algebras() if pair[0].dim in (6, 8) for B in dict.fromkeys(pair)]

    whole = [_relation_bases(A) for A in picked()]
    monkeypatch.setattr(chains, "BLOCK", 5)
    algebras = picked()
    group = [isinstance(A, H.GroupAlgebra) for A in algebras]
    assert any(group) and not all(group)
    for A, bases in zip(algebras, whole):
        assert _relation_bases(A) == bases, A.name
    # a chunk with no row left after the zero and repeated rows are dropped
    # does not end the stream
    A = algebras[group.index(False)]
    D = A.dim * A.dim + A.dim
    rows = list(chains._hq1_rows(A)) + list(chains._b2_rows(A))
    padded = [0] * 7 + [rows[0]] * 7 + rows
    assert chains._quotient(A, D, iter(padded)).space.packed_basis() == _span(rows, D)
