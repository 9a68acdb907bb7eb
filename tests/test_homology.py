import hashlib
import itertools
import json
import random
from bisect import bisect_left

import pytest

import arfkit.fp as fp
import arfkit.groups as G
import arfkit.groups.structure as gst
import arfkit.homology as H
from arfkit.fp import ones
from arfkit.groups.structure import generating_set
from arfkit.homology import AlgebraError, chains, forms, operations
from test_random_groups import _relabelled, battery_draws
from test_upsilon import large_j_groups, past_order_100


@pytest.fixture(scope="module")
def algebras():
    return {
        "F2[C2]": H.group_algebra(G.cyclic_group(2), 2),
        "F2[C2xC2]": H.group_algebra(G.abelian_group([2, 2]), 2),
        "F3[C3]": H.group_algebra(G.cyclic_group(3), 3),
        "F2[S3]": H.group_algebra(G.symmetric_group(3), 2),
    }


def test_h0_counts_conjugacy_classes():
    for Gx in [G.symmetric_group(3), G.dihedral_group(4), G.cyclic_group(3)]:
        A = H.group_algebra(Gx, 2)
        assert H.homology(A, "H0").dim == len(G.conjugacy_classes(Gx))
    A3 = H.group_algebra(G.cyclic_group(3), 3)
    assert H.homology(A3, "H0").dim == 3


def test_h0_field():
    assert H.homology(H.field_algebra(2), "H0").dim == 1


def test_hc1_field_vanishes():
    assert H.homology(H.field_algebra(2), "HC1").dim == 0


def test_dimension_guard():
    A = H.group_algebra(G.abelian_group([16, 17]), 2)    # dimension 272 > 256
    with pytest.raises(AlgebraError):
        H.homology(A, "H1")


def test_theta_h0_examples(algebras):
    A = algebras["F2[C2]"]
    h0 = H.space(A, "H0")
    zero = h0.class_of(A.zero_vec())
    assert H.theta_p_h0(A, zero).is_zero()
    one = h0.class_of(A.unit)     # idempotent: r^p = r
    assert H.theta_p_h0(A, one) == h0.class_of(A.unit)
    # [uv - vu] -> [0]
    S3 = algebras["F2[S3]"]
    h0s = H.space(S3, "H0")
    u, v = S3.basis_vec(1), S3.basis_vec(4)
    comm = S3.commutator(u, v)
    img = H.theta_p_h0(S3, h0s.class_of(comm))
    assert img.is_zero()


def test_theta_h0_additive_and_well_defined(algebras):
    rng = random.Random(2)
    for A in algebras.values():
        h0 = H.space(A, "H0")
        rows = [A.commutator(A.basis_vec(i), A.basis_vec(j))
                for i in range(A.dim) for j in range(A.dim)]
        for _ in range(100):
            r = tuple(rng.randrange(A.p) for _ in range(A.dim))
            pert = r
            for _ in range(2):
                b = rng.choice(rows)
                c = rng.randrange(A.p)
                pert = tuple((x + c * y) % A.p for x, y in zip(pert, b))
            assert H.theta_p_h0(A, h0.class_of(r)) == \
                H.theta_p_h0(A, h0.class_of(pert))


def test_theta_h1_p2_specialization(algebras):
    # the p = 2 remark formula agrees with the general orbit formula
    A = algebras["F2[S3]"]
    h1 = H.space(A, "H1")
    hc1 = H.space(A, "HC1")
    rng = random.Random(4)
    for v in h1.basis[:4]:
        cls = h1.class_of(v)
        full = H.theta_p_h1(A, cls)
        summands = H.unit_summands(A, H.unflatten(A, 2, v))
        out = {}
        for a, b in summands:
            ab = A.mul(a, b)
            out = H.t_add(2, out, H.tensor2(A, A.mul(ab, a), b))
        for i in range(len(summands)):
            for j in range(i + 1, len(summands)):
                ai, bi = summands[i]
                aj, bj = summands[j]
                out = H.t_add(2, out, H.tensor2(A, A.mul(ai, bi), A.mul(aj, bj)))
                out = H.t_add(2, out, H.tensor2(A, A.mul(bi, ai), A.mul(bj, aj)))
        assert full == hc1.class_of(H.flatten(A, 2, out))


def test_prophc_identity(algebras):
    for name in ("F2[C2]", "F2[C2xC2]", "F3[C3]", "F2[S3]"):
        A = algebras[name]
        h1 = H.space(A, "H1")
        hc1 = H.space(A, "HC1")
        p = A.p
        for i in range(A.dim):
            for j in range(A.dim):
                u, v = A.basis_vec(i), A.basis_vec(j)
                ch = H.t_add(p, H.tensor2(A, u, v), H.tensor2(A, v, u))
                lhs = H.theta_p_h1(A, h1.class_of(H.flatten(A, 2, ch)))
                uv = A.mul(u, v)
                rhs = hc1.class_of(H.flatten(
                    A, 2, H.tensor2(A, A.power(uv, p - 1), uv)))
                assert lhs == rhs


def test_theta_h1_boundary_kill(algebras):
    rng = random.Random(8)
    for name in ("F2[C2]", "F2[C2xC2]", "F3[C3]"):
        A = algebras[name]
        h1 = H.space(A, "H1")
        if not h1.basis:
            continue
        for _ in range(40):
            v = rng.choice(h1.basis)
            pert = v
            for _ in range(2):
                i, j, k = (rng.randrange(A.dim) for _ in range(3))
                row = H.flatten(A, 2, H.boundary(A, 3, {(i, j, k): 1}))
                c = rng.randrange(A.p)
                pert = tuple((x + c * y) % A.p for x, y in zip(pert, row))
            assert H.theta_p_h1(A, h1.class_of(v)) == \
                H.theta_p_h1(A, h1.class_of(pert))


def test_gamma_choice_independence(algebras):
    A = algebras["F3[C3]"]
    h1 = H.space(A, "H1")
    rng = random.Random(12)
    for v in h1.basis[:3]:
        cls = h1.class_of(v)
        base = H.theta_p_h1(A, cls)
        for salt in range(3):
            out = H.theta_p_h1(A, cls,
                               shuffle_key=lambda orbit, s=salt: s % len(orbit))
            assert out == base


def test_theta_aux_identity(algebras):
    # theta(x + y) = theta(x) + theta(y) + b(x) b(y) in R_ab
    rng = random.Random(21)
    A = algebras["F2[S3]"]
    h0 = H.space(A, "H0")
    for _ in range(150):
        x = {(rng.randrange(A.dim), rng.randrange(A.dim)): 1
             for _ in range(rng.randint(1, 2))}
        y = {(rng.randrange(A.dim), rng.randrange(A.dim)): 1
             for _ in range(rng.randint(1, 2))}
        both = H.t_add(2, x, y)
        bx = H.boundary(A, 2, x)
        by = H.boundary(A, 2, y)
        bxv = H.flatten(A, 1, bx)
        byv = H.flatten(A, 1, by)
        lhs = H.theta_aux(A, both)
        rhs = H.theta_aux(A, x) + H.theta_aux(A, y) + \
            h0.class_of(A.mul(bxv, byv))
        assert lhs == rhs


def test_vartheta_examples(algebras):
    A = algebras["F2[C2]"]
    cok = H.coker_one_plus_vartheta(A)
    g = A.basis_vec(1)
    # (0, c) with c = invol(c), c^2 = 0: in F2[C2] take c = 1 + g
    c = A.add(A.unit, g)
    ch, csq = H.vartheta_chain(A, {}, c)
    vec = H.hq_vector(A, ch, csq)
    assert all(x == 0 for x in cok.coker_mu.reduce(vec))
    # upsilon values
    assert any(cok.upsilon_pair(g, g))
    assert cok.upsilon_pair(g, g) == cok.upsilon_pair(A.unit, A.unit)


def _sparse_upsilon_pairs(cok, pairs):
    """The sum of the [a (x) b, ab] of the pairs as tuples, the products by
    the sparse `FiniteAlgebra.mul`, reduced (the deleted path, reference)."""
    A = cok.A
    acc = fp.zeros(cok.hq.ambient_dim)
    for a, b in pairs:
        acc = fp.add_vec(acc, H.hq_vector(A, chains.tensor2(A, a, b), A.mul(a, b)), 2)
    return cok.reduce(acc)


def test_upsilon_pairs_read_the_index_table():
    # on the catalogue up to order 8: upsilon_pair on every pair of basis
    # vectors and upsilon_expression on random sums write no product table
    # into the algebra's store, and equal the sparse path
    rng = random.Random(34)
    for Gx in G.groups_upto(8):
        A = H.group_algebra(Gx, 2)
        cok = H.coker_one_plus_vartheta(A)
        basis = [A.basis_vec(i) for i in range(A.dim)]
        sums = [tuple(rng.randrange(2) for _ in range(A.dim)) for _ in range(6)]
        exprs = [[(rng.choice(basis + sums), rng.choice(basis + sums))
                  for _ in range(k)] for k in range(4)]
        pairs = [cok.upsilon_pair(a, b) for a in basis for b in basis]
        values = [cok.upsilon_expression(e) for e in exprs]
        assert "mult" not in A._derived, Gx.name
        assert pairs == [_sparse_upsilon_pairs(cok, [(a, b)]) for a in basis for b in basis]
        assert values == [_sparse_upsilon_pairs(cok, e) for e in exprs], Gx.name
        assert all(type(v) is tuple for v in pairs + values)
        assert values[0] == (0,) * cok.hq.ambient_dim


def test_vartheta_relation_six_pattern(algebras):
    # vartheta([a (x) b, ab]) = [aba (x) b, abab] for involutions a, b
    for name in ("F2[C2]", "F2[C2xC2]", "F2[S3]"):
        A = algebras[name]
        hq = H.hq1(A)
        cok = H.CokerMu(A)
        invol = [A.basis_vec(i) for i in range(A.dim)
                 if A.mul(A.basis_vec(i), A.basis_vec(i)) == A.unit]
        for a in invol:
            for b in invol:
                cls = hq.class_of(H.hq_vector(A, H.tensor2(A, a, b), A.mul(a, b)))
                lhs = H.vartheta(A, cls)
                aba = A.mul(A.mul(a, b), a)
                abab = A.mul(A.mul(a, b), A.mul(a, b))
                rhs = cok.reduce(H.hq_vector(A, H.tensor2(A, aba, b), abab))
                assert lhs == rhs


def test_vartheta_kills_symmetric_nilpotent(algebras):
    # (0, c) with c = invol(c) and c^2 = 0 maps to zero in Coker(mu)
    A = algebras["F2[C2]"]
    hq = H.hq1(A)
    c = A.add(A.unit, A.basis_vec(1))
    assert A.mul(c, c) == A.zero_vec() and A.invol(c) == c
    cls = hq.class_of(H.hq_vector(A, {}, c))
    assert all(x == 0 for x in H.vartheta(A, cls))


def test_vartheta_boundary_kill(algebras):
    rng = random.Random(33)
    A = algebras["F2[C2xC2]"]
    hq = H.hq1(A)
    cok_mu = H.CokerMu(A)
    rel_rows = hq.context.basis()
    for v in hq.basis:
        ch2 = H.unflatten(A, 2, v[:A.dim * A.dim])
        c1 = v[A.dim * A.dim:]
        base = cok_mu.reduce(H.hq_vector(A, *H.vartheta_chain(A, ch2, c1)))
        for _ in range(10):
            pert = v
            for _ in range(2):
                row = rng.choice(rel_rows)
                pert = tuple((x + y) % 2 for x, y in zip(pert, row))
            ch2p = H.unflatten(A, 2, pert[:A.dim * A.dim])
            c1p = pert[A.dim * A.dim:]
            out = cok_mu.reduce(H.hq_vector(A, *H.vartheta_chain(A, ch2p, c1p)))
            assert out == base


def test_hq1_matches_sigma_structure():
    import arfkit.upsilon as ups
    import arfkit.groups.structure as gst
    for Gx in [G.cyclic_group(2), G.cyclic_group(3), G.cyclic_group(4),
               G.symmetric_group(3), G.dihedral_group(4)]:
        A = H.group_algebra(Gx, 2)
        hq = H.hq1(A)
        classes = gst.conjugacy_classes(Gx)
        total = 0
        seen = set()
        for cl in classes:
            z = min(cl, key=Gx.key)
            if z in seen:
                continue
            tp = gst.type_of(Gx, z)
            if tp == 3:
                zi = Gx.inv(z)
                for c2 in classes:
                    if zi in c2:
                        seen.add(min(c2, key=Gx.key))
            s = ups.sigma_summand(Gx, z)
            total += s.quotient_dim
        assert hq.dim == total


def test_algebra_json_roundtrip(algebras):
    A = algebras["F2[C2]"]
    B = H.algebra_from_json(A.to_json())
    assert B.mult == A.mult and B.involution == A.involution


# -- the sparse representation against the dense one ------------------------

# Computed with dense structure constants and dense relation rows (the
# representation before sparse constants): (dim, sha256 prefix of the
# repr of (basis, residues of 40 seeded vectors)).  The reduced echelon
# form is unique, so a residue may not change by a single byte.
DENSE_PINS = {
    ("F2[S3]", "H0"): (3, "ab71b6c294ff70b9"),
    ("F2[S3]", "H1"): (2, "5cf34cbd1f648adf"),
    ("F2[S3]", "HC0"): (3, "03c4004cda88bd9a"),
    ("F2[S3]", "HC1"): (1, "41db93605c24e6fa"),
    ("F2[S3]", "HQ1"): (4, "38e151e30f2abaad"),
    ("F2[S3]", "coker"): (2, "a12ccbba97862494"),
    ("F3[C3]", "H0"): (3, "f7f23d5e570ed98b"),
    ("F3[C3]", "H1"): (3, "d4300a3efdbe7608"),
    ("F3[C3]", "HC0"): (3, "1ba1c309a8edc7d1"),
    ("F3[C3]", "HC1"): (1, "12f578b2e809860b"),
    ("F3[C3]", "HQ1"): (1, "6b62003698f63516"),
    ("F2[Q8]", "H0"): (5, "8ab827daa4ce7d90"),
    ("F2[Q8]", "H1"): (7, "dacb841c179d4f3d"),
    ("F2[Q8]", "HC0"): (5, "57ac3d8210bc865c"),
    ("F2[Q8]", "HC1"): (4, "8a1da81bda36bfed"),
    ("F2[Q8]", "HQ1"): (9, "40ccb0a81ab55c9d"),
    ("F2[Q8]", "coker"): (1, "194e3e4f9d9d56b0"),
    ("M2(F2[C2])", "H0"): (2, "ce3d5f5fec0ed06e"),
    ("M2(F2[C2])", "H1"): (2, "c858ffd33c374662"),
    ("M2(F2[C2])", "HC0"): (2, "2c41c02150c87752"),
    ("M2(F2[C2])", "HC1"): (1, "7536799e83b596c5"),
    ("M2(F2[C2])", "HQ1"): (3, "c1d66b30ab88c7d8"),
    ("M2(F2[C2])", "coker"): (1, "b5e8ab36cc3a8a3b"),
}
JSON_PINS = {"F2[S3]": "e5bf58b212ce9e52", "M2(F2[C2])": "53a8024921a28a18",
             "F3[C3]": "63df3924c2ce706a"}


def _pinned_algebras():
    return {
        "F2[S3]": H.group_algebra(G.symmetric_group(3), 2),
        "F3[C3]": H.group_algebra(G.cyclic_group(3), 3),
        "F2[Q8]": H.group_algebra(G.metacyclic_group(4, 2, 3, 2, name="Q8"), 2),
        "M2(F2[C2])": H.matrix_algebra(H.group_algebra(G.cyclic_group(2), 2), 2),
    }


def _digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def test_homology_matches_dense_pins():
    got = {}
    for name, A in _pinned_algebras().items():
        for k in ("H0", "H1", "HC0", "HC1", "HQ1"):
            hs = H.homology(A, k)
            rng = random.Random(f"{name}/{k}")
            res = [hs.reduce(tuple(rng.randrange(A.p) for _ in range(hs.ambient_dim)))
                   for _ in range(40)]
            got[(name, k)] = (hs.dim, _digest((hs.basis, res)))
        if A.p == 2:
            cok = H.coker_one_plus_vartheta(A)
            rng = random.Random(f"{name}/coker")
            vecs = [tuple(rng.randrange(2) for _ in range(cok.hq.ambient_dim))
                    for _ in range(40)]
            res = [(cok.coker_mu.reduce(v), cok.reduce(v)) for v in vecs]
            got[(name, "coker")] = (cok.dim, _digest((cok.basis, res)))
        if name in JSON_PINS:
            text = json.dumps(A.to_json()).encode()
            assert hashlib.sha256(text).hexdigest()[:16] == JSON_PINS[name], name
    assert got == DENSE_PINS


def _dense_mul(p, table, x, y):
    """sum_ij x_i y_j table[i][j], table[i][j] a dense coefficient list."""
    out = [0] * len(x)
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            for k, c in enumerate(table[i][j]):
                out[k] += a * b * c
    return tuple(v % p for v in out)


def test_sparse_mul_matches_dense_reference():
    rng = random.Random(41)
    for p in (2, 3):
        for d in (1, 2, 4, 6):
            # arbitrary constants, not reduced mod p; the axioms are not checked
            table = [[[rng.choice([0, 0, 0, 1, -1, p + 1, 7]) for _ in range(d)]
                      for _ in range(d)] for _ in range(d)]
            invol = [[rng.choice([0, 0, 1, 5]) for _ in range(d)] for _ in range(d)]
            A = H.FiniteAlgebra(p, [str(i) for i in range(d)],
                                [[enumerate(v) for v in row] for row in table],
                                [1] + [0] * (d - 1), [enumerate(r) for r in invol],
                                check=False)
            for _ in range(30):
                x = tuple(rng.randrange(-2, 2 * p) for _ in range(d))
                y = tuple(rng.randrange(-2, 2 * p) for _ in range(d))
                assert A.mul(x, y) == _dense_mul(p, table, x, y)
                ref = [sum(a * invol[i][k] for i, a in enumerate(x)) % p for k in range(d)]
                assert A.invol(x) == tuple(ref)
    # group algebras: e_g e_h = e_gh and invol(e_g) = e_(g^-1)
    for Gx in (G.symmetric_group(3), G.dihedral_group(4)):
        A = H.group_algebra(Gx, 2)
        els = Gx.elements()
        for i, g in enumerate(els):
            assert A.invol(A.basis_vec(i)) == A.basis_vec(els.index(Gx.inv(g)))
            for j, h in enumerate(els):
                assert A.mul(A.basis_vec(i), A.basis_vec(j)) == \
                    A.basis_vec(els.index(Gx.mul(g, h)))


def test_matrix_algebra_mul_is_matrix_product():
    """M_2(R) multiplies as matrices over R, for the commutative F_3[C3] and
    the non-commutative F_2[S3], whose entries must not commute; its
    involution is the conjugate transpose."""
    for R in (H.group_algebra(G.cyclic_group(3), 3), H.group_algebra(G.symmetric_group(3), 2)):
        A = H.matrix_algebra(R, 2)
        rng = random.Random(43)

        def entries(x):       # x in M_2(R) -> {(i, j): element of R}
            out = {(i, j): [0] * R.dim for i in range(2) for j in range(2)}
            for t, c in enumerate(x):
                i, j, s = A.base_basis[t]
                out[(i, j)][s] = c
            return out

        for _ in range(20):
            x = tuple(rng.randrange(R.p) for _ in range(A.dim))
            y = tuple(rng.randrange(R.p) for _ in range(A.dim))
            X, Y, XY = entries(x), entries(y), entries(A.mul(x, y))
            for i in range(2):
                for l in range(2):
                    want = R.add(R.mul(X[(i, 0)], Y[(0, l)]), R.mul(X[(i, 1)], Y[(1, l)]))
                    assert tuple(XY[(i, l)]) == want, R.name
            star = entries(A.invol(x))
            assert all(tuple(star[(i, j)]) == R.invol(tuple(X[(j, i)]))
                       for i in range(2) for j in range(2)), R.name


def _boundary_reference(A, k, chain):
    """b face by face through dense products of basis vectors."""
    out = {}
    for key, c in chain.items():
        xs = [A.basis_vec(i) for i in key]
        faces = [xs[:i] + [A.mul(xs[i], xs[i + 1])] + xs[i + 2:] for i in range(k - 1)]
        faces.append([A.mul(xs[-1], xs[0])] + xs[1:-1])
        for i, face in enumerate(faces):
            out = H.t_add(A.p, out, H.t_scale(A.p, H.tensor_list(A, face), (-1) ** i * c))
    return out


def _dense_row(A, row, ncols):
    """A relation row, packed (F_2) or sparse, as a coefficient tuple."""
    if A.p == 2:
        assert type(row) is int
        return tuple(row >> col & 1 for col in range(ncols))
    return tuple(row.get(col, 0) % A.p for col in range(ncols))


def test_boundary_and_b2_rows_match_dense_reference():
    """`boundary` against face-by-face products, and the rows of `_b2_rows`
    against `boundary`.  A group algebra writes no F_2 row (`ColumnForms`
    reads the rows by their columns), so over F_2 its rows are those of
    its constructor copy, checked against the group algebra's products."""
    from arfkit.homology.chains import _b2_rows
    rng = random.Random(47)
    groups = {"F2[S3]": G.symmetric_group(3), "F3[C3]": G.cyclic_group(3),
              "F2[Q8]": G.metacyclic_group(4, 2, 3, 2, name="Q8")}
    for name, A in _pinned_algebras().items():
        d = A.dim
        rows = list(_b2_rows(_constructor_copy(groups[name], A) if name in groups else A))
        triples = [(i, s, k) for i in range(d) for s in A.middles for k in range(d)]
        assert len(rows) == len(triples)
        for row, key in zip(rows, triples):
            dense = H.flatten(A, 2, _boundary_reference(A, 3, {key: 1}))
            assert _dense_row(A, row, d * d) == dense
        for k in (2, 3, 4):
            for _ in range(20):
                chain = {tuple(rng.randrange(d) for _ in range(k)): rng.randrange(1, A.p + 1)
                         for _ in range(3)}
                assert H.boundary(A, k, chain) == _boundary_reference(A, k, chain)


# a Latin square with identity 0 and two-sided inverses that is not
# associative: (1*1)*2 = 2 but 1*(1*2) = 1*3 = 4
LOOP5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1],
         [4, 3, 1, 2, 0]]


def test_planted_axiom_failures_still_raise():
    base = H.group_algebra(G.cyclic_group(3), 2).to_json()
    # e1 e1 = e2, e1 e2 = 0, e2 e1 = e1, e2 e2 = 0: (e1 e1) e1 = e1 but e1 (e1 e1) = 0
    e = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    z = [0, 0, 0]
    nonassoc = dict(base, involution=None,
                    mult=[[e[0], e[1], e[2]], [e[1], e[2], z], [e[2], e[1], z]])
    with pytest.raises(AlgebraError, match="associativity fails"):
        H.algebra_from_json(nonassoc)
    # e1 -> e2 -> e2 does not square to 1
    with pytest.raises(AlgebraError, match="does not square to 1"):
        H.algebra_from_json(dict(base, involution=[e[0], e[2], e[2]]))
    # the identity is not an anti-homomorphism of the non-commutative F2[S3]
    s3 = H.group_algebra(G.symmetric_group(3), 2).to_json()
    with pytest.raises(AlgebraError, match="not an anti-homomorphism"):
        H.algebra_from_json(dict(s3, involution=[[int(i == j) for j in range(6)]
                                                 for i in range(6)]))
    with pytest.raises(AlgebraError, match="unit law fails"):
        H.algebra_from_json(dict(base, unit=[0, 1, 0]))
    # an algebra from JSON checks every middle.  Here e1 e1 = e1 e2 = e2 e1
    # = 0 and e2 e2 = 1: (e2 e2) e1 = e1 but e2 (e2 e1) = 0.  Only the middle
    # e2 fails, and products of 1 and e1 never reach e2, so a check on the
    # middles 1, e1 alone passes.
    assert list(H.algebra_from_json(base).middles) == [0, 1, 2]
    only_e2 = [[e[0], e[1], e[2]], [e[1], z, z], [e[2], z, e[0]]]
    with pytest.raises(AlgebraError, match="associativity fails"):
        H.algebra_from_json(dict(base, involution=None, mult=only_e2))
    A = H.FiniteAlgebra(2, ["1", "a", "b"], [[enumerate(v) for v in row] for row in only_e2],
                        [1, 0, 0], check=False)
    A.middles = (0, 1)
    A._validate()


def _validate_table(A):
    """The check group_algebra ran on its index table before it trusted its
    group's check, kept as the reference: `_validate` on the table, e_i e_j
    being e_table[i][j], the unit one basis element and the involution a
    permutation of the basis."""
    T, d, middles = A.table, A.dim, A.middles
    one = A.unit.index(1) if sum(A.unit) == 1 else None
    if one is None or T[one] != list(range(d)) or [row[one] for row in T] != T[one]:
        raise AlgebraError("unit law fails")
    for j in middles:
        Tj = T[j]
        for Ti in T:
            # (e_i e_j) e_k = e_i (e_j e_k) for every k
            if T[Ti[j]] != [Ti[jk] for jk in Tj]:
                raise AlgebraError("associativity fails")
    if A.involution is None:
        return
    inv = [v[0][0] if len(v) == 1 else None for v in A.involution]
    if any(k is None or inv[k] != i for i, k in enumerate(inv)):
        raise AlgebraError("involution does not square to 1")
    if inv[one] != one:
        raise AlgebraError("involution is not an anti-homomorphism")
    for s in middles:
        left = T[inv[s]]
        # invol(e_i e_s) = invol(e_s) invol(e_i)
        if any(inv[Ti[s]] != left[k] for Ti, k in zip(T, inv)):
            raise AlgebraError("involution is not an anti-homomorphism")


def _identity_and_inverses_only(self):
    """A planted FiniteTableGroup._validate: no law checked, the identity
    taken to be 0 and the inverses read off the rows."""
    self._identity = 0
    self._inv = [row.index(0) for row in self.table]


def test_group_algebra_runs_no_check(monkeypatch):
    """group_algebra checks no law, and the table check it used to run
    still passes on every group algebra it builds here."""
    calls = []
    real = H.FiniteAlgebra._validate

    def counting(self):
        calls.append(self.name)
        return real(self)

    monkeypatch.setattr(H.FiniteAlgebra, "_validate", counting)
    for Gx in G.groups_upto(16) + [G.symmetric_group(4)]:
        for p in (2, 3):
            A = H.group_algebra(Gx, p)
            assert A.table is Gx.table
            _validate_table(A)
    assert calls == []
    # the constructor still checks what no group has checked
    H.algebra_from_json(H.group_algebra(G.cyclic_group(3), 2).to_json())
    assert calls == ["F2[C3]"]


def test_the_group_refuses_every_table_fault_the_table_check_caught(monkeypatch):
    """group_algebra trusts FiniteTableGroup._validate.  Each fault planted
    in an index table below fails the table check group_algebra used to run
    (`_validate_table`) once a planted group check lets it through, and the
    group's own check, when it runs, does not let it stand."""
    assert _validate_table(H.group_algebra(G.symmetric_group(3), 2)) is None
    # LOOP5: a Latin square with two-sided inverses that is not associative,
    # which the table check saw on 2 middles of 5
    with pytest.raises(G.GroupError, match="^table is not associative$"):
        G.FiniteTableGroup(list("eabcd"), LOOP5)
    # S3's table with two entries of a row swapped
    S3 = G.symmetric_group(3)
    els = S3.elements()
    labels = [S3.format_element(g) for g in els]
    table = [[els.index(S3.mul(a, b)) for b in els] for a in els]
    swapped = [row[:] for row in table]
    swapped[1][2], swapped[1][3] = table[1][3], table[1][2]
    with pytest.raises(G.GroupError, match="^table is not associative$"):
        G.FiniteTableGroup(labels, swapped)
    real = G.FiniteTableGroup._validate
    monkeypatch.setattr(G.FiniteTableGroup, "_validate", _identity_and_inverses_only)
    loop = G.FiniteTableGroup(list("eabcd"), LOOP5)
    assert len(generating_set(loop)) == 2
    for Gx in (loop, G.FiniteTableGroup(labels, swapped)):
        with pytest.raises(AlgebraError, match="^associativity fails$"):
            _validate_table(H.group_algebra(Gx, 2))
    # S3's inverses with two of them swapped: an involution that is no
    # anti-homomorphism, or a map that does not square to 1.  No table
    # carries them: the group's own check reads the inverses off the rows,
    # and they are S3's
    for x, y, fault in ((1, 2, "is not an anti-homomorphism"),
                        (1, 3, "does not square to 1")):
        def wrong_inverse(self, x=x, y=y):
            _identity_and_inverses_only(self)
            self._inv[x], self._inv[y] = self._inv[y], self._inv[x]

        monkeypatch.setattr(G.FiniteTableGroup, "_validate", wrong_inverse)
        planted = G.FiniteTableGroup(labels, table)
        with pytest.raises(AlgebraError, match=f"^involution {fault}$"):
            _validate_table(H.group_algebra(planted, 2))
        wrong = list(planted._inv)
        real(planted)
        assert planted._inv == [S3.inv(g) for g in els] != wrong
        _validate_table(H.group_algebra(planted, 2))


def _validated_on(data, middles):
    """The algebra of a JSON description, checked on the given middles only
    (algebra_from_json checks every middle)."""
    invol = data.get("involution")
    A = H.FiniteAlgebra(data["p"], data["labels"],
                        [[enumerate(v) for v in row] for row in data["mult"]], data["unit"],
                        None if invol is None else [enumerate(r) for r in invol], check=False)
    A.middles = middles
    A._validate()
    return A


def test_planted_axiom_faults_raise_on_every_path():
    """Each error of _validate, planted in F_2[S3] and F_3[S3] checked on the
    generator middles (packed and sparse tables) and in F_2[S3] from JSON
    (every middle); then the faults that only one check can see."""
    e = [[int(i == j) for j in range(6)] for i in range(6)]
    for p in (2, 3):
        A = H.group_algebra(G.symmetric_group(3), p)
        assert len(A.middles) < A.dim
        base = A.to_json()
        swapped = [list(row) for row in base["mult"]]
        swapped[3][4], swapped[3][5] = swapped[3][5], swapped[3][4]
        not_square = [list(r) for r in base["involution"]]
        not_square[3] = e[3]            # e3 -> e3 and e4 -> e3
        plants = [("unit law fails", dict(base, unit=e[1])),
                  ("associativity fails", dict(base, mult=swapped)),
                  ("does not square to 1", dict(base, involution=not_square)),
                  ("not an anti-homomorphism", dict(base, involution=e))]
        _validated_on(base, A.middles)
        for message, data in plants:
            with pytest.raises(AlgebraError, match=message):
                _validated_on(data, A.middles)
            if p == 2:
                with pytest.raises(AlgebraError, match=message):
                    H.algebra_from_json(data)
    # a one-sided unit: in the algebra of a right-zero semigroup (xy = y)
    # e_0 is a left unit only, in that of a left-zero one (xy = x) a right
    # unit only
    for mult in ([[e[j][:3] for j in range(3)] for _ in range(3)],
                 [[e[i][:3] for _ in range(3)] for i in range(3)]):
        with pytest.raises(AlgebraError, match="unit law fails"):
            H.algebra_from_json({"p": 2, "labels": list("abc"), "mult": mult,
                                 "unit": [1, 0, 0]})
    # invol(1) = 1 does not follow from the law on the middles: in
    # F_2[x]/(x^3) with the middle x, 1 -> 1 + x^2, x -> x, x^2 -> x^2
    # squares to 1 and satisfies invol(y x) = invol(x) invol(y) for every y
    trunc = {"p": 2, "labels": ["1", "x", "x2"], "unit": [1, 0, 0],
             "mult": [[[int(i + j == k) for k in range(3)] for j in range(3)]
                      for i in range(3)]}
    _validated_on(dict(trunc, involution=[r[:3] for r in e[:3]]), (1,))
    for check in (lambda data: _validated_on(data, (1,)), H.algebra_from_json):
        with pytest.raises(AlgebraError, match="not an anti-homomorphism"):
            check(dict(trunc, involution=[[1, 0, 1], [0, 1, 0], [0, 0, 1]]))


def _constructor_group_algebra(Gx, p):
    """F_p[G] the way group_algebra built it through the constructor: sparse
    entries sorted and packed by FiniteAlgebra, then checked on the middles
    1 and generating_set(G).  The reference for the tables and packed
    products a group algebra reads off the group table, and, with its
    middles (`_constructor_copy`), for the relation rows it never writes."""
    els = Gx.elements()
    idx = {g: i for i, g in enumerate(els)}
    mult = [[((idx[Gx.mul(g, h)], 1),) for h in els] for g in els]
    unit = [int(g == Gx.identity) for g in els]
    invol = [((idx[Gx.inv(g)], 1),) for g in els]
    A = H.FiniteAlgebra(p, [Gx.format_element(g) for g in els], mult, unit, invol,
                        name=f"F{p}[{getattr(Gx, 'name', '?')}]", check=False)
    A.middles = (idx[Gx.identity],) + tuple(idx[g] for g in generating_set(Gx))
    A._validate()
    return A


def test_group_algebra_tables_match_the_constructor():
    """A group algebra keeps its group's index table and no table of its
    own; the sparse tables it derives on first read, and its packed
    products and involution, are the constructor's."""
    groups = G.groups_upto(16) + [Gx for Gx, _ in large_j_groups().values()]
    rng = random.Random(53)
    for Gx in groups:
        for p in (2, 3):
            A, ref = H.group_algebra(Gx, p), _constructor_group_algebra(Gx, p)
            assert set(vars(A)) == {"p", "labels", "dim", "table", "one", "inverse",
                                    "unit", "name", "middles"}, (Gx.name, p)
            assert A.table is Gx.table and A.inverse == [Gx.inv(g) for g in Gx.elements()]
            for field in ("p", "labels", "dim", "mult", "unit", "involution", "name"):
                assert getattr(A, field) == getattr(ref, field), (Gx.name, p, field)
            assert "bits" not in vars(A) and "inv_bits" not in vars(A)
            if p == 3:
                continue
            d = A.dim
            assert [[A.basis_product(i, j) for j in range(d)] for i in range(d)] == ref.bits
            assert [A.invol_packed(1 << i) for i in range(d)] == ref.inv_bits
            for _ in range(8):
                x, y = rng.getrandbits(d), rng.getrandbits(d)
                assert A.times(x, y) == ref.times(x, y), Gx.name
                assert A.invol_packed(x) == ref.invol_packed(x), Gx.name
                assert fp.unpack(A.times(x, y), d) == ref.mul(fp.unpack(x, d), fp.unpack(y, d))


# -- boundary rows and the associativity check on generator middles --------


def _all_middles(A):
    """A fresh copy of A (nothing memoized) whose middles are every basis
    index: all d^3 rows b(e_i (x) e_j (x) e_k), the reference."""
    return H.FiniteAlgebra(A.p, A.labels, A.mult, A.unit, A.involution,
                           name=A.name, check=False)


def _relation_bases(A):
    """basis() of the H1, HC1 and HQ1 contexts and, over F_2, of the
    Coker(1 + vartheta) context, each with its basis of cycle classes."""
    out = [(s.context.basis(), s.basis)
           for s in (H.space(A, k) for k in ("H1", "HC1", "HQ1"))]
    if A.p == 2:
        cok = H.coker_one_plus_vartheta(A)
        out.append((cok.context.basis(), cok.basis))
    return out


def test_generator_middles_match_all_middles():
    groups = G.groups_upto(16) + [
        G.cyclic_group(18), G.dihedral_group(10), G.symmetric_group(4),
        G.builtin_group("ch1-order24"),
        G.direct_product(G.alternating_group_4(), G.cyclic_group(2)), G.cyclic_group(32)]
    algebras = [H.group_algebra(Gx, 2) for Gx in groups]
    assert all(len(A.middles) < A.dim for A in algebras if A.dim > 2)
    M = H.matrix_algebra(H.group_algebra(G.cyclic_group(2), 2), 2)
    assert list(M.middles) == list(range(M.dim))
    for A in [M, H.group_algebra(G.cyclic_group(3), 3)]:
        assert _relation_bases(A) == _relation_bases(_all_middles(A)), A.name
    for Gx, A in zip(groups, algebras):
        bases = _relation_bases(A)
        assert bases == _relation_bases(_all_middles(A)), A.name
        # the middles group_algebra set before: the identity as well
        one = Gx.elements().index(Gx.identity)
        assert (one in A.middles) == (Gx.order() == 1), Gx.name
        with_one = H.group_algebra(Gx, 2)
        with_one.middles = (one,) + A.middles
        assert bases == _relation_bases(with_one), A.name


# the groups whose last generator middle is cut: a planted fault
CUT_GROUPS = [G.symmetric_group(3), G.metacyclic_group(4, 2, 3, 2, name="Q8"),
              G.dihedral_group(4), G.abelian_group([4, 2]), G.abelian_group([3, 3])]


def test_dropping_a_generator_middle_changes_a_dimension():
    """Planted fault: without its last generator middle, the boundary rows of
    each group algebra below no longer span b(T_3), and H1 or HQ1 changes
    dimension.  The middle 1 is not among them to drop: in a finite group 1
    is a product of generators (a power of one), so its rows lie in the
    span of the generators' rows, and test_generator_middles_match_all_middles
    checks that adding it changes no basis.  (C1 is the exception: it has no
    generators, and its only middle is 1.)"""
    for Gx in CUT_GROUPS:
        A = H.group_algebra(Gx, 2)
        cut = H.group_algebra(Gx, 2)
        cut.middles = A.middles[:-1]
        dims = [(H.space(B, "H1").dim, H.space(B, "HQ1").dim) for B in (A, cut)]
        assert dims[0] != dims[1], Gx.name
        # the walk misses columns then; with unknowns of their own they give
        # the quotient of the rows that are written, as the elimination does
        assert _relation_bases(cut) == _relation_bases(_constructor_copy(Gx, cut)), Gx.name


# -- column forms against the relation elimination --------------------------


def _constructor_copy(Gx, A):
    """The group algebra A of Gx built by the `FiniteAlgebra` constructor
    (`_constructor_group_algebra`), with A's middles: its H_1, HC_1, HQ_1
    and cokernels eliminate the relation rows (`chains._quotient`), the
    reference for `ColumnForms`, and its F_2 rows are written from its
    packed tables."""
    B = _constructor_group_algebra(Gx, A.p)
    B.middles = A.middles
    return B


def _contexts(A):
    """(context, basis rows) of H1, HC1, HQ1, Coker(mu) and Coker(1 +
    vartheta) of A (Coker(mu) keeps the HQ_1 basis rows)."""
    out = [(s.context, s.basis_rows) for s in (H.space(A, k) for k in ("H1", "HC1", "HQ1"))]
    cok = H.coker_one_plus_vartheta(A)
    return out + [(cok.coker_mu.context, cok.hq.basis_rows), (cok.context, cok.basis_rows)]


def test_column_forms_match_the_rref_path():
    """Every basis row, every reduced echelon row of the relations and the
    residues of seeded vectors are the ones of the elimination, on the
    catalogue, the J >= 3 groups and D32."""
    groups = G.groups_upto(16) + [Gx for Gx, _ in large_j_groups().values()] + [
        G.dihedral_group(32)]
    for Gx in groups:
        A = H.group_algebra(Gx, 2)
        rng = random.Random(Gx.name)
        for (ctx, rows), (ref, ref_rows) in zip(_contexts(A), _contexts(_constructor_copy(Gx, A))):
            assert isinstance(ctx, forms.ColumnForms), Gx.name
            assert isinstance(ref, fp.QuotientContext), Gx.name
            assert rows == ref_rows and ctx.quotient_dim == ref.quotient_dim, Gx.name
            units = [1 << j for j in range(ctx.dim)]
            echelon = [u ^ r for u in units if (r := ctx.reduce_packed(u)) != u]
            assert echelon == ref.space.packed_basis(), Gx.name
            for _ in range(8):
                v = rng.getrandbits(ctx.dim)
                assert ctx.reduce_packed(v) == ref.reduce_packed(v), Gx.name
            v = tuple(rng.randrange(2) for _ in range(ctx.dim))
            assert ctx.reduce(v) == ref.reduce(v), Gx.name


def test_column_forms_reject_what_fp_rejects():
    A = H.group_algebra(G.symmetric_group(3), 2)
    ctx = H.space(A, "HQ1").context
    for bad in (-1, 1 << ctx.dim):
        with pytest.raises(ValueError):
            ctx.reduce_packed(bad)
    with pytest.raises(ValueError):
        ctx.reduce((0,) * (ctx.dim - 1))


# -- the forest cycles and the column-read rows against their references ----

# columns per block of kernel forms that `_kernel_independent` writes
SPAN = 1024


def _kernel_independent(ctx, equations):
    """The cycles of `ColumnForms` before the spanning forest, kept as the
    reference for `ColumnForms.cycles`: `independent` of the basis of
    `fp.kernel_packed(equations, dim)`, without writing its vectors.  The
    one for a non-pivot column f of the reduced equations is e_f plus the
    pivots j whose row has bit f, so its form is q(f) plus those q(j),
    reduced modulo C; the forms are written a block of columns at a time,
    and only the kept vectors are written out."""
    q, dim, modulo = ctx.q, ctx.dim, ctx.forms.reduce_packed
    reduced = fp.Subspace(dim, 2, equations).packed_basis()
    pivots = [(r & -r).bit_length() - 1 for r in reduced]
    rest = [(modulo(q[j]), r ^ 1 << j) for j, r in zip(pivots, reduced)]
    skip = set(pivots)
    free = [f for f in range(dim) if f not in skip]

    def images():
        for a in range(0, dim, SPAN):
            block = [modulo(v) for v in q[a:a + SPAN]]
            for qj, r in rest:
                for f in ones(r >> a & (1 << SPAN) - 1):
                    block[f] ^= qj
            for f in free[bisect_left(free, a):bisect_left(free, a + SPAN)]:
                yield block[f - a]

    most = ctx.quotient_dim - len(reduced)
    out = {free[k]: 1 << free[k] for k in ctx._choose(images(), most)}
    kept = sum(out.values())
    for j, r in zip(pivots, reduced):
        for f in ones(r & kept):
            out[f] |= 1 << j
    return list(out.values())


def _forest_groups():
    """The catalogue, each under three seeded relabellings, S5 and C2^7."""
    rng = random.Random(73)
    return [_relabelled(rng, Gx)[0] for Gx in G.groups_upto(16) for _ in range(3)] + [
        G.symmetric_group(5), G.abelian_group([2] * 7)]


def test_forest_cycles_are_the_eliminated_kernels(monkeypatch):
    """`ColumnForms.cycles` reads fp's cycles off a spanning forest: the
    basis rows of H1, HC1 and HQ1 are those of the eliminated cycle
    equations (`_kernel_independent`) bit for bit, and the sweep is told to
    stop at exactly the number of cycles it keeps."""
    calls = []
    choose = forms.ColumnForms._choose

    def counted(self, images, most=None):
        kept = choose(self, images, most)
        calls.append((most, len(kept)))
        return kept

    monkeypatch.setattr(forms.ColumnForms, "_choose", counted)
    groups = _forest_groups()
    assert len(groups) == 128
    for Gx in groups:
        A = H.group_algebra(Gx, 2)
        comm = chains._commutator_rows(A)
        invol = [(1 << i) ^ A.invol_packed(1 << i) for i in range(A.dim)]
        for kind, columns in (("H1", comm), ("HC1", comm), ("HQ1", comm + invol)):
            calls.clear()
            hs = H.space(A, kind)
            assert calls == [(hs.dim, hs.dim)], (Gx.name, kind)
            ref = _kernel_independent(hs.context, chains._equations(A, columns))
            assert hs.basis_rows == ref, (Gx.name, kind)


def test_column_read_hq1_forms_are_the_row_forms():
    """`forms._hq1_forms` reads each f1 and f2 row by its columns; the forms
    are those of the packed rows of `chains._hq1_rows` on the constructor
    copy, as sets."""
    rng = random.Random(79)
    for Gx in G.groups_upto(16) + [_relabelled(rng, G.symmetric_group(4))[0]]:
        A = H.group_algebra(Gx, 2)
        ctx = H.space(A, "HQ1").context
        got = set(forms._hq1_forms(A, ctx.q))
        rows = chains._hq1_rows(_constructor_copy(Gx, A))
        assert got == set(map(ctx._form, rows)), Gx.name


def test_column_forms_skip_only_the_walks_zero_triples():
    """The walk takes d - |middles| steps (s, k), and the triples of each
    give d zero forms; `_triple_forms` skips exactly those, so the set of
    distinct constraints is unchanged on the catalogue."""
    for Gx in G.groups_upto(16):
        A = H.group_algebra(Gx, 2)
        d, middles = A.dim, list(A.middles)
        cols, _, steps = forms._walk(A)
        assert len(steps) == d - len(middles), Gx.name
        every = list(forms._triple_forms(A, cols, set()))
        taken = {middles.index(s) * d + k for s, k in (divmod(st, d) for st in steps)}
        assert all(every[i] == [0] * d for i in taken), Gx.name
        kept = list(forms._triple_forms(A, cols, steps))
        assert kept == [f for i, f in enumerate(every) if i not in taken], Gx.name
        chain = itertools.chain.from_iterable
        assert set(fp.distinct(chain(kept))) == set(fp.distinct(chain(every))), Gx.name


def test_h0_commutators_at_the_middles_span_all_pairs():
    """H_0 and HC_0 divide by [e_i, e_s] for the middles s only: the
    contexts and bases are those of all d^2 commutators, on the dense-pin
    algebras (M2(F_2[C2]) and F_3[C3] among them) and the catalogue."""
    algebras = list(_pinned_algebras().values()) + [
        H.group_algebra(Gx, 2) for Gx in G.groups_upto(16)]
    assert any(len(A.middles) < A.dim for A in algebras if A.p == 3)
    for A in algebras:
        d = A.dim
        cycles = [1 << i if A.p == 2 else fp.unit(d, i) for i in range(d)]
        ref = chains._quotient(A, d, chains._commutator_rows(A))
        basis = chains.vectors(A.p, d, ref.independent(cycles))
        for kind in ("H0", "HC0"):
            hs = H.homology(A, kind)
            assert hs.context.basis() == ref.basis(), (A.name, kind)
            assert hs.basis == basis, (A.name, kind)


# -- H_0, Coker(mu), HC_1 and (1 + vartheta) as forms against the rows -------

def _forms_path_algebras():
    """(F_2[G], whether its middles generate G) for the catalogue, the J >= 3
    groups, the random battery's draws, and the algebras of CUT_GROUPS with
    their last generator middle cut."""
    groups, _, large = battery_draws()
    for Gx in (G.groups_upto(16) + [Gx for Gx, _ in large_j_groups().values()]
               + groups + large):
        yield H.group_algebra(Gx, 2), True
    for Gx in CUT_GROUPS:
        cut = H.group_algebra(Gx, 2)
        cut.middles = cut.middles[:-1]
        yield cut, False


def test_h0_from_the_classes_is_the_commutator_elimination():
    """H_0 and HC_0 of an F_2 group algebra are read off the orbits of the
    middles' conjugation (`forms.class_quotient`): the reduced echelon rows,
    the residues and the cycle basis are those of the elimination of the
    commutators [e_i, e_s] (`chains._quotient`), also where the middles are
    cut and the orbits are not the classes."""
    rng = random.Random(83)
    for A, _ in _forms_path_algebras():
        d = A.dim
        ref = chains._quotient(A, d, chains._commutator_rows(A, A.middles))
        cycles = ref.independent([1 << i for i in range(d)])
        for kind in ("H0", "HC0"):
            hs = H.homology(A, kind)
            assert hs.context.space.packed_basis() == ref.space.packed_basis(), (A.name, kind)
            assert hs.basis_rows == cycles, (A.name, kind)
            for _ in range(4):
                v = rng.getrandbits(d)
                assert hs.context.reduce_packed(v) == ref.reduce_packed(v), (A.name, kind)


def test_middle_polarizations_span_every_pair():
    """Coker(mu) divides HQ_1 by the e_i (x) e_i and the polarizations at
    the middles only, and HC_1 divides H_1 by those polarizations
    (`forms.polarizations`): the constraints span what every pair of
    `operations._mu_pairs` (every i < j for HC_1) spans.  Where the middles
    are cut the walk misses columns, every pair is written, and the middles'
    pairs alone would span less on some of those algebras."""
    short = []
    for A, walked in _forms_path_algebras():
        d = A.dim
        hq, h1 = H.space(A, "HQ1").context, H.space(A, "H1").context
        assert hq.walked == h1.walked == walked, A.name
        every_mu = hq.extended_pairs(operations._mu_pairs(d))
        got = operations.CokerMu(A).context
        assert got.forms.space.packed_basis() == every_mu.forms.space.packed_basis(), A.name
        every_hc = h1.extended_pairs((i * d + j, j * d + i)
                                     for i in range(d) for j in range(i + 1, d))
        got = H.space(A, "HC1").context
        assert got.forms.space.packed_basis() == every_hc.forms.space.packed_basis(), A.name
        if not walked:
            middles = [(i * (d + 1),) * 2 for i in range(d)] + [
                (i * d + s, s * d + i) for s in A.middles for i in range(d) if i != s]
            short.append(hq.extended_pairs(middles).quotient_dim > every_mu.quotient_dim)
    assert any(short) and len(short) == len(CUT_GROUPS)


def test_vartheta_forms_are_the_row_forms():
    """`forms._vartheta_forms` writes Q(vartheta(v)) off q and the table; it
    is the form of `operations._one_plus_vartheta_rows` plus Q(v), row by
    row, on the HQ_1 basis rows and on seeded sparse rows over T_2 + T_1,
    and dense ones up to order 16.  The Coker(1 + vartheta) context and basis rows are those of
    the rows divided out (`extended`, `independent`)."""
    rng = random.Random(89)
    for A, _ in _forms_path_algebras():
        cok = H.coker_one_plus_vartheta(A)
        mu, rows = cok.coker_mu.context, cok.hq.basis_rows
        n = mu.dim
        # dense rows cost the square of their width in cross terms
        dense = [rng.getrandbits(n) for _ in range(3 if A.dim <= 16 else 0)]
        more = dense + [sum({1 << rng.randrange(n) for _ in range(rng.randint(1, 8))})
                        for _ in range(4)]
        for some in (rows, more):
            got = forms._vartheta_forms(A, mu.q, some)
            ref = [mu._form(w ^ v)
                   for w, v in zip(operations._one_plus_vartheta_rows(A, some), some)]
            assert got == ref, A.name
        ref = mu.extended(operations._one_plus_vartheta_rows(A, rows))
        assert cok.context.forms.space.packed_basis() == ref.forms.space.packed_basis(), A.name
        assert cok.basis_rows == ref.independent(rows), A.name


# -- Hochschild homology against the centralizer decomposition --------------


def _burghelea_algebras():
    """F_2[G] for the catalogue, the J >= 3 groups, the random battery's
    draws, C2^7, D64, S5 and S3^3 (the last two shared with the J test)."""
    groups, _, large = battery_draws()
    for Gx in (G.groups_upto(16) + [Gx for Gx, _ in large_j_groups().values()] + groups
               + large + [G.abelian_group([2] * 7), G.dihedral_group(64)]):
        yield Gx, H.group_algebra(Gx, 2)
    for Gx, _, A in past_order_100()[1:]:
        yield Gx, A


def _sharp_dim(Gx, members):
    """dim C_# = dim Hom(C, C2) of the subgroup C of Gx with these members:
    a brute-force count of homomorphisms to C2 up to 16 elements, the
    relation rows of `sharp_of_members` above that."""
    if len(members) <= 16:
        return G.hom_to_c2_count(G.table_from_mul(list(members), Gx.mul)).bit_length() - 1
    return gst.sharp_of_members(Gx, members).quotient_dim


def test_hochschild_homology_splits_over_centralizers():
    """Burghelea: HH_*(F_2[G]) is the sum over the classes [g] of
    H_*(C_G(g); F_2) (D. Burghelea, Comment. Math. Helv. 60 (1985)).  So
    dim H_0 is the number of classes and dim H_1 the sum of the
    dim C_G(g)_#, counted here by homomorphisms to C2, with no relation row,
    walk or elimination.  At chain level e_{g c^-1} (x) e_c is a cycle for
    each c in C_G(g); in each class part these have rank dim C_G(g)_# in
    H_1, and together they span H_1."""
    for Gx, A in _burghelea_algebras():
        sharp = {}              # centralizer members -> dim C_G(g)_#
        d, els = A.dim, Gx.elements()
        idx = {g: i for i, g in enumerate(els)}
        classes = G.conjugacy_classes(Gx)
        assert H.space(A, "H0").dim == len(classes), Gx.name
        h1 = H.space(A, "H1")
        total, every = 0, []
        for cls in classes:
            g = min(cls, key=Gx.key)
            members = gst.centralizer(Gx, g).members
            if members not in sharp:
                sharp[members] = _sharp_dim(Gx, members)
            cycles = [h1.context.reduce_packed(1 << idx[Gx.mul(g, Gx.inv(c))] * d + idx[c])
                      for c in members]
            assert fp.Subspace(d * d, 2, cycles).rank == sharp[members], (Gx.name, g)
            total += sharp[members]
            every += cycles
        assert h1.dim == total, Gx.name
        assert fp.Subspace(d * d, 2, every).rank == total, Gx.name


def test_format_vec_writes_coefficients_and_labels():
    A = H.group_algebra(G.cyclic_group(3), 3)
    assert A.format_vec([0, 0, 0]) == "0"
    assert A.format_vec([2, 1, 0]) == "2*1 + g"
    assert A.format_vec([0, 0, 1]) == "g^2"


def test_homology_classes_hash_by_their_reduced_vector():
    """Conjugate elements of S3 have one H_0 class: as many distinct
    classes as conjugacy classes, each hashed as its equals."""
    S3 = G.symmetric_group(3)
    A = H.group_algebra(S3, 2)
    h0 = H.space(A, "H0")
    classes = [h0.class_of(A.basis_vec(g)) for g in S3.elements()]
    assert len(set(classes)) == 3
    assert all(hash(a) == hash(b) for a in classes for b in classes if a == b)


def test_every_refusal_of_the_homology_operations_is_typed(tmp_path):
    """Each refusal of the homology modules raises AlgebraError with its
    message: an algebra without an involution, an unknown homology, theta
    and vartheta at the wrong characteristic or on the wrong class, Upsilon
    over odd p and a trace on an algebra that is not a matrix algebra.  On
    the command line an algebra file without an involution gets one
    `Error:` line and exit code 1 for HQ_1."""
    from click.testing import CliRunner
    from arfkit.cli import main

    F2, F3 = H.field_algebra(2), H.group_algebra(G.cyclic_group(3), 3)
    plain = H.FiniteAlgebra(2, ["1", "x"], [[((0, 1),), ((1, 1),)], [((1, 1),), ()]], [1, 0])
    S3 = H.group_algebra(G.symmetric_group(3), 2)
    h1 = H.space(S3, "H1")
    refusals = [
        (lambda: plain.invol((1, 1)), "no involution registered"),
        (lambda: H.quaternion_y(plain, 2, {(0, 1): 1}), "no involution registered"),
        (lambda: H.homology(F2, "H2"), "unknown homology 'H2'"),
        (lambda: H.hq1(plain), "HQ1 needs an anti-involution"),
        (lambda: H.trace_chain(S3, 1, {(0,): 1}), "expected an algebra built by matrix_algebra"),
        (lambda: H.theta_p_h0(S3, H.space(S3, "H0").class_of(S3.unit), p=3),
         "theta_p needs p = char of the algebra"),
        (lambda: H.vartheta(S3, h1.class_of(h1.basis[0])), "vartheta expects an HQ1 class"),
        (lambda: H.vartheta_chain(F3, {(0, 1): 1}, (0, 0, 0)), "vartheta is the p = 2 operation"),
        (lambda: H.coker_one_plus_vartheta(F3), "Upsilon needs characteristic 2"),
    ]
    for call, message in refusals:
        with pytest.raises(AlgebraError) as info:
            call()
        assert str(info.value) == message
    path = tmp_path / "no_involution.json"
    path.write_text(json.dumps(dict(plain.to_json(), involution=None)))
    r = CliRunner().invoke(main, ["homology", "HQ1", "--algebra", str(path)])
    assert r.exit_code == 1 and r.output == "Error: HQ1 needs an anti-involution\n"
    r = CliRunner().invoke(main, ["homology", "H1", "--algebra", str(path)])
    assert r.exit_code == 0 and r.output.startswith("H1(algebra): dimension ")
