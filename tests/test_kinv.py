import pathlib
import random

import pytest

import arfkit.arf as arf
import arfkit.groups as G
import arfkit.k2diff as k2diff
import arfkit.kinv as kinv
import arfkit.rings as R
from arfkit.arf import ArfError


@pytest.fixture(scope="module")
def order24():
    return G.group_order24()


def test_omega_paper_values(order24):
    e1 = arf.parse_expression(arf.GROUP, order24, "<1,1>")
    e2 = arf.parse_expression(arf.GROUP, order24, "<X^2*S, S>")
    w1, w2 = kinv.omega(e1), kinv.omega(e2)
    assert w1.display() == "[1]"
    assert w2.display() == "[X]"
    assert w1 != w2 and not w1.is_zero() and not w2.is_zero()


def test_kgclass_hash_and_set_follow_equality():
    rng = random.Random(3)
    for Gx in (G.group_order24(), G.group_plane(), G.group_c2_c_c12()):
        pool = Gx.elements() if Gx.is_finite else Gx.window_elements(2)

        def moved(z):      # another member of the class of z
            return Gx.conj(Gx.inv(Gx.mul(z, z)), rng.choice(pool))

        for _ in range(40):
            reps = [rng.choice(pool) for _ in range(rng.randint(0, 4))]
            a = kinv.KGClass(Gx, reps)
            b = kinv.KGClass(Gx, [moved(z) for z in reversed(reps)])
            z = rng.choice(pool)
            c = a + kinv.KGClass(Gx, [z, moved(z)])
            assert a == b == c and hash(a) == hash(b) == hash(c), (Gx.name, reps)
            assert len({a, b, c}) == 1
            d = a + kinv.KGClass(Gx, [z])
            assert d != a and len({a, b, c, d}) == 2


def test_omega_absorb_invariance(order24):
    invs = order24.involutions()
    for g in invs[:4]:
        for h in invs[:4]:
            e = arf.ArfExpression(arf.GROUP, order24, [(g, h)])
            hgh = order24.mul(order24.mul(h, g), h)
            e2 = arf.ArfExpression(arf.GROUP, order24, [(g, hgh)])
            assert kinv.omega(e) == kinv.omega(e2)


def test_omega_additive(order24):
    invs = order24.involutions()
    e1 = arf.ArfExpression(arf.GROUP, order24, [(invs[0], invs[1])])
    e2 = arf.ArfExpression(arf.GROUP, order24, [(invs[1], invs[2])])
    assert kinv.omega(e1 + e2) == kinv.omega(e1) + kinv.omega(e2)


def test_omega1_paper_formula():
    P = R.PolyRing(["a", "b"], coeff="F2")
    a, b = P.variable("a"), P.variable("b")
    e = arf.ArfExpression(arf.RING, P, [(a, b)])
    cls = kinv.omega1(e, n=3)
    Rn = cls.Rn
    # 1 + a b T^2 (1 - T + T^2 - ...) truncated
    geom = Rn.inverse(Rn.add(Rn.one(), Rn.t()))
    want = Rn.add(Rn.one(), Rn.mul(Rn.mul(Rn.scalar(P.mul(a, b)), Rn.t(2)), geom))
    assert cls.rep == want


def test_omega1_zero_pair():
    P = R.PolyRing(["a"], coeff="F2")
    e = arf.ArfExpression(arf.RING, P, [(P.variable("a"), P.zero())])
    assert kinv.omega1(e).rep == kinv.omega1(e).Rn.one()


def test_omega1_double_pair_trivial():
    P = R.PolyRing(["a", "b"], coeff="F2")
    a, b = P.variable("a"), P.variable("b")
    f = kinv.omega1(arf.ArfExpression(arf.RING, P, [(a, b)]), 2)
    sq = f.Rn.mul(f.rep, f.rep)
    assert kinv.unit_classes_equal(f.Rn, sq, f.Rn.one())
    assert kinv.lambda_(kinv.UnitClass(f.Rn, sq, "commutative")).is_zero()



def _omega1_reference(expr, n):
    """omega1 as the per-pair product in R_n with a series (1+T)^-1."""
    if expr.flavor == arf.GROUP:
        base = R.GroupAlgebra(expr.context)
        pairs = [(base.element(a), base.element(b)) for a, b in expr.pairs]
    else:
        base, pairs = expr.context, list(expr.pairs)
    Rn = R.TruncatedRing(base, n)
    geom = Rn.inverse(Rn.add(Rn.one(), Rn.t()))
    acc = Rn.one()
    for a, b in pairs:
        z = base.mul(base.involute(a), b)
        acc = Rn.mul(acc, Rn.add(Rn.one(), Rn.mul(Rn.mul(Rn.scalar(z), Rn.t(2)), geom)))
    return acc


def _random_poly(rng, P, terms, coeffs):
    return P.sum(P.monomial([rng.randint(0, 2) for _ in P.vars], rng.choice(coeffs))
                 for _ in range(terms))


def test_omega1_and_mu_match_the_series_product(monkeypatch):
    rng = random.Random(10)
    group_pools = [(Gx, Gx.involutions() if Gx.is_finite else Gx.involutions(window=3))
                   for Gx in (G.group_order24(), G.symmetric_group(4), G.group_c2_c_c12())]
    ZXY = R.PolyRing(["X", "Y"], coeff="Z")
    rings = [(ZXY, (-3, -2, -1, 1, 2, 3)), (k2diff.plane_ring(), (1,)),
             (R.PolyRing(["X"], coeff="F2"), (1,))]
    omega1_cases, mu_cases = [], []
    for n in range(2, 7):
        for Gx, pool in group_pools:
            for _ in range(20):
                pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(rng.randint(1, 5))]
                omega1_cases.append((arf.ArfExpression(arf.GROUP, Gx, pairs), n))
        for P, coeffs in rings:
            for _ in range(20):
                pairs = [(_random_poly(rng, P, 2, coeffs), _random_poly(rng, P, 2, coeffs))
                         for _ in range(rng.randint(1, 4))]
                omega1_cases.append((arf.ArfExpression(arf.RING, P, pairs), n))
                if n % 2 == 0:
                    mu_cases.append((R.TruncatedRing(P, n), _random_poly(rng, P, 3, coeffs)))
    want = [_omega1_reference(e, n) for e, n in omega1_cases]
    want_mu = []
    for Rn, z in mu_cases:
        geom = Rn.inverse(Rn.add(Rn.one(), Rn.t()))
        want_mu.append(Rn.add(Rn.one(), Rn.mul(Rn.mul(Rn.scalar(z), Rn.t(2)), geom)))
    calls = []
    series = R.TruncatedRing.try_inverse
    monkeypatch.setattr(R.TruncatedRing, "try_inverse",
                        lambda self, a: calls.append(a) or series(self, a))
    for (e, n), w in zip(omega1_cases, want):
        got = kinv.omega1(e, n)
        got.Rn.involute(got.rep)
        assert got.rep == w, (e.context.name, n, e.pairs)
    for (Rn, z), w in zip(mu_cases, want_mu):
        assert kinv.mu(Rn, z).rep == w, (Rn.name, z)
    assert calls == []
    # over Z the T^3.. coefficients carry signs and binomials C(k-1+m, m)
    x = ZXY.variable("X")
    e = arf.ArfExpression(arf.RING, ZXY, [(x, x), (x, ZXY.one()), (ZXY.one(), ZXY.one())])
    assert any(abs(c) > 1 for coeff in kinv.omega1(e, 6).rep for _, c in coeff)


def test_unit_class_hash_follows_group_equality():
    order24 = G.group_order24()
    e1 = arf.parse_expression(arf.GROUP, order24, "<X^2*S, S>")
    e2 = arf.parse_expression(arf.GROUP, order24, "<X^4*S, X^2*S>")
    f1, f2 = kinv.omega1(e1), kinv.omega1(e2)
    assert f1 == f2 and hash(f1) == hash(f2)
    invs = order24.involutions()
    values = [kinv.omega1(arf.ArfExpression(arf.GROUP, order24, [(g, h)]))
              for g in invs for h in invs]
    assert len(set(values)) == len({kinv.omega(arf.ArfExpression(arf.GROUP, order24, [(g, h)]))
                                     for g in invs for h in invs}) == 2
    assert len({hash(v) for v in values}) == 2


def test_unit_class_group_data_is_built_once(monkeypatch):
    # the group rewrites of the rewrite-battery workload (seed 1): eq and
    # hash of their omega1 values are those of class data built afresh, as
    # before, and each value builds its class data once
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "bench"))
    import workloads
    values = {}
    for kind, name, data in workloads.RewriteBattery(1).plan:
        if kind == "group-rewrite":
            Gx = values[name][0].Rn.base.G if name in values else G.builtin_group(name)
            pairs, rel, idx, params = data
            e = arf.ArfExpression(arf.GROUP, Gx, pairs)
            e2 = arf.apply_step(e, arf.DerivationStep(rel, idx, params))
            values.setdefault(name, []).extend([kinv.omega1(e), kinv.omega1(e2)])
    # the class data as every eq and hash used to build it
    fresh = {id(u): kinv.KGClass(u.Rn.base.G, list(u.rep[2]))
             for vals in values.values() for u in vals}
    built = []
    init = kinv.KGClass.__init__
    monkeypatch.setattr(kinv.KGClass, "__init__",
                        lambda self, *args: built.append(self) or init(self, *args))
    outcomes = set()
    for vals in values.values():
        for i, u in enumerate(vals):
            assert hash(u) == hash(fresh[id(u)])
            for v in vals[max(0, i - 12):i + 1]:
                assert (u == v) == (fresh[id(u)] == fresh[id(v)]) == (v == u)
                outcomes.add(u == v)
    assert outcomes == {True, False}
    assert len(built) == len(fresh)


def test_group_omega1_compares_without_the_lift(monkeypatch):
    # the group rewrites of the rewrite-battery workload (seed 1): eq and
    # hash of their omega1 values read the class data of the z_i, with no
    # product in F_2[G] and no lift to R_n; rep, read afterwards, is still
    # the per-pair series product
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "bench"))
    import workloads
    groups, exprs = {}, []
    for kind, name, data in workloads.RewriteBattery(1).plan:
        if kind == "group-rewrite":
            if name not in groups:
                groups[name] = G.builtin_group(name)
            pairs, rel, idx, params = data
            e = arf.ArfExpression(arf.GROUP, groups[name], pairs)
            exprs += [e, arf.apply_step(e, arf.DerivationStep(rel, idx, params))]
    calls = []
    for owner, attr in ((kinv, "_lift_u_powers"), (R.GroupAlgebra, "mul")):
        monkeypatch.setattr(owner, attr, lambda *args, f=getattr(owner, attr):
                            calls.append(f) or f(*args))
    values = {n: [kinv.omega1(e, n) for e in exprs] for n in range(2, 7)}
    outcomes = set()
    for vals in values.values():
        for i in range(0, len(vals), 2):
            assert vals[i] == vals[i + 1] and hash(vals[i]) == hash(vals[i + 1])
            if i and exprs[i - 2].context is exprs[i].context:
                outcomes.add(vals[i] == vals[i - 2])
    assert outcomes == {True, False} and calls == []
    monkeypatch.undo()
    for n, vals in values.items():
        for e, u in zip(exprs, vals):
            assert u.rep == _omega1_reference(e, n), (e.context.name, n, e.pairs)


def test_unit_class_forms_are_exclusive():
    # a group class is held by its z_i alone and a commutative class by its
    # rep: a group class given a rep, or no z_i, would read as trivial
    C2 = G.cyclic_group(2)
    Rn = R.TruncatedRing(R.GroupAlgebra(C2), 2)
    u = kinv.omega1(arf.ArfExpression(arf.GROUP, C2, [(0, 1)]))
    assert u != kinv.omega1(arf.ArfExpression(arf.GROUP, C2, []))
    for rep, zs in ((u.rep, None), (u.rep, [1]), (None, None)):
        with pytest.raises(ArfError):
            kinv.UnitClass(Rn, rep, "group", zs)
    with pytest.raises(ArfError):
        kinv.UnitClass(R.TruncatedRing(R.GF2, 2), None, "group", [1])
    for rep, zs in ((u.rep, [1]), (None, None)):
        with pytest.raises(ArfError):
            kinv.UnitClass(Rn, rep, "commutative", zs)
    assert kinv.UnitClass(Rn, None, "group", [1]) == u


@pytest.fixture(scope="module")
def contexts():
    FC2 = R.GroupAlgebra(G.cyclic_group(2))
    FX4 = R.TruncatedRing(R.GF2, 3, exotic=False)   # F2[X]/(X^4)
    return [FC2, FX4]


def test_lambda_mu_inverse_random(contexts):
    rng = random.Random(9)
    for base in contexts:
        basis, to_coords, from_coords = kinv.additive_basis(base)
        for n in (2, 4):
            Rn = R.TruncatedRing(base, n)
            for _ in range(500):
                z = base.zero()
                for b in basis:
                    if rng.random() < 0.5:
                        z = base.add(z, b)
                m = kinv.mu(Rn, z)
                assert kinv.lambda_(m) == kinv.cr_reduce(base, z)
                # mu(lambda(f)) = f as unit classes, for f = mu(z)
                lam = kinv.lambda_(m)
                z2 = base.mul(z, z)
                m2 = kinv.mu(Rn, z2)
                assert kinv.unit_classes_equal(Rn, m.rep, m2.rep)


def test_lambda_odd_truncation_rejected(contexts):
    Rn = R.TruncatedRing(contexts[0], 3)
    with pytest.raises(ArfError):
        kinv.lambda_(kinv.UnitClass(Rn, Rn.one(), "commutative"))


def test_mu_formula():
    base = R.GroupAlgebra(G.cyclic_group(2))
    Rn = R.TruncatedRing(base, 4)
    g = base.element(1)
    m = kinv.mu(Rn, g)
    # 1 + zT^2/(1+T) = 1 + zT^2 - zT^3 + zT^4 ...
    assert m.rep == (base.one(), base.zero(), g, g, g)


def test_normalize_unit_certificate():
    base = R.GroupAlgebra(G.cyclic_group(2))
    Rn = R.TruncatedRing(base, 4)
    g = base.element(1)
    z = base.add(base.one(), g)          # [z] = 0 in C(R)
    f = kinv.mu(Rn, z)
    mults = kinv.normalize_unit(Rn, f.rep)
    assert mults is not None
    acc = f.rep
    for m in mults:
        acc = Rn.mul(acc, m)
    assert acc == Rn.one()
    # nontrivial class has no certificate
    f2 = kinv.mu(Rn, g)
    assert kinv.normalize_unit(Rn, f2.rep) is None


def test_group_flavor_omega1(order24):
    e1 = arf.parse_expression(arf.GROUP, order24, "<X^2*S, S>")
    e2 = arf.parse_expression(arf.GROUP, order24, "<X^4*S, X^2*S>")
    # both have z in the class of X -> equal omega1
    assert kinv.omega1(e1) == kinv.omega1(e2)
    e3 = arf.parse_expression(arf.GROUP, order24, "<1, 1>")
    assert not (kinv.omega1(e1) == kinv.omega1(e3))


def test_h0_cokernel_examples():
    assert kinv.group_ring_h0_cokernel(G.cyclic_group(1)).dim == 1
    assert kinv.group_ring_h0_cokernel(G.cyclic_group(2)).dim == 1
    assert kinv.group_ring_h0_cokernel(G.cyclic_group(3)).dim == 1
    assert kinv.group_ring_h0_cokernel(G.cyclic_group(4)).dim == 1
    hc = kinv.group_ring_h0_cokernel(G.group_order24())
    # [1] and [X] survive: matches K(G) on the Arf image
    assert hc.dim == 2


def test_h0_cokernel_projection(order24):
    hc = kinv.group_ring_h0_cokernel(order24)
    X = order24.parse_element("X")
    v1 = hc.project({X: 1, order24.inv(X): 1})
    assert all(c == 0 for c in v1)            # pair g + g^-1 dies in H^0
    X2, X4 = order24.power(X, 2), order24.power(X, 4)
    assert hc.project({X2: 1}) == hc.project({X4: 1})   # [C] = [C^2]
    with pytest.raises(ArfError):
        hc.project({X: 1})                    # not an H^0 cycle


def test_cr_class_orbits():
    P = R.PolyRing(["X", "Y"], coeff="F2", laurent=True, involution="inverse")
    a = P.parse("X^2*Y^2")
    b = P.parse("X^-1*Y^-1")
    assert kinv.cr_reduce(P, a) == kinv.cr_reduce(P, b)
    PZ = R.PolyRing(["X", "Y"], coeff="Z")
    assert kinv.cr_reduce(PZ, PZ.parse("2*X")).is_zero()
    assert kinv.cr_reduce(PZ, PZ.parse("X^2")) == kinv.cr_reduce(PZ, PZ.parse("X"))
    # no inverse identification without the involution
    assert not kinv.cr_reduce(PZ, PZ.parse("X")).is_zero()


def test_cr_class_display_on_every_backend():
    """CRClass.display shows the canonical data of each C(R) backend: the
    monomial orbits of a polynomial ring, and the reduced coordinates of a
    group algebra, of F_2[T]/(T^3) and of F_2, read back as elements."""
    P = R.PolyRing(["X", "Y"], coeff="F2", laurent=True, involution="inverse")
    PZ = R.PolyRing(["X", "Y"], coeff="Z")
    S3 = G.symmetric_group(3)
    A = R.GroupAlgebra(S3)
    T = R.TruncatedRing(R.GF2, 2)
    for ring, x, shown in [
            (P, P.parse("X^2*Y^2 + X^-1 + 1 + Y^3"), "[X^-1*Y^-1] + [X^-1] + [Y^-3] + [1]"),
            (PZ, PZ.parse("X^4*Y^2 + 3*Y + 2*X"), "[Y] + [X^2*Y]"),
            (PZ, PZ.parse("2*X"), "0"),
            (A, A.element(0, 1, 3), "[(2 0 1)]"),
            (A, A.element(1, 2), "0"),
            (T, T.from_coeffs([1, 1, 1]), "[1 + T]"),
            (T, T.t(2), "0"),
            (R.GF2, 1, "[1]")]:
        assert kinv.cr_reduce(ring, x).display() == shown, (ring.name, x)
    e = arf.parse_expression(arf.RING, R.GF2, "<1, 1>")
    assert e.pairs == {(1, 1)} and kinv.omega(e).display() == "[1]"


def test_cr_classes_hash_as_their_equals():
    P = R.PolyRing(["X", "Y"], coeff="F2", laurent=True, involution="inverse")
    a, b = kinv.cr_reduce(P, P.parse("X^2*Y^2")), kinv.cr_reduce(P, P.parse("X^-1*Y^-1"))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1


def test_class_vectors_over_different_descriptors_do_not_add():
    """A class vector keys the other summand's representatives in its own
    group, so a sum across descriptors would read elements of one group as
    elements of another: omega(<1, g^2>) over C4 plus omega of an S3 pair
    gave 0, and so did a + c over two C4 descriptors, which are unequal."""
    C4, C4b, S3 = G.cyclic_group(4), G.cyclic_group(4), G.symmetric_group(3)
    a, c = (kinv.omega(arf.parse_expression(arf.GROUP, Gx, "<1, g^2>")) for Gx in (C4, C4b))
    s = kinv.omega(arf.parse_expression(arf.GROUP, S3, "<(1 0 2), (2 1 0)>"))
    assert not a.is_zero() and not s.is_zero() and a != c
    for x, y in ((a, s), (s, a), (a, c)):
        with pytest.raises(ArfError, match=r"^values over different descriptors$"):
            x + y
    assert (a + a).is_zero() and not (a + kinv.KGClass(C4)).is_zero()
