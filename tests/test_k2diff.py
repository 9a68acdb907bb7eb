import random

import pytest

import arfkit.arf as arf
import arfkit.groups as G
import arfkit.k2diff as k2
import arfkit.kinv as kinv
import arfkit.rings as R
from arfkit.arf import ArfError


ZXY = R.PolyRing(["X", "Y"], coeff="Z")
ZX = R.PolyRing(["X"], coeff="Z")     # carries the F2[X]-shaped instances
ZZ = R.PolyRing([], coeff="Z")        # the integers as the empty poly ring


def _rand_poly(ring, rng, terms=3, deg=2, coeff=2):
    lo = -deg if ring.laurent else 0
    acc = ring.zero()
    for _ in range(rng.randint(1, terms)):
        e = tuple(rng.randint(lo, deg) for _ in ring.vars)
        acc = ring.add(acc, ring.monomial(e, rng.randint(-coeff, coeff)))
    return acc


def test_lambda_structure_axioms():
    rng = random.Random(1)
    for ring in (ZXY, ZX, ZZ):
        lam = k2.lambda_structure(ring)
        for _ in range(400):
            a = _rand_poly(ring, rng)
            b = _rand_poly(ring, rng)
            # theta(a+b) = theta a + theta b + ab
            lhs = lam.theta2(ring.add(a, b))
            rhs = ring.add(ring.add(lam.theta2(a), lam.theta2(b)), ring.mul(a, b))
            assert lhs == rhs
            # theta(ab) = theta(a) b^2 + theta(b) a^2 - 2 theta(a) theta(b)
            lhs = lam.theta2(ring.mul(a, b))
            t = ring.mul(lam.theta2(a), lam.theta2(b))
            rhs = ring.sub(ring.add(ring.mul(lam.theta2(a), ring.mul(b, b)),
                                    ring.mul(lam.theta2(b), ring.mul(a, a))),
                           ring.add(t, t))
            assert lhs == rhs
            # psi^2 is a ring homomorphism
            assert lam.psi2(ring.mul(a, b)) == ring.mul(lam.psi2(a), lam.psi2(b))
            assert lam.psi2(ring.add(a, b)) == ring.add(lam.psi2(a), lam.psi2(b))


def test_theta2_on_variables():
    lam = k2.lambda_structure(ZXY)
    assert lam.theta2(ZXY.variable("X")) == ZXY.zero()


def test_no_lambda_structure_in_char2():
    F2X = R.PolyRing(["X"], coeff="F2")
    lam = k2.lambda_structure(F2X)
    with pytest.raises(R.RingError):
        lam.theta2(F2X.variable("X"))


def test_nu1_displayed_values():
    R1 = R.TruncatedRing(ZXY, 1, exotic=False)
    x = ZXY.variable("X")
    y = ZXY.variable("Y")
    t = R1.t()
    v = k2.nu1(k2.DSSymbol(R1, R1.mul(R1.scalar(x), t), R1.scalar(y)))
    assert v.form == k2.delta(ZXY, y).scale(x)
    assert v.extra == ZXY.zero()          # x^2 theta2(y) = 0 on variables
    v2 = k2.nu1(k2.DSSymbol(R1, R1.mul(R1.scalar(y), t), t))
    assert v2.form.is_zero() and v2.extra == y
    v3 = k2.nu1(k2.DSSymbol(R1, R1.zero(), R1.scalar(y)))
    assert v3.is_zero()


def test_nu2_displayed_values():
    R2 = R.TruncatedRing(ZXY, 2, exotic=False)
    x = ZXY.variable("X")
    y = ZXY.variable("Y")
    v = k2.nu2(k2.DSSymbol(R2, R2.mul(R2.scalar(x), R2.t()), R2.t()))
    assert v.form.is_zero() and v.extra == (x, k2.DifferentialForm(ZXY))
    v2 = k2.nu2(k2.DSSymbol(R2, R2.mul(R2.scalar(x), R2.t(2)), R2.scalar(y)))
    assert v2.form.is_zero()
    assert v2.extra == (ZXY.zero(), k2.delta(ZXY, y).scale(x))
    v3 = k2.nu2(k2.DSSymbol(R2, R2.mul(R2.scalar(x), R2.t()), R2.scalar(y)))
    assert v3.form == k2.delta(ZXY, y).scale(x)
    assert v3.extra[0] == ZXY.zero() and v3.extra[1].is_zero()


def test_ds_symbol_needs_ideal_component():
    R1 = R.TruncatedRing(ZXY, 1, exotic=False)
    with pytest.raises(ArfError):
        k2.DSSymbol(R1, R1.one(), R1.one())


def _rand_trunc(Rn, rng):
    ring = Rn.base
    coeffs = [_rand_poly(ring, rng, terms=2, deg=2, coeff=2)
              for _ in range(Rn.n + 1)]
    return Rn.from_coeffs(coeffs)


@pytest.mark.parametrize("ring,f2_shaped", [(ZZ, False), (ZX, True), (ZXY, False)],
                         ids=["Z", "F2[X]-shaped", "Z[X,Y]"])
def test_ds_relation_residuals(ring, f2_shaped):
    # no 2-lambda structure exists in characteristic 2, so the F2[X] leg
    # runs through its genuine 2-lambda lift Z[X] on 0/1-coefficient data
    rng = random.Random(17)
    coeff = 1 if f2_shaped else 2
    for n in (1, 2):
        Rn = R.TruncatedRing(ring, n, exotic=False)
        t = Rn.t()
        for i in range(120):
            a = _rand_poly(ring, rng, coeff=coeff)
            x = Rn.mul(Rn.scalar(a), t)
            if n == 2 and i % 2:
                x = Rn.add(x, Rn.mul(Rn.scalar(_rand_poly(ring, rng)), Rn.t(2)))
            y = _rand_trunc(Rn, rng)
            z = Rn.scalar(_rand_poly(ring, rng))
            assert k2.ds_relation_residual("antisymmetry", Rn, (x, y)).is_zero()
            assert k2.ds_relation_residual("additivity", Rn, (x, y, z)).is_zero()
            b, c = Rn.scalar(_rand_poly(ring, rng)), Rn.scalar(_rand_poly(ring, rng))
            assert k2.ds_relation_residual("multiplicativity", Rn, (x, b, c)).is_zero()


def test_nu1_inverse_roundtrip():
    R1 = R.TruncatedRing(ZXY, 1, exotic=False)
    rng = random.Random(23)
    for _ in range(50):
        a = _rand_poly(ZXY, rng)
        c = _rand_poly(ZXY, rng)
        syms = k2.nu1_inverse(R1, a, "Y", c)
        total = k2.nu_sum(syms)
        want_form = k2.delta(ZXY, ZXY.variable("Y")).scale(a)
        assert total.form == want_form
        assert total.extra == k2._r_mod2(ZXY, c)


def test_omega2_relations():
    assert k2.omega2(arf.ArfExpression(
        arf.REDUCED, ZXY, [(ZXY.variable("X"), ZXY.one())])).is_zero()
    two_x = ZXY.add(ZXY.variable("X"), ZXY.variable("X"))
    assert k2.omega2(arf.ArfExpression(
        arf.REDUCED, ZXY, [(two_x, ZXY.variable("Y"))])).is_zero()
    e = arf.ArfExpression(arf.REDUCED, ZXY,
                          [(ZXY.variable("X"), ZXY.variable("Y"))])
    assert not k2.omega2(e).is_zero()


def test_omega2_reduced_relation_battery():
    rng = random.Random(31)
    for _ in range(300):
        a = ZXY.monomial((rng.randint(0, 3), rng.randint(0, 3)))
        b = ZXY.monomial((rng.randint(0, 3), rng.randint(0, 3)))
        c = ZXY.monomial((rng.randint(0, 3), rng.randint(0, 3)))
        lhs = k2.omega2(arf.ArfExpression(arf.REDUCED, ZXY, [(a, ZXY.mul(b, c))]))
        rhs = k2.omega2(arf.ArfExpression(arf.REDUCED, ZXY,
                                          [(ZXY.mul(a, b), c), (ZXY.mul(a, c), b)]))
        assert lhs == rhs
        # swap, square shift, a b^2 absorption
        assert k2.omega2(arf.ArfExpression(arf.REDUCED, ZXY, [(a, b)])) == \
            k2.omega2(arf.ArfExpression(arf.REDUCED, ZXY, [(b, a)]))
        ax2 = ZXY.mul(a, ZXY.mul(c, c))
        bx2 = ZXY.mul(b, ZXY.mul(c, c))
        assert k2.omega2(arf.ArfExpression(arf.REDUCED, ZXY, [(ax2, b)])) == \
            k2.omega2(arf.ArfExpression(arf.REDUCED, ZXY, [(a, bx2)]))
        ab2 = ZXY.mul(a, ZXY.mul(b, b))
        assert k2.omega2(arf.ArfExpression(arf.REDUCED, ZXY, [(a, b)])) == \
            k2.omega2(arf.ArfExpression(arf.REDUCED, ZXY, [(a, ab2)]))


def test_partial_derivative_identity():
    rng = random.Random(37)
    for _ in range(300):
        f = ZXY.monomial((rng.randint(0, 3), rng.randint(0, 3)))
        g = ZXY.monomial((rng.randint(0, 3), rng.randint(0, 3)))
        lhs = k2.omega2(arf.ArfExpression(arf.REDUCED, ZXY, [(f, g)]))
        rhs = k2.omega2(arf.ArfExpression(arf.REDUCED, ZXY, [
            (ZXY.mul(f, ZXY.derivative(g, "X")), ZXY.variable("X")),
            (ZXY.mul(f, ZXY.derivative(g, "Y")), ZXY.variable("Y"))]))
        assert lhs == rhs


def test_phi2_congruence():
    rng = random.Random(41)
    for _ in range(200):
        a = ZXY.monomial((rng.randint(0, 2), rng.randint(0, 2)))
        b = ZXY.monomial((rng.randint(0, 2), rng.randint(0, 2)))
        f1 = k2.phi2(ZXY, a, b)
        f2 = k2.delta(ZXY, b).scale(ZXY.mul(ZXY.mul(a, a), b))
        d = f1 - f2
        dm = k2.DifferentialForm(ZXY, {v: ZXY.coefficients_mod2(c)
                                       for v, c in d.parts.items()})
        assert k2.exact_form_reduce(dm).is_zero()


def test_total_invariant_values():
    x, y = ZXY.variable("X"), ZXY.variable("Y")
    e = arf.ArfExpression(arf.RING, ZXY, [(x, y)])
    kpart, qpart = k2.total_invariant(e)
    assert kpart == kinv.cr_reduce(ZXY, ZXY.mul(x, y))
    assert not qpart.is_zero()
    e2 = arf.ArfExpression(arf.RING, ZXY, [(x, ZXY.one())])
    k2nd, q2nd = k2.total_invariant(e2)
    assert q2nd.is_zero() and k2nd == kinv.cr_reduce(ZXY, x)


def test_omega_quotient_decide_examples():
    ring = k2.plane_ring()
    zero = k2.DifferentialForm(ring)
    assert k2.omega_quotient_decide(zero) == ("Zero",)
    P = G.group_plane()
    e = arf.parse_expression(arf.GROUP, P, "<S, S*Y^2> + <S*X, S*X*Y^2>")
    _, q = k2.plane_group_invariant(e)
    assert not q.is_zero()
    e2 = arf.parse_expression(arf.GROUP, P, "<S, S*X^2*Y^2> + <S*X, S*X^3*Y^2>")
    _, q2 = k2.plane_group_invariant(e2)
    # in the free plane group these stay distinct (torsion was essential)
    assert not q2.is_zero()
    # a genuinely trivial combination: e + e
    _, q3 = k2.plane_group_invariant(e + e)
    assert q3.is_zero()


def test_psi_representation_map():
    P = G.group_plane()
    ring = k2.plane_ring()
    e = arf.parse_expression(arf.GROUP, P, "<S, S>")
    img = k2.psi_representation_map(e, ring)
    assert img.is_zero()      # <1,1> + <1,1> = 0 mod 2
    e2 = arf.parse_expression(arf.GROUP, P, "<X*Y*S, X*S>")
    img2 = k2.psi_representation_map(e2, ring)
    a = ring.parse("X^-1*Y^-1")
    b = ring.parse("X")
    assert (a, b) in img2.pairs and len(img2.pairs) == 2
    bad = arf.parse_expression(arf.GROUP, P, "<S, S>")
    mixed = arf.ArfExpression(arf.GROUP, P, [(P.identity, P.parse_element("S"))])
    with pytest.raises(ArfError):
        k2.psi_representation_map(mixed, ring)


def test_exact_form_reduce_idempotent():
    rng = random.Random(43)
    ring = k2.plane_ring()
    for _ in range(100):
        form = k2.DifferentialForm(ring, {
            "X": _rand_poly(ring, rng, deg=3, coeff=1),
            "Y": _rand_poly(ring, rng, deg=3, coeff=1)})
        red = k2.exact_form_reduce(form)
        assert k2.exact_form_reduce(red) == red
        # difference is exact: reduce maps both to the same form
        assert k2.exact_form_reduce(form) == red


def test_nu_values_compare_by_value():
    """Equal nu coordinates compare equal, whatever symbols they came from;
    the degree, the form and the extra part each tell values apart."""
    R1 = R.TruncatedRing(ZXY, 1, exotic=False)
    R2 = R.TruncatedRing(ZXY, 2, exotic=False)
    x, y = ZXY.variable("X"), ZXY.variable("Y")
    t = R1.t()
    xt = R1.mul(R1.scalar(x), t)
    a = k2.nu1(k2.DSSymbol(R1, xt, R1.scalar(y)))
    b = k2.nu1(k2.DSSymbol(R1, R1.scalar(y), xt))
    zero = k2.nu1(k2.DSSymbol(R1, R1.zero(), R1.scalar(y)))
    assert a == -b and a == a + zero and a - a == zero
    assert a != b                                    # the form changes sign
    yt = k2.nu1(k2.DSSymbol(R1, R1.mul(R1.scalar(y), t), t))
    xt_t = k2.nu1(k2.DSSymbol(R1, xt, t))
    assert yt.form == xt_t.form and yt != xt_t       # the extra part differs
    two = k2.nu2(k2.DSSymbol(R2, R2.zero(), R2.scalar(y)))
    assert zero.form == two.form and zero != two
    assert k2.NuValue(ZXY, 1, a.form, a.extra) != k2.NuValue(ZXY, 2, a.form, a.extra)
    assert a != (a.form, a.extra)


def test_forms_and_omega_quotient_classes_hash_as_their_equals():
    ring = k2.plane_ring()
    x, y = ring.variable("X"), ring.variable("Y")
    w = k2.delta(ring, y).scale(x)
    assert k2.delta(ring, ring.mul(x, y)) == k2.delta(ring, x).scale(y) + w
    assert len({k2.delta(ring, ring.mul(x, y)), k2.delta(ring, x).scale(y) + w}) == 1
    q1 = k2.OmegaQuotientClass.of_form(w)
    q2 = k2.OmegaQuotientClass.of_form(w + k2.delta(ring, ring.mul(x, ring.mul(x, y))))
    assert not q1.is_zero() and q1 == q2 and hash(q1) == hash(q2) and len({q1, q2}) == 1


def test_forms_and_nu_values_over_different_rings_do_not_add():
    """Forms over two descriptors of Z[X, Y], or over Z[X, Y] and Z[X, Z],
    do not add or subtract, nor do the nu values that carry them: the sum
    would keep the first ring's descriptor, or read a variable that the
    second ring lacks."""
    r1, r2 = (R.PolyRing(["X", "Y"], coeff="Z") for _ in range(2))
    r3 = R.PolyRing(["X", "Z"], coeff="Z")
    forms = [k2.delta(r1, r1.variable("X")), k2.delta(r2, r2.variable("Y")),
             k2.delta(r3, r3.variable("X"))]
    nus = []
    for ring in (r1, r2, r3):
        R1 = R.TruncatedRing(ring, 1, exotic=False)
        x = R1.scalar(ring.variable("X"))
        nus.append(k2.nu1(k2.DSSymbol(R1, R1.mul(x, R1.t()), x)))
    for a, b, c in (forms, nus):
        assert not a.is_zero() and (a - a).is_zero() and not (a + a).is_zero()
        for other in (b, c):
            with pytest.raises(ArfError, match=r"^values over different rings$"):
                a + other
            with pytest.raises(ArfError, match=r"^values over different rings$"):
                a - other


def test_omega_classes_over_different_rings_do_not_add():
    """The classes of a db over two descriptors of Z[X, Y] do not add: the
    sum would pair orbit keys of different rings.  The plane invariants of
    separate calls are over the one shared plane ring, so they add."""
    r1, r2 = (R.PolyRing(["X", "Y"], coeff="Z") for _ in range(2))
    q1, q2 = (k2.total_invariant(arf.parse_expression(arf.RING, r, "<X, Y>"))[1]
              for r in (r1, r2))
    assert not q1.is_zero() and q1 != q2
    with pytest.raises(ArfError, match=r"^values over different rings$"):
        q1 + q2
    assert (q1 + q1).is_zero()
    P = G.group_plane()
    e1, e2 = (arf.parse_expression(arf.GROUP, P, w) for w in ("<S, S*Y^2>", "<S*X, S*X*Y^2>"))
    (_, p1), (_, p2) = k2.plane_group_invariant(e1), k2.plane_group_invariant(e2)
    assert k2.plane_ring() is k2.plane_ring() is p1.ring is p2.ring
    assert not (p1 + p2).is_zero() and (p1 + p1).is_zero()
    assert p1 == k2.plane_group_invariant(e1)[1]
