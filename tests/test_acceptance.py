"""The acceptance criteria, one test per criterion.

All arithmetic is exact over F_2/F_p, so every comparison below is exact
equality; the stated per-item runtime budgets are asserted loosely via the
printed timings (run with -s to see them)."""
import itertools
import random
import time

import arfkit.arf as arf
import arfkit.groups as G
import arfkit.groups.structure as gst
import arfkit.homology as H
import arfkit.k2diff as k2
import arfkit.kinv as kinv
import arfkit.rings as R
import arfkit.upsilon as ups


def _report(name, t0):
    print(f"{name}: PASS ({time.perf_counter() - t0:.2f}s)")


def test_ac01_order24_basis():
    t0 = time.perf_counter()
    A = G.group_order24()
    cls = G.cl_classes(A)
    assert [c.label() for c in cls] == ["[1]", "[X]"]
    w1 = kinv.omega(arf.parse_expression(arf.GROUP, A, "<1,1>"))
    w2 = kinv.omega(arf.parse_expression(arf.GROUP, A, "<X^2*S, S>"))
    assert w1.display() == "[1]"
    assert w2.display() == "[X]"
    # F_2-independence of the two images
    assert not w1.is_zero() and not w2.is_zero() and w1 != w2
    _report("AC1 cl and basis, order-24 group", t0)


def test_ac02_derivation_chain():
    t0 = time.perf_counter()
    B = G.group_c2_c_c12()
    e1 = arf.parse_expression(arf.GROUP, B, "<S, S*X^2*Y^2>")
    e2 = arf.parse_expression(arf.GROUP, B, "<S*X, S*X^3*Y^2>")
    steps = [
        arf.DerivationStep("PowerTwo", 0, (1,)),
        arf.DerivationStep("PowerTwo", 0, (1, "S*X^2*Y^8"), True),
        arf.DerivationStep("PowerTwo", 0, (1, "S*X*Y^4"), True),
        arf.DerivationStep("Conj", 0, ("S*X*Y^2",)),
        arf.DerivationStep("CentralAbsorb", 0, ("1",)),
        arf.DerivationStep("Swap", 0),
        arf.DerivationStep("PowerTwo", 0, (1,)),
        arf.DerivationStep("Absorb", 0),
        arf.DerivationStep("PowerTwo", 0, (1, "S*X^3*Y^2"), True),
    ]
    assert len(steps) == 9
    ok, transcript = arf.check_derivation(e1, steps, e2)
    assert ok, transcript
    r = ups.upsilon_distinguish(e1, e2)
    assert r.same_image
    _report("AC2 nine-step derivation chain + SameImage", t0)


def test_ac03_distinct_despite_equal_omega():
    t0 = time.perf_counter()
    P = G.group_plane()
    e1 = arf.parse_expression(arf.GROUP, P, "<S, S*Y^2>")
    e2 = arf.parse_expression(arf.GROUP, P, "<S*X, S*X*Y^2>")
    assert kinv.omega(e1) == kinv.omega(e2)
    # total-invariant pipeline through the matrix representation
    _, q1 = k2.plane_group_invariant(e1)
    _, q2 = k2.plane_group_invariant(e2)
    assert not (q1 + q2).is_zero()
    # Upsilon pipeline
    assert ups.upsilon_distinguish(e1, e2).verdict == "Distinct"
    _report("AC3 distinctness despite equal omega", t0)


def test_ac04_upsilon_table():
    t0 = time.perf_counter()
    P = G.group_plane()
    S = ((0, 0), 1)
    XS = ((1, 0), 1)
    YS = ((0, 1), 1)
    val = ups.upsilon_eval(arf.parse_expression(arf.GROUP, P, "<1,1>"))
    want = ups.JValue(P)
    want.add_insert(P.identity, None, 1)
    assert val == want and not val.is_zero()
    fams = [
        (lambda i, j: ((2 * i, 2 * j + 1), 1), S, S),
        (lambda i, j: ((2 * i + 1, 2 * j), 1), S, S),
        (lambda i, j: ((2 * i + 1, 2 * j + 1), 1), S, S),
        (lambda i, j: ((2 * i + 1, 2 * j + 1), 1), XS, XS),
        (lambda i, j: ((2 * i + 1, 2 * j + 1), 1), YS, YS),
        (lambda i, j: ((2 * i, 2 * j + 1), 1), XS, XS),
    ]
    for i in range(-3, 4):
        for j in range(-3, 4):
            for mk, h, img in fams:
                g = mk(i, j)
                got = ups.upsilon_eval(arf.ArfExpression(arf.GROUP, P, [(g, h)]))
                want = ups.JValue(P)
                want.add_insert(P.mul(g, h), img)
                assert got == want and not got.is_zero()
    for rep, dim in [("Y", 2), ("X", 2), ("X*Y", 2), ("1", 1)]:
        assert ups.l_of_class(P, P.parse_element(rep)).dim == dim
    # the expected generator quotients: L([Y]) kills exactly <Y>; a
    # lattice payload is packed, and resolve gives its coordinates
    # (x_1, x_2, S)
    lcY = ups.l_of_class(P, P.parse_element("Y"))
    zY = P.parse_element("Y")
    assert lcY.resolve(lcY.insert_entry(P, zY, ((0, 1), 0))) is None
    assert lcY.resolve(lcY.insert_entry(P, zY, ((1, 0), 0))) == (1, 0, 0)
    assert lcY.resolve(lcY.insert_entry(P, zY, S)) == (0, 0, 1)
    assert lcY.resolve(lcY.insert_entry(P, zY, ((1, 1), 1))) == (1, 0, 1)
    _report("AC4 Ch IV example table (|i|,|j| <= 3)", t0)


def _cancel_step(Gx, e):
    """A FiniteOrderCancel instance applicable to e, when one exists."""
    pairs = e.sorted_pairs()
    for i in range(len(pairs)):
        for j in range(len(pairs)):
            if i == j:
                continue
            (a, az), (b, bz) = pairs[i], pairs[j]
            if Gx.mul(a, az) != Gx.mul(b, bz):
                continue
            if Gx.order_of(Gx.mul(a, b)) is not None:
                return arf.DerivationStep("FiniteOrderCancel", 0, (i, j, 0))
    return None


def test_ac05_well_definedness_battery():
    t0 = time.perf_counter()
    rng = random.Random(2024)
    group_fams = [G.group_order24(), G.symmetric_group(4), G.group_plane(),
                  G.group_c2_c_c12(), G.pullback_cyclic_example()]
    checked = 0
    for Gx in group_fams:
        invs = Gx.involutions() if Gx.is_finite else Gx.involutions(window=3)
        conj_pool = Gx.elements() if Gx.is_finite else Gx.window_elements(2)
        centrals = [c for c in invs
                    if all(Gx.mul(c, x) == Gx.mul(x, c) for x in conj_pool)]
        for trial in range(150):
            pairs = [tuple(rng.choice(invs) for _ in range(2))
                     for _ in range(rng.randint(1, 2))]
            e = arf.ArfExpression(arf.GROUP, Gx, pairs)
            if trial % 15 == 0:
                # a cancellable configuration for FiniteOrderCancel
                a, b = rng.choice(invs), rng.choice(invs)
                if Gx.order_of(Gx.mul(a, b)) is not None:
                    z = Gx.mul(a, rng.choice(invs))
                    az, bz = Gx.mul(a, z), Gx.mul(b, z)
                    if Gx.mul(az, az) == Gx.identity and \
                            Gx.mul(bz, bz) == Gx.identity:
                        e = arf.ArfExpression(arf.GROUP, Gx, [(a, az), (b, bz)])
            if e.is_zero():
                continue
            idx = rng.randrange(len(e.pairs))
            kind = rng.choice(["Swap", "Absorb", "Conj", "PowerTwo",
                               "CentralAbsorb", "FiniteOrderCancel"])
            if kind == "Conj":
                step = arf.DerivationStep("Conj", idx, (rng.choice(conj_pool),))
            elif kind == "PowerTwo":
                step = arf.DerivationStep("PowerTwo", idx, (rng.randint(1, 2),))
            elif kind == "CentralAbsorb":
                if not centrals:
                    step = arf.DerivationStep("Swap", idx)
                else:
                    step = arf.DerivationStep("CentralAbsorb", idx,
                                              (rng.choice(centrals),))
            elif kind == "FiniteOrderCancel":
                step = _cancel_step(Gx, e)
                if step is None:
                    step = arf.DerivationStep("Swap", idx)
            else:
                step = arf.DerivationStep(kind, idx)
            e2 = arf.apply_step(e, step)
            assert kinv.omega(e) == kinv.omega(e2)
            assert kinv.omega1(e) == kinv.omega1(e2)
            assert ups.upsilon_eval(e) == ups.upsilon_eval(e2)
            checked += 1
    ring_fams = [R.PolyRing(["X", "Y"], coeff="Z"), k2.plane_ring()]
    for ring in ring_fams:
        lo = -2 if ring.laurent else 0
        def rand_elem():
            acc = ring.zero()
            for _ in range(rng.randint(1, 2)):
                e = (rng.randint(lo, 2), rng.randint(lo, 2))
                acc = ring.add(acc, ring.monomial(e, 1 if ring.p else rng.randint(-2, 2)))
            return acc
        for trial in range(180):
            pairs = [(rand_elem(), rand_elem()) for _ in range(rng.randint(1, 2))]
            kinds = ["Swap", "Absorb", "BilinearSplit"]
            if ring.p == 0 and trial % 10 == 0:
                # a Gamma_1 = 2R pair, droppable by relation 4
                d = rand_elem()
                pairs = [(rand_elem(), ring.add(d, d))]
                kinds = ["GammaDrop"]
            e = arf.ArfExpression(arf.RING, ring, pairs)
            if e.is_zero():
                continue
            idx = rng.randrange(len(e.pairs))
            kind = rng.choice(kinds)
            if kind == "BilinearSplit":
                step = arf.DerivationStep("BilinearSplit", idx, (rand_elem(),))
            else:
                step = arf.DerivationStep(kind, idx)
            e2 = arf.apply_step(e, step)
            assert kinv.omega(e) == kinv.omega(e2)
            assert kinv.omega1(e, 2) == kinv.omega1(e2, 2)
            assert k2.total_invariant(e) == k2.total_invariant(e2)
            checked += 1
    assert checked >= 1000
    _report(f"AC5 well-definedness battery ({checked} rewrites)", t0)


def test_ac06_theta_batteries():
    t0 = time.perf_counter()
    algebras = [H.group_algebra(G.cyclic_group(2), 2),
                H.group_algebra(G.abelian_group([2, 2]), 2),
                H.group_algebra(G.cyclic_group(3), 3)]
    rng = random.Random(5)
    for A in algebras:
        p = A.p
        h0 = H.space(A, "H0")
        h1 = H.space(A, "H1")
        hc1 = H.space(A, "HC1")
        comm_rows = [A.commutator(A.basis_vec(i), A.basis_vec(j))
                     for i in range(A.dim) for j in range(A.dim)]
        b2_rows = [H.flatten(A, 2, H.boundary(A, 3, {(i, j, k): 1}))
                   for i in range(A.dim) for j in range(A.dim)
                   for k in range(A.dim)]
        # boundary-kill on H0
        for _ in range(120):
            r = tuple(rng.randrange(p) for _ in range(A.dim))
            pert = r
            for _ in range(2):
                row = rng.choice(comm_rows)
                c = rng.randrange(p)
                pert = tuple((x + c * y) % p for x, y in zip(pert, row))
            assert H.theta_p_h0(A, h0.class_of(r)) == H.theta_p_h0(A, h0.class_of(pert))
        # boundary-kill on H1
        for v in h1.basis:
            base = H.theta_p_h1(A, h1.class_of(v))
            for _ in range(25):
                pert = v
                for _ in range(2):
                    row = rng.choice(b2_rows)
                    c = rng.randrange(p)
                    pert = tuple((x + c * y) % p for x, y in zip(pert, row))
                assert H.theta_p_h1(A, h1.class_of(pert)) == base
        # Gamma-choice independence
        for v in h1.basis:
            base = H.theta_p_h1(A, h1.class_of(v))
            for salt in (1, 2, 3):
                out = H.theta_p_h1(A, h1.class_of(v),
                                   shuffle_key=lambda o, s=salt: s % len(o))
                assert out == base
        # prophc over all basis pairs
        for i in range(A.dim):
            for j in range(A.dim):
                u, v = A.basis_vec(i), A.basis_vec(j)
                ch = H.t_add(p, H.tensor2(A, u, v), H.tensor2(A, v, u))
                lhs = H.theta_p_h1(A, h1.class_of(H.flatten(A, 2, ch)))
                uv = A.mul(u, v)
                rhs = hc1.class_of(H.flatten(A, 2, H.tensor2(A, A.power(uv, p - 1), uv)))
                assert lhs == rhs
    _report("AC6 theta_p batteries (p = 2, 3)", t0)


def test_ac07_morita_identities():
    t0 = time.perf_counter()
    bases = [H.field_algebra(2), H.group_algebra(G.cyclic_group(2), 2)]
    for Rb in bases:
        A = H.matrix_algebra(Rb, 2)
        for k in (1, 2, 3):
            for key in itertools.product(range(Rb.dim), repeat=k):
                ch = {key: 1}
                assert H.trace_chain(A, k, H.iota_chain(A, k, ch)) == ch
        for k in (1, 2):
            for key in itertools.product(range(A.dim), repeat=k):
                ch = {key: 1}
                lhs = H.boundary(A, k + 1, H.chi(A, k, ch))
                if k > 1:
                    lhs = H.t_add(A.p, lhs, H.chi(A, k - 1, H.boundary(A, k, ch)))
                rhs = H.t_add(A.p, ch, H.t_neg(A.p, H.iota_chain(
                    A, k, H.trace_chain(A, k, ch))))
                assert lhs == rhs
    # the four commuting squares at m = 2 (over F2[C2])
    Rb = bases[1]
    A = H.matrix_algebra(Rb, 2)
    import arfkit.fp as fp

    def tr1(vec):
        ch = H.trace_chain(A, 1, {(i,): c for i, c in enumerate(vec) if c})
        return H.flatten(Rb, 1, ch)

    hc0A = H.space(A, "HC0")
    h1R = H.space(Rb, "H1")
    for v in hc0A.basis:
        lhs = H.trace_chain(A, 2, H.tensor2(A, A.unit, v))
        rhs = H.tensor2(Rb, Rb.unit, tr1(v))
        assert h1R.class_of(H.flatten(Rb, 2, lhs)) == h1R.class_of(H.flatten(Rb, 2, rhs))
    h0R = H.space(Rb, "H0")
    for i in range(A.dim):
        v = A.basis_vec(i)
        assert H.theta_p_h0(Rb, h0R.class_of(tr1(v))) == \
            h0R.class_of(tr1(A.power(v, 2)))
    h1A = H.space(A, "H1")
    hc1R = H.space(Rb, "HC1")
    qrows = [H.flatten(Rb, 2, H.tensor2(Rb, Rb.power(Rb.basis_vec(i), 1),
                                        Rb.basis_vec(i)))
             for i in range(Rb.dim)]
    modq = fp.QuotientContext(Rb.dim ** 2, 2,
                              list(hc1R.context.basis()) + qrows)
    for v in h1A.basis:
        up = H.theta_p_h1(A, h1A.class_of(v))
        lhs = H.flatten(Rb, 2, H.trace_chain(A, 2, H.unflatten(A, 2, up.vec)))
        down = H.flatten(Rb, 2, H.trace_chain(A, 2, H.unflatten(A, 2, v)))
        rhs = H.theta_p_h1(Rb, H.space(Rb, "H1").class_of(down))
        assert modq.reduce(lhs) == modq.reduce(rhs.vec)
    hqA = H.hq1(A)
    cokR = H.CokerMu(Rb)
    dA = A.dim * A.dim
    for v in hqA.basis:
        ch2, c1 = H.unflatten(A, 2, v[:dA]), v[dA:]
        up2, upc = H.vartheta_chain(A, ch2, c1)
        lhs = H.hq_vector(Rb, H.trace_chain(A, 2, up2), tr1(upc))
        rh2, rhc = H.vartheta_chain(Rb, H.trace_chain(A, 2, ch2), tr1(tuple(c1)))
        assert cokR.reduce(lhs) == cokR.reduce(H.hq_vector(Rb, rh2, rhc))
    _report("AC7 Morita identities and commuting squares", t0)


def test_ac08_nu_residuals():
    t0 = time.perf_counter()
    rng = random.Random(7)
    ZZ = R.PolyRing([], coeff="Z")
    ZX = R.PolyRing(["X"], coeff="Z")    # the F2[X]-shaped leg (see ledger)
    ZXY = R.PolyRing(["X", "Y"], coeff="Z")
    total = 0
    for ring, coeff in ((ZZ, 2), (ZX, 1), (ZXY, 2)):
        def rand_poly():
            acc = ring.zero()
            for _ in range(rng.randint(1, 3)):
                e = tuple(rng.randint(0, 2) for _ in ring.vars)
                acc = ring.add(acc, ring.monomial(e, rng.randint(-coeff, coeff)))
            return acc
        for n in (1, 2):
            Rn = R.TruncatedRing(ring, n, exotic=False)
            t = Rn.t()
            for i in range(60):
                x = Rn.mul(Rn.scalar(rand_poly()), t)
                if n == 2 and i % 2:
                    x = Rn.add(x, Rn.mul(Rn.scalar(rand_poly()), Rn.t(2)))
                y = Rn.from_coeffs([rand_poly() for _ in range(n + 1)])
                z = Rn.scalar(rand_poly())
                b, c = Rn.scalar(rand_poly()), Rn.scalar(rand_poly())
                assert k2.ds_relation_residual("antisymmetry", Rn, (x, y)).is_zero()
                assert k2.ds_relation_residual("additivity", Rn, (x, y, z)).is_zero()
                assert k2.ds_relation_residual("multiplicativity", Rn, (x, b, c)).is_zero()
                total += 3
    assert total >= 1000
    # nu_1 inverse round-trips on generators
    R1 = R.TruncatedRing(ZXY, 1, exotic=False)
    for _ in range(60):
        a = ZXY.monomial((rng.randint(0, 2), rng.randint(0, 2)),
                         rng.randint(-2, 2) or 1)
        c = ZXY.monomial((rng.randint(0, 2), rng.randint(0, 2)),
                         rng.randint(-2, 2) or 1)
        var = rng.choice(["X", "Y"])
        totalv = k2.nu_sum(k2.nu1_inverse(R1, a, var, c))
        assert totalv.form == k2.delta(ZXY, ZXY.variable(var)).scale(a)
        assert totalv.extra == k2._r_mod2(ZXY, c)
    _report(f"AC8 nu-presentation residuals ({total} instances)", t0)


def test_ac09_zxy_theorem_support():
    t0 = time.perf_counter()
    rng = random.Random(9)
    ZXY = R.PolyRing(["X", "Y"], coeff="Z")
    n = 0
    for _ in range(550):
        a = ZXY.monomial((rng.randint(0, 3), rng.randint(0, 3)))
        b = ZXY.monomial((rng.randint(0, 3), rng.randint(0, 3)))
        c = ZXY.monomial((rng.randint(0, 3), rng.randint(0, 3)))
        lhs = k2.omega2(arf.ArfExpression(arf.REDUCED, ZXY, [(a, ZXY.mul(b, c))]))
        rhs = k2.omega2(arf.ArfExpression(
            arf.REDUCED, ZXY, [(ZXY.mul(a, b), c), (ZXY.mul(a, c), b)]))
        assert lhs == rhs
        f, g = a, ZXY.mul(b, c)
        lhs2 = k2.omega2(arf.ArfExpression(arf.REDUCED, ZXY, [(f, g)]))
        rhs2 = k2.omega2(arf.ArfExpression(arf.REDUCED, ZXY, [
            (ZXY.mul(f, ZXY.derivative(g, "X")), ZXY.variable("X")),
            (ZXY.mul(f, ZXY.derivative(g, "Y")), ZXY.variable("Y"))]))
        assert lhs2 == rhs2
        n += 2
    assert n >= 1000
    _report(f"AC9 Z[X,Y] theorem support ({n} instances)", t0)


def test_ac10_finite_group_soundness():
    t0 = time.perf_counter()
    groups = G.groups_upto(16)
    assert len(groups) == 42
    pair_count = 0
    for Gx in groups:
        invs = Gx.involutions()
        for g, h in itertools.product(invs, repeat=2):
            val = ups.upsilon_eval(arf.ArfExpression(arf.GROUP, Gx, [(g, h)]))
            assert not val.is_zero(), (Gx.name, g, h)
            pair_count += 1
    eta_count = 0
    for Gx in groups:
        for cl in gst.conjugacy_classes(Gx):
            z = min(cl, key=Gx.key)
            sig = ups.sigma_summand(Gx, z)
            members = gst.extended_centralizer(Gx, z).members
            for g1 in members:
                for g2 in members:
                    for (tp, y1, y2) in ups.eta_relation_elements(Gx, z, g1, g2):
                        assert not any(sig.eta(tp, y1, y2))
                        eta_count += 1
    _report(f"AC10 finite-group Upsilon soundness "
            f"({pair_count} pairs, {eta_count} eta instances)", t0)
