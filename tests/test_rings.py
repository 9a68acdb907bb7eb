import random

import pytest

import arfkit.groups as G
import arfkit.rings as R
from arfkit.rings import RingError
from test_k2diff import _rand_poly


@pytest.fixture(scope="module")
def fa24():
    return R.GroupAlgebra(G.group_order24())


def test_involute_group_algebra(fa24):
    A = fa24.G
    g, h = A.parse_element("X"), A.parse_element("S")
    x = fa24.element(g, h)
    assert fa24.involute(x) == fa24.element(A.inv(g), A.inv(h))


def test_exotic_involution_on_T():
    R2 = R.TruncatedRing(R.IntegerRing(), 2)
    assert R2.involute(R2.t()) == (0, -1, 1)
    F2R2 = R.TruncatedRing(R.GF2, 2)
    assert F2R2.involute(F2R2.t()) == (0, 1, 1)


def test_involute_constant():
    R2 = R.TruncatedRing(R.IntegerRing(), 2)
    assert R2.involute(R2.scalar(7)) == R2.scalar(7)


def test_anti_structure_axioms_rn():
    # alpha(u_n) u_n = 1 and alpha^2 = conjugation by u_n, n = 1..4
    base = R.IntegerRing()
    for n in range(1, 5):
        Rn = R.TruncatedRing(base, n)
        un = Rn.unit_u()
        assert Rn.mul(Rn.involute(un), un) == Rn.one()
        x = Rn.from_coeffs([3, 1, 4, 1, 5][: n + 1])
        assert Rn.involute(Rn.involute(x)) == \
            Rn.mul(Rn.mul(un, x), Rn.inverse(un))


def test_involute_antihom_random(fa24):
    rng = random.Random(3)
    els = fa24.G.elements()
    for _ in range(1000):
        x = fa24.element(*rng.sample(els, rng.randint(1, 3)))
        y = fa24.element(*rng.sample(els, rng.randint(1, 3)))
        assert fa24.involute(fa24.mul(x, y)) == \
            fa24.mul(fa24.involute(y), fa24.involute(x))


def test_truncated_inverse():
    R2 = R.TruncatedRing(R.IntegerRing(), 2)
    one_plus_t = R2.add(R2.one(), R2.t())
    assert R2.inverse(one_plus_t) == (1, -1, 1)
    assert R2.inverse(R2.one()) == R2.one()
    P = R.PolyRing(["a"], coeff="Z")
    RP = R.TruncatedRing(P, 2)
    a = P.variable("a")
    x = RP.add(RP.one(), RP.mul(RP.scalar(a), RP.t()))
    inv = RP.inverse(x)
    assert inv == RP.from_coeffs([P.one(), P.neg(a), P.mul(a, a)])


def test_truncated_nonunit_constant():
    P = R.PolyRing(["a"], coeff="Z")
    RP = R.TruncatedRing(P, 2)
    with pytest.raises(RingError):
        RP.inverse(RP.scalar(P.variable("a")))


def test_mixed_truncation_error():
    R2 = R.TruncatedRing(R.GF2, 2)
    R3 = R.TruncatedRing(R.GF2, 3)
    with pytest.raises(RingError):
        R2.add(R2.one(), R3.one())


def test_lambda_membership(fa24):
    A = fa24.G
    s = A.parse_element("S")
    assert R.lambda_membership(R.RingMatrix(fa24, [[fa24.element(s)]]))
    assert R.lambda_membership(R.zero_matrix(fa24, 2))
    x = A.parse_element("X")
    assert not R.lambda_membership(R.RingMatrix(fa24, [[fa24.element(x)]]))


def test_gamma_reduce_f2_random():
    rng = random.Random(5)
    F2 = R.GF2
    for _ in range(50):
        M = R.RingMatrix(F2, [[rng.randint(0, 1) for _ in range(3)]
                              for _ in range(3)])
        red = R.gamma_reduce(M)
        assert R.gamma_reduce(red) == red
        W = R.gamma_witness(M, red)
        assert (M - red) == (W - W.conj_transpose().scale(F2.unit_u()))
        # strictly-upper triangle absorbs the lower one
        assert all(red.rows[i][j] == 0 for i in range(3) for j in range(i))


def test_gamma_reduce_group_ring(fa24):
    rng = random.Random(6)
    els = fa24.G.elements()
    for _ in range(30):
        M = R.RingMatrix(fa24, [[fa24.element(*rng.sample(els, rng.randint(0, 2)))
                                 for _ in range(2)] for _ in range(2)])
        red = R.gamma_reduce(M)
        assert R.gamma_reduce(red) == red
        W = R.gamma_witness(M, red)
        assert (M - red) == (W - W.conj_transpose().scale(fa24.unit_u()))


def test_is_gq_examples(fa24):
    A = fa24.G
    x = A.parse_element("X")
    assert R.is_gq(R.identity_matrix(fa24, 2))
    assert R.is_gq(R.identity_matrix(fa24, 4))
    # (I, B; 0, I) with B in Lambda and Gamma_1 diagonal
    b = fa24.add(fa24.element(x), fa24.element(A.inv(x)))
    B = R.RingMatrix(fa24, [[b]])
    M = R.block2(R.identity_matrix(fa24, 1), B,
                 R.zero_matrix(fa24, 1), R.identity_matrix(fa24, 1))
    assert R.lambda_membership(B) and R.is_gq(M)
    # (I, 0; C, I) with C not in Lambda
    C = R.RingMatrix(fa24, [[fa24.element(x)]])
    M2 = R.block2(R.identity_matrix(fa24, 1), R.zero_matrix(fa24, 1),
                  C, R.identity_matrix(fa24, 1))
    assert not R.is_gq(M2)


def test_t_alpha_u(fa24):
    A = fa24.G
    x = A.parse_element("X")
    I4 = R.identity_matrix(fa24, 4)
    assert R.t_alpha_u(I4) == I4
    H = R.hyperbolic_image(R.RingMatrix(fa24, [[fa24.element(x)]]))
    assert (R.t_alpha_u(H) @ H) == R.identity_matrix(fa24, 2)
    rng = random.Random(7)
    els = A.elements()
    for _ in range(25):
        M = R.RingMatrix(fa24, [[fa24.element(*rng.sample(els, rng.randint(0, 2)))
                                 for _ in range(4)] for _ in range(4)])
        assert R.t_alpha_u(R.t_alpha_u(M)) == M


def test_t_inverse_on_gq_members(fa24):
    A = fa24.G
    s = A.parse_element("S")
    a = fa24.element(s)
    b = fa24.add(fa24.element(A.parse_element("X")),
                 fa24.element(A.parse_element("X^11")))
    top = R.block2(R.identity_matrix(fa24, 1), R.RingMatrix(fa24, [[b]]),
                   R.zero_matrix(fa24, 1), R.identity_matrix(fa24, 1))
    low = R.block2(R.identity_matrix(fa24, 1), R.zero_matrix(fa24, 1),
                   R.RingMatrix(fa24, [[a]]), R.identity_matrix(fa24, 1))
    M = top @ low
    assert (R.t_alpha_u(M) @ M) == R.identity_matrix(fa24, 2)


def test_poly_parse_format():
    P = R.PolyRing(["X", "Y"], coeff="F2", laurent=True, involution="inverse")
    f = P.parse("1 + X^-1*Y^2")
    assert P.format(P.involute(f)) == "1 + X*Y^-2"
    PZ = R.PolyRing(["X", "Y"], coeff="Z")
    g = PZ.parse("X^2*Y - 3*Y + 1")
    assert PZ.parse(PZ.format(g)) == g
    with pytest.raises(RingError):
        PZ.parse("X^-1")


def test_regular_representation_inverse(fa24):
    A = fa24.G
    x = A.parse_element("X^6")  # 1 + X^6 is a unit? (1+X^6)^2 = 1+X^12 = 0...
    u = fa24.add(fa24.one(), fa24.element(x))
    # 1 + X^6 squares to 0, not invertible
    assert fa24.try_inverse(u) is None
    g = fa24.element(A.parse_element("X^5"))
    assert fa24.mul(fa24.try_inverse(g), g) == fa24.one()


def test_gamma_witness_over_integers():
    """Gamma_1 of Z is 0 for u = 1 and 2Z for u = -1."""
    rng = random.Random(8)
    for u in (1, -1):
        Z = R.IntegerRing(u)
        for _ in range(30):
            M = R.RingMatrix(Z, [[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)])
            red = R.gamma_reduce(M)
            W = R.gamma_witness(M, red)
            assert (M - red) == (W - W.conj_transpose().scale(Z.unit_u()))
    assert R.IntegerRing(1).gamma1_reduce(7) == 7 and R.IntegerRing(-1).gamma1_reduce(7) == 1
    assert R.IntegerRing(-1).gamma1_witness(6) == 3
    with pytest.raises(RingError, match="outside Gamma_1"):
        R.IntegerRing(1).gamma1_witness(2)


def test_gamma_witness_over_polynomial_rings():
    """PolyRing.gamma1_witness under both involutions: Gamma_1 is 2R for
    the trivial involution over Z (u = -1), 0 over F_2 (u = 1), and
    span{m + m^-1} for the inverse involution of F_2[X^+-, Y^+-]."""
    rng = random.Random(9)
    trivial = R.PolyRing(["X", "Y"], coeff="Z")
    inverse = R.PolyRing(["X", "Y"], coeff="F2", laurent=True, involution="inverse")
    for P in (trivial, inverse):
        for _ in range(30):
            M = R.RingMatrix(P, [[_rand_poly(P, rng, coeff=3) for _ in range(2)]
                                  for _ in range(2)])
            red = R.gamma_reduce(M)
            W = R.gamma_witness(M, red)
            assert (M - red) == (W - W.conj_transpose().scale(P.unit_u()))
    assert inverse.gamma1_witness(inverse.parse("X + X^-1 + Y^2 + Y^-2")) \
        == inverse.parse("X + Y^2")
    assert trivial.gamma1_witness(trivial.parse("4*X - 2*Y")) == trivial.parse("2*X - Y")
    F2 = R.PolyRing(["X"], coeff="F2")
    assert F2.gamma1_witness(F2.zero()) == F2.zero()
    with pytest.raises(RingError, match="outside Gamma_1"):
        F2.gamma1_witness(F2.parse("X"))
    with pytest.raises(RingError, match="outside Gamma_1"):
        inverse.gamma1_witness(inverse.parse("1 + X + X^-1"))


def test_ring_matrices_hash_as_their_equals():
    a = R.RingMatrix(R.GF2, [[1, 0], [1, 1]])
    b = R.identity_matrix(R.GF2, 2) + R.RingMatrix(R.GF2, [[0, 0], [1, 0]])
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
