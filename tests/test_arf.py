import pytest

import arfkit.arf as arf
import arfkit.groups as G
import arfkit.kinv as kinv
import arfkit.rings as R
from arfkit.arf import ArfError, DerivationStep


@pytest.fixture(scope="module")
def order24():
    return G.group_order24()


@pytest.fixture(scope="module")
def groupB():
    return G.group_c2_c_c12()


def test_pair_validation(order24):
    x = order24.parse_element("X")
    with pytest.raises(ArfError):
        arf.ArfExpression(arf.GROUP, order24, [(x, x)])


def test_mod2_addition(order24):
    e = arf.parse_expression(arf.GROUP, order24, "<1,1>")
    assert (e + e).is_zero()


def test_swap_step(order24):
    s = order24.parse_element("S")
    g = order24.parse_element("X^2*S")
    e = arf.ArfExpression(arf.GROUP, order24, [(g, s)])
    e2 = arf.apply_step(e, DerivationStep("Swap", 0))
    assert e2.pairs == frozenset([(s, g)])
    assert arf.apply_step(e2, DerivationStep("Swap", 0)) == e


def test_absorb_step(order24):
    s = order24.parse_element("S")
    g = order24.parse_element("X^2*S")
    e = arf.ArfExpression(arf.GROUP, order24, [(g, s)])
    e2 = arf.apply_step(e, DerivationStep("Absorb", 0))
    (pair,) = e2.pairs
    assert pair == (g, order24.mul(order24.mul(s, g), s))


def test_central_absorb_requires_conditions():
    C = G.group_c_by_d4()
    e = arf.parse_expression(arf.GROUP, C, "<Y^2*S, S>")
    with pytest.raises(ArfError):
        arf.apply_step(e, DerivationStep("CentralAbsorb", 0, ("Y^2*S",)))
    ok = arf.apply_step(e, DerivationStep("CentralAbsorb", 0, ("Y*S*Y*S",)))
    assert len(ok.pairs) == 1


def test_finite_order_cancel(groupB):
    B = groupB
    a = B.parse_element("S")
    b = B.parse_element("Y^2*S")
    z = B.parse_element("Y^4")
    e = arf.ArfExpression(arf.GROUP, B, [(a, B.mul(a, z)), (b, B.mul(b, z))])
    pairs = e.sorted_pairs()
    i = pairs.index((a, B.mul(a, z)))
    j = pairs.index((b, B.mul(b, z)))
    out = arf.apply_step(e, DerivationStep("FiniteOrderCancel", 0, (i, j, 0)))
    assert out.is_zero()
    # with an infinite-order ab z^i the side condition must reject
    c = B.parse_element("X^2*S")
    e2 = arf.ArfExpression(arf.GROUP, B, [(a, B.mul(a, z)), (c, B.mul(c, z))])
    pairs = e2.sorted_pairs()
    i = pairs.index((a, B.mul(a, z)))
    j = pairs.index((c, B.mul(c, z)))
    with pytest.raises(ArfError):
        arf.apply_step(e2, DerivationStep("FiniteOrderCancel", 0, (i, j, 0)))


def test_check_derivation_trivial(order24):
    e = arf.parse_expression(arf.GROUP, order24, "<1,1>")
    ok, transcript = arf.check_derivation(e, [], e)
    assert ok


def test_nine_step_chain(groupB):
    e = arf.parse_expression(arf.GROUP, groupB, "<S, S*X^2*Y^2>")
    t = arf.parse_expression(arf.GROUP, groupB, "<S*X, S*X^3*Y^2>")
    steps = [
        DerivationStep("PowerTwo", 0, (1,)),
        DerivationStep("PowerTwo", 0, (1, "S*X^2*Y^8"), True),
        DerivationStep("PowerTwo", 0, (1, "S*X*Y^4"), True),
        DerivationStep("Conj", 0, ("S*X*Y^2",)),
        DerivationStep("CentralAbsorb", 0, ("1",)),
        DerivationStep("Swap", 0),
        DerivationStep("PowerTwo", 0, (1,)),
        DerivationStep("Absorb", 0),
        DerivationStep("PowerTwo", 0, (1, "S*X^3*Y^2"), True),
    ]
    ok, transcript = arf.check_derivation(e, steps, t)
    assert ok, transcript
    assert len(steps) == 9


def test_rejected_step_reports_index(groupB):
    e = arf.parse_expression(arf.GROUP, groupB, "<S, S*X^2*Y^2>")
    steps = [DerivationStep("PowerTwo", 0, (1, "S*X"), True)]
    ok, transcript = arf.check_derivation(e, steps, e)
    assert not ok and "REJECTED" in transcript[1]


def test_ring_steps():
    P = R.PolyRing(["X", "Y"], coeff="F2", laurent=True, involution="trivial", u=1)
    x, y = P.variable("X"), P.variable("Y")
    e = arf.ArfExpression(arf.RING, P, [(x, P.add(y, P.one()))])
    split = arf.apply_step(e, DerivationStep("BilinearSplit", 0, (y,)))
    assert split.pairs == frozenset([(x, y), (x, P.one())])
    # GammaDrop needs Gamma_1 membership (here Gamma_1 = 0)
    with pytest.raises(ArfError):
        arf.apply_step(e, DerivationStep("GammaDrop", 0))


def test_gq_relation_instance_trivial():
    fa = R.GroupAlgebra(G.group_order24())
    M = R.identity_matrix(fa, 4)
    expr = arf.gq_relation_instance(M)
    assert expr.is_zero()


def test_gq_relation_instance_nonempty_maps_to_zero():
    A = G.group_order24()
    fa = R.GroupAlgebra(A)
    # Lambda blocks with Gamma_1-admissible diagonals: g + g^-1 sums
    b = fa.add(fa.element(A.parse_element("X")), fa.element(A.parse_element("X^11")))
    c = fa.add(fa.element(A.parse_element("X^3")), fa.element(A.parse_element("X^9")))
    top = R.block2(R.identity_matrix(fa, 1), R.RingMatrix(fa, [[b]]),
                   R.zero_matrix(fa, 1), R.identity_matrix(fa, 1))
    low = R.block2(R.identity_matrix(fa, 1), R.zero_matrix(fa, 1),
                   R.RingMatrix(fa, [[c]]), R.identity_matrix(fa, 1))
    M = top @ low
    expr = arf.gq_relation_instance(M)
    assert not expr.is_zero()
    val = kinv.omega(expr)
    assert val.is_zero()


def test_expression_parsing_roundtrip(groupB):
    e = arf.parse_expression(arf.GROUP, groupB, "<S, S*Y^2> + <S*X, S*X*Y^2>")
    assert len(e.pairs) == 2
    # display is swap-normalized, so compare displays after a reparse
    again = arf.parse_expression(arf.GROUP, groupB, e.display())
    assert again.display() == e.display()


@pytest.mark.parametrize("text", [
    "<S, ",            # unbalanced '<'
    "<S,S>>",          # unbalanced '>'
    "<S, S> +",        # trailing '+', an empty term
    "+ <S, S>",        # leading '+'
    "<S, S> <S, S>",   # two terms without '+'
    "<, S>",           # empty pair component
    "<<S, S>>",        # reduced-generator brackets on a group expression
])
def test_parse_expression_rejects_malformed(text):
    with pytest.raises(ArfError):
        arf.parse_expression(arf.GROUP, G.group_plane(), text)


def test_parse_expression_reduced_brackets():
    P = R.PolyRing(["X", "Y"], coeff="Z")
    e = arf.parse_expression(arf.REDUCED, P, "<<X, Y>>")
    assert e.display() == "<<X, Y>>"
    with pytest.raises(ArfError):
        arf.parse_expression(arf.REDUCED, P, "<X, Y>")


def test_expressions_hash_and_show_as_their_pairs(order24):
    e1 = arf.parse_expression(arf.GROUP, order24, "<S, X^2*S> + <1, 1>")
    e2 = arf.parse_expression(arf.GROUP, order24, "<1, 1> + <S, X^2*S>")
    assert e1 == e2 and hash(e1) == hash(e2) and len({e1, e2}) == 1
    assert repr(e1) == f"ArfExpression({e1.display()})"
    Z = R.IntegerRing(-1)
    e = arf.parse_expression(arf.RING, Z, "<2, -3> + <1, 4>")
    assert e.pairs == {(2, -3), (1, 4)}
    assert repr(e) == "ArfExpression(<1, 4> + <-3, 2>)"
