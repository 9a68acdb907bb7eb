"""A seeded differential battery over random finite groups.

Subgroups of S5 and S6 are drawn from one to three random permutations,
and some are multiplied by C2 once or twice so that orders 16 and 32 occur.
A small share of the draws, from a seed of its own, is of order 36 to 64,
where the value group reaches dimension 3.  Each group is checked
against the homology model of its value group and against a copy of
itself with the elements relabelled at random.
"""
import functools
import random

import arfkit.arf as arf
import arfkit.groups as G
import arfkit.groups.classes as gcl
import arfkit.groups.structure as gst
import arfkit.homology as H
import arfkit.upsilon as ups

MAX_ORDER = 32
LARGE_ORDERS = (36, 64)


def _random_groups(rng, symmetric, count, low=1, high=MAX_ORDER):
    """`count` groups of order in [low, high]: a subgroup of S5 or S6 (the
    two groups of `symmetric`) of order at most `high`, times C2 at random
    while that fits, and always while the order is below `low`."""
    c2 = G.cyclic_group(2)
    out = []
    while len(out) < count:
        S = rng.choice(symmetric)
        gens = rng.sample(S.elements(), rng.randint(1, 3))
        members = sorted(gst.subgroup_closure(S, gens))
        if len(members) > high:
            continue
        Gx = G.table_from_mul(members, S.mul, labels=[S.format_element(g) for g in members],
                              name=f"<{len(gens)} in S{S.n}>")
        while 2 * Gx.order() <= high and (Gx.order() < low or rng.random() < 0.3):
            Gx = G.direct_product(Gx, c2, name=f"{Gx.name}xC2")
        if Gx.order() >= low:
            out.append(Gx)
    return out


@functools.lru_cache(maxsize=None)
def battery_draws():
    """The battery's groups, drawn once per test run: those of order at most
    MAX_ORDER (seed 2), the state of that generator after the draw, and the
    larger share (a seed of its own, so the draws above stay as they
    were)."""
    rng = random.Random(2)
    symmetric = [G.symmetric_group(5), G.symmetric_group(6)]
    groups = _random_groups(rng, symmetric, 120)
    return groups, rng.getstate(), _random_groups(random.Random(28), symmetric, 4,
                                                  *LARGE_ORDERS)


def _relabelled(rng, Gx):
    """A copy of Gx with shuffled element indices, and the map into it."""
    els = Gx.elements()
    rng.shuffle(els)
    copy = G.table_from_mul(els, Gx.mul, labels=[Gx.format_element(g) for g in els],
                            name=f"relabelled {Gx.name}")
    return copy, {g: i for i, g in enumerate(els)}


def _random_expressions(rng, Gx, count):
    invs = Gx.involutions()
    return [[(rng.choice(invs), rng.choice(invs)) for _ in range(rng.randint(1, 3))]
            for _ in range(count)]


def _check_group(rng, Gx):
    jdim = ups.j_group_dimension(Gx)
    assert jdim == H.coker_one_plus_vartheta(H.group_algebra(Gx, 2)).dim, Gx.name
    Rx, phi = _relabelled(rng, Gx)
    parts = {frozenset(phi[g] for g in p) for p in gcl.cl_partition_finite(Gx)}
    assert parts == set(map(frozenset, gcl.cl_partition_finite(Rx))), Gx.name
    assert ups.j_group_dimension(Rx) == jdim, Gx.name

    def both(pairs):
        return (arf.ArfExpression(arf.GROUP, Gx, pairs),
                arf.ArfExpression(arf.GROUP, Rx, [(phi[a], phi[b]) for a, b in pairs]))

    exprs = [both(p) for p in _random_expressions(rng, Gx, 6)]
    for e, r in exprs:
        assert ups.upsilon_eval(e).is_zero() == ups.upsilon_eval(r).is_zero(), Gx.name
    verdicts = set()
    for (e1, r1), (e2, r2) in zip(exprs, exprs[1:]):
        verdict = ups.upsilon_distinguish(e1, e2).verdict
        assert ups.upsilon_distinguish(r1, r2).verdict == verdict, Gx.name
        verdicts.add(verdict)
    return verdicts


def test_random_subgroups_agree_with_homology_and_relabelling():
    groups, state, large = battery_draws()
    rng = random.Random()
    rng.setstate(state)
    verdicts = set()
    for Gx in groups + large:
        verdicts |= _check_group(rng, Gx)
    # the draw reaches the orders that the plain subgroup draw misses, the
    # larger share value groups of dimension 3, and the verdicts compared
    # are not all one kind
    orders = {Gx.order() for Gx in groups}
    assert {16, 32} <= orders
    assert all(LARGE_ORDERS[0] <= Gx.order() <= LARGE_ORDERS[1] for Gx in large)
    assert max(ups.j_group_dimension(Gx) for Gx in large) >= 3
    assert {"Distinct", "SameImage"} <= verdicts
