import sys
import threading
import time

import arfkit.groups as G
import arfkit.groups.classes as gcl
import arfkit.homology as H
import arfkit.homology.operations as hops
import arfkit.upsilon as ups
from arfkit.memo import derived


def test_derived_tables_are_built_once():
    Gx = G.dihedral_group(4)
    assert gcl.cl_partition_finite(Gx) is gcl.cl_partition_finite(Gx)
    z = Gx.elements()[1]
    assert ups.l_of_class(Gx, z) is ups.l_of_class(Gx, z)
    A = H.group_algebra(G.symmetric_group(3), 2)
    assert H.space(A, "H0") is H.space(A, "H0")


def test_pullback_summand_is_built_once():
    P = G.pullback_cyclic_example()
    z = P.identity
    assert ups.l_of_class(P, z) is ups.l_of_class(P, z)


def test_value_group_builds_hq1_once(monkeypatch):
    calls = []
    hq1 = hops.hq1

    def counting_hq1(A):
        calls.append(A)
        return hq1(A)

    monkeypatch.setattr(hops, "hq1", counting_hq1)
    A = H.group_algebra(G.cyclic_group(4), 2)
    hops.coker_one_plus_vartheta(A)
    assert len(calls) == 1


def test_racing_first_uses_agree():
    class Descriptor:
        pass

    obj = Descriptor()
    start = threading.Barrier(8)
    got = []

    def build():
        time.sleep(0.01)          # let the other threads reach the store
        return object()

    def first_use():
        start.wait(timeout=10)
        got.append(derived(obj, "value", build))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=first_use) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert len(got) == 8
    assert all(v is got[0] for v in got)


def _deep_queries(Gx):
    """Deep squares X^(2^k) of the infinite-order generator: each one lies
    past the base squaring chain of its summand."""
    X = Gx.parse_element("X")
    out = [Gx.power(X, 1 << k) for k in range(4, 12)]
    return [(z, z) for z in out]     # z centralizes itself


def test_two_ends_summand_extends_once_under_threads():
    serial_group = G.group_c2_c_c12()
    queries = _deep_queries(serial_group)
    lc = ups.l_of_class(serial_group, queries[0][0])
    serial = [lc.insert_entry(z, h) for z, h in queries]

    Gx = G.group_c2_c_c12()
    lc = ups.l_of_class(Gx, queries[0][0])
    start = threading.Barrier(8)
    got = {}

    def query(t):
        start.wait(timeout=10)
        order = queries[t % 2::2] + queries[1 - t % 2::2]
        got[t] = {z: lc.insert_entry(z, h) for z, h in order}

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=query, args=(t,)) for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert len(got) == 8
    for answers in got.values():
        assert [answers[z] for z, _ in queries] == serial
    assert len(lc.zs) == len(set(lc.zs)) == len(lc.chain) == len(lc.maps) + 1
    for k in range(len(lc.zs) - 1):
        assert lc.zs[k + 1] == Gx.mul(lc.zs[k], lc.zs[k])
