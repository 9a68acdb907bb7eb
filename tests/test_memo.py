import gc
import sys
import threading
import time
import weakref

import arfkit.arf as arf
import arfkit.groups as G
import arfkit.groups.classes as gcl
import arfkit.groups.structure as gst
import arfkit.homology as H
import arfkit.homology.chains as hch
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


def test_hq1_is_built_once_per_algebra(monkeypatch):
    calls = []
    hq1 = hch.hq1

    def counting_hq1(A):
        calls.append(A)
        return hq1(A)

    monkeypatch.setattr(hch, "hq1", counting_hq1)
    monkeypatch.setattr(hops, "hq1", counting_hq1)
    A = H.group_algebra(G.symmetric_group(3), 2)
    hq = H.space(A, "HQ1")
    H.vartheta(A, hq.class_of(hq.basis[0]))
    H.coker_one_plus_vartheta(A)
    H.coker_one_plus_vartheta(A)
    assert len(calls) == 1


def _two_ends_distinguish(Gx, gen):
    """upsilon_distinguish on <g^(2^k) S, S>; the deep squares leave the
    chain of the summand that the shallow one built as it was built."""
    S, g = Gx.parse_element("S"), Gx.parse_element(gen)
    invs = [Gx.mul(Gx.power(g, 1 << k), S) for k in range(10)]
    lc = ups.l_of_class(Gx, Gx.mul(invs[1], S))
    base = len(lc.zs)
    exprs = [arf.ArfExpression(arf.GROUP, Gx, [(x, S)]) for x in invs]
    exprs.append(arf.ArfExpression(arf.GROUP, Gx, [(invs[1], S), (S, S)]))
    for e1, e2 in zip(exprs, exprs[1:]):
        ups.upsilon_distinguish(e1, e2)
    assert len(lc.zs) == base


def _algebra_queries(A):
    H.space(A, "H0")
    H.space(A, "H1")
    hq = H.space(A, "HQ1")
    H.vartheta(A, hq.class_of(hq.basis[0]))
    H.coker_one_plus_vartheta(A)


def _finite_upsilon(Gx):
    """Upsilon of every pair of involutions: the first insert into each
    finite L(c) lays out its members."""
    invs = Gx.involutions()
    return [ups.upsilon_eval(arf.ArfExpression(arf.GROUP, Gx, [(a, b)]))
            for a in invs for b in invs]


def test_descriptors_die_with_their_last_name():
    # derived data holds elements, indices and F_p data only, so no
    # reference cycle keeps a queried group or algebra alive; a finite
    # L(c) lays out its members through a weak reference to its group
    cases = [
        (lambda: G.dihedral_group(6), ups.j_group_dimension),
        (lambda: G.symmetric_group(4), _finite_upsilon),
        (G.group_order24, _finite_upsilon),
        (G.group_c_by_d4, lambda Gx: _two_ends_distinguish(Gx, "Y^2")),
        (G.group_c2_c_c12, lambda Gx: _two_ends_distinguish(Gx, "X")),
        (G.group_plane, lambda Gx: [
            ups.upsilon_eval(arf.parse_expression(arf.GROUP, Gx, e))
            for e in ("<S, S*Y^2>", "<S*X, S*X*Y^2> + <1, 1>")]),
        (lambda: H.group_algebra(G.symmetric_group(3), 2), _algebra_queries),
    ]
    gc.collect()
    gc.disable()
    try:
        for make, query in cases:
            obj = make()
            query(obj)
            ref = weakref.ref(obj)
            del obj
            assert ref() is None, make
    finally:
        gc.enable()


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


def test_finite_summand_lays_out_once_under_threads():
    """8 threads racing first inserts into one finite L(c), each in its own
    order, get the serial payloads, and all read one member layout."""
    def queries(Gx):
        part = sorted(max(gcl.cl_partition_finite(Gx), key=len), key=Gx.key)
        return part[0], [(w, h, tbit) for w in part
                         for h in (gst.extended_centralizer(Gx, w) if gst.type_of(Gx, w) == 2
                                   else gst.centralizer(Gx, w)).members
                         for tbit in ((0, 1) if gst.type_of(Gx, w) == 1 else (0,))]

    serial_group = G.group_order24()
    z, serial_queries = queries(serial_group)
    lc = ups.l_of_class(serial_group, z)
    serial = [lc.insert_entry(serial_group, *q) for q in serial_queries]
    assert len({q[0] for q in serial_queries}) > 1 and any(map(any, serial))

    Gx = G.group_order24()
    z, qs = queries(Gx)
    lc = ups.l_of_class(Gx, z)
    start = threading.Barrier(8)
    got = {}

    def query(t):
        start.wait(timeout=10)
        order = qs[t::8] + qs[:t] + qs
        got[t] = ({q: lc.insert_entry(Gx, *q) for q in order}, lc._layout())

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
    for answers, layout in got.values():
        assert [answers[q] for q in qs] == serial
        assert layout is lc._layout()


def _deep_queries(Gx):
    """Deep squares X^(2^k) of the infinite-order generator: each one lies
    past the base squaring chain of its summand."""
    X = Gx.parse_element("X")
    out = [Gx.power(X, 1 << k) for k in range(4, 12)]
    return [(z, z) for z in out]     # z centralizes itself


def test_two_ends_summand_extends_once_under_threads(monkeypatch):
    serial_group = G.group_c2_c_c12()
    queries = _deep_queries(serial_group)
    lc = ups.l_of_class(serial_group, queries[0][0])
    serial = [lc.insert_entry(serial_group, z, h) for z, h in queries]
    searched = []
    real = gcl.power_conj_search
    monkeypatch.setattr(gcl, "power_conj_search",
                        lambda G_, z, targets: searched.append(z) or real(G_, z, targets))

    Gx = G.group_c2_c_c12()
    lc = ups.l_of_class(Gx, queries[0][0])
    start = threading.Barrier(8)
    got = {}

    def query(t):
        start.wait(timeout=10)
        order = queries[t % 2::2] + queries[1 - t % 2::2]
        got[t] = {z: lc.insert_entry(Gx, z, h) for z, h in order}

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
    # every thread reads the one transport of each z
    assert sorted(searched) == sorted(z for z, _ in queries)
    assert len(lc.zs) == len(set(lc.zs)) == len(lc.chain) == len(lc.maps) + 1
    for k in range(len(lc.zs) - 1):
        assert lc.zs[k + 1] == Gx.mul(lc.zs[k], lc.zs[k])


def test_class_and_type_tables_agree_under_threads():
    # racing first queries of fresh infinite descriptors all get the serial
    # answers, and every thread gets the one key object stored per element;
    # the element records of Upsilon hold the one L(c) of the element's
    # class and its type
    for make in (G.group_c2_c_c12, G.group_c_by_d4, G.group_plane):
        serial_group = make()
        zs = serial_group.window_elements(3)
        serial = [(gcl.class_key(serial_group, z), gst.type_of(serial_group, z))
                  for z in zs]
        Gx = make()
        start = threading.Barrier(8)
        got = {}

        def query(t):
            start.wait(timeout=10)
            order = zs[t::8] + zs[:t] + zs
            got[t] = {z: (gcl.class_key(Gx, z), gst.type_of(Gx, z), ups._summand(Gx, z))
                      for z in order}

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
            assert [answers[z][:2] for z in zs] == serial
            assert all(answers[z][0] is got[0][z][0] for z in zs)
            for z in zs:
                lc, tp = answers[z][2]
                assert lc is got[0][z][2][0] is ups.l_of_class(Gx, z) and tp == answers[z][1]
