import itertools

import pytest

import arfkit.groups as G
import arfkit.homology as H


@pytest.fixture(scope="module")
def setups():
    R1 = H.field_algebra(2)
    R2 = H.group_algebra(G.cyclic_group(2), 2)
    return [(R1, H.matrix_algebra(R1, 2)), (R2, H.matrix_algebra(R2, 2))]


def test_trace_iota_identity(setups):
    for R, A in setups:
        for k in (1, 2, 3):
            for key in itertools.product(range(R.dim), repeat=k):
                ch = {key: 1}
                assert H.trace_chain(A, k, H.iota_chain(A, k, ch)) == ch


def test_homotopy_identity(setups):
    for R, A in setups:
        for k in (1, 2):
            for key in itertools.product(range(A.dim), repeat=k):
                ch = {key: 1}
                lhs = H.boundary(A, k + 1, H.chi(A, k, ch))
                if k > 1:
                    lhs = H.t_add(A.p, lhs, H.chi(A, k - 1, H.boundary(A, k, ch)))
                rhs = H.t_add(A.p, ch, H.t_neg(A.p, H.iota_chain(
                    A, k, H.trace_chain(A, k, ch))))
                assert lhs == rhs


def test_trace_preserves_x_and_y(setups):
    for R, A in setups:
        for k in (1, 2):
            for key in itertools.product(range(A.dim), repeat=k):
                ch = {key: 1}
                assert H.trace_chain(A, k, H.cyclic_x(A, k, ch)) == \
                    H.cyclic_x(R, k, H.trace_chain(A, k, ch))
                assert H.trace_chain(A, k, H.quaternion_y(A, k, ch)) == \
                    H.quaternion_y(R, k, H.trace_chain(A, k, ch))


def test_trace_is_chain_map(setups):
    for R, A in setups:
        for key in itertools.product(range(A.dim), repeat=2):
            ch = {key: 1}
            assert H.trace_chain(A, 1, H.boundary(A, 2, ch)) == \
                H.boundary(R, 2, H.trace_chain(A, 2, ch))


def _classes_map(src_space, dst_space, f):
    out = []
    for v in src_space.basis:
        out.append((v, f(v)))
    return out


def test_commuting_square_B(setups):
    # B: HC0 -> H1 commutes with Tr
    for R, A in setups:
        hc0A = H.space(A, "HC0")
        h1R = H.space(R, "H1")
        for v in hc0A.basis:
            lhs = H.trace_chain(A, 2, H.tensor2(A, A.unit, v))
            r = H.trace_chain(A, 1, {tuple([i]): c for i, c in enumerate(v) if c})
            rv = H.flatten(R, 1, r)
            rhs = H.tensor2(R, R.unit, rv)
            assert h1R.class_of(H.flatten(R, 2, lhs)) == \
                h1R.class_of(H.flatten(R, 2, rhs))


def test_commuting_square_theta_h0(setups):
    for R, A in setups:
        h0R = H.space(R, "H0")
        for i in range(A.dim):
            v = A.basis_vec(i)
            lhs = H.theta_p_h0(R, h0R.class_of(_tr1(A, R, v)))
            rhs = h0R.class_of(_tr1(A, R, A.power(v, 2)))
            assert lhs == rhs


def _tr1(A, R, vec):
    ch = H.trace_chain(A, 1, {(i,): c for i, c in enumerate(vec) if c})
    return H.flatten(R, 1, ch)


def test_commuting_square_theta_hc1(setups):
    # theta_p: HC1 -> HC1/Im(q) commutes with Tr
    for R, A in setups:
        h1A = H.space(A, "H1")
        hc1R = H.space(R, "HC1")
        qrows = []
        for i in range(R.dim):
            r = R.basis_vec(i)
            qrows.append(H.flatten(R, 2, H.tensor2(R, R.power(r, R.p - 1), r)))
        import arfkit.fp as fp
        modq = fp.QuotientContext(R.dim ** 2, R.p,
                                  list(hc1R.context.basis()) + qrows)
        for v in h1A.basis[:6]:
            up = H.theta_p_h1(A, h1A.class_of(v))
            lhs = H.trace_chain(A, 2, H.unflatten(A, 2, up.vec))
            down = H.trace_chain(A, 2, H.unflatten(A, 2, v))
            rhs = H.theta_p_h1(R, H.space(R, "H1").class_of(H.flatten(R, 2, down)))
            assert modq.reduce(H.flatten(R, 2, lhs)) == modq.reduce(rhs.vec)


def test_commuting_square_vartheta(setups):
    for R, A in setups:
        hqA = H.hq1(A)
        cokR = H.CokerMu(R)
        dA = A.dim * A.dim
        for v in hqA.basis[:6]:
            ch2 = H.unflatten(A, 2, v[:dA])
            c1 = v[dA:]
            up2, upc = H.vartheta_chain(A, ch2, c1)
            lhs2 = H.trace_chain(A, 2, up2)
            lhsc = _tr1(A, R, upc)
            lhs = H.hq_vector(R, lhs2, lhsc)
            down2 = H.trace_chain(A, 2, ch2)
            downc = _tr1(A, R, tuple(c1))
            rh2, rhc = H.vartheta_chain(R, down2, downc)
            rhs = H.hq_vector(R, rh2, rhc)
            assert cokR.reduce(lhs) == cokR.reduce(rhs)
