"""Reduced power operations on low-dimensional homology.

theta_p on H_0 raises representatives to the p-th power; on H_1 it is the
orbit-sum formula over rotation orbits of index tuples, independent of the
chosen orbit representatives.  vartheta is its quaternionic refinement,
landing in Coker(mu) = HQ_1 / span{[x (x) x, 0]}, and Coker(1 + vartheta)
is the value group of the generalized Arf invariant.
"""
from __future__ import annotations

import itertools

from .. import fp
from ..memo import derived
from .algebras import AlgebraError
from .chains import (HomologySpace, HomologyClass, homology, hq1, tensor2,
                     t_add, t_scale, flatten, unflatten, hq_vector)


# -- summand decomposition ---------------------------------------------------


def unit_summands(A, chain2):
    """Write a T_2 chain as a list of (alpha, beta) basis-vector pairs with
    unit coefficients (coefficients folded by repetition; p is small)."""
    out = []
    for (i, j), c in sorted(chain2.items()):
        for _ in range(c % A.p):
            out.append((A.basis_vec(i), A.basis_vec(j)))
    return out


# -- theta_p -----------------------------------------------------------------


def theta_p_h0(A, c: HomologyClass, p=None) -> HomologyClass:
    """theta_p([r]) = [r^p] in H_0(R/pR)."""
    p = p or A.p
    if p != A.p:
        raise AlgebraError("theta_p needs p = char of the algebra")
    h0 = _space(A, "H0")
    r = c.vec
    return h0.class_of(A.power(r, p))


def rotation_orbit_reps(n, p, shuffle_key=None):
    """Representatives of the rotation orbits on index tuples I_n^p minus
    the constants.  Default: lexicographic minima."""
    seen = set()
    reps = []
    for t in itertools.product(range(n), repeat=p):
        if len(set(t)) == 1:
            continue
        if t in seen:
            continue
        orbit = {t[k:] + t[:k] for k in range(p)}
        seen |= orbit
        if shuffle_key is None:
            reps.append(min(orbit))
        else:
            reps.append(sorted(orbit)[shuffle_key(orbit)])
    return reps


def theta_p_h1(A, c: HomologyClass, shuffle_key=None) -> HomologyClass:
    """theta_p: H_1(R) -> HC_1(R/pR) by the orbit-sum formula."""
    p = A.p
    summands = unit_summands(A, unflatten(A, 2, c.vec))
    n = len(summands)
    out = {}
    for alpha, beta in summands:
        ab = A.mul(alpha, beta)
        left = A.mul(A.power(ab, p - 1), alpha)
        out = t_add(p, out, tensor2(A, left, beta))
    for gamma in rotation_orbit_reps(n, p, shuffle_key):
        for t in range(1, p):
            rot = gamma[-t:] + gamma[:-t]  # sigma^t gamma, sigma a rotation
            out = t_add(p, out, t_scale(p, _gamma_chain(A, rot, summands, False), t))
            out = t_add(p, out, t_scale(p, _gamma_chain(A, rot, summands, True), -t))
    hc1 = _space(A, "HC1")
    return hc1.class_of(flatten(A, 2, out))


def _gamma_chain(A, tup, summands, swapped):
    """gamma(alpha, beta) = a_{i1} b_{i1} ... a_{i(p-1)} b_{i(p-1)} (x)
    a_{ip} b_{ip}."""
    left = A.unit
    for i in tup[:-1]:
        a, b = summands[i]
        if swapped:
            a, b = b, a
        left = A.mul(left, A.mul(a, b))
    a, b = summands[tup[-1]]
    if swapped:
        a, b = b, a
    return tensor2(A, left, A.mul(a, b))


def b_map(A, c: HomologyClass) -> HomologyClass:
    """B: HC_0 -> H_1, [r] -> [1 (x) r]."""
    h1 = _space(A, "H1")
    return h1.class_of(flatten(A, 2, tensor2(A, A.unit, c.vec)))


def q_map(A, c: HomologyClass) -> HomologyClass:
    """q = theta_p . B: HC_0 -> HC_1, [r] -> [r^(p-1) (x) r]."""
    hc1 = _space(A, "HC1")
    r = c.vec
    return hc1.class_of(flatten(A, 2, tensor2(A, A.power(r, A.p - 1), r)))


def theta_aux(A, chain2):
    """The auxiliary theta: R (x) R -> R_ab,
    sum_{i<j} [u_i,v_i][u_j,v_j] + sum_i u_i v_i [u_i,v_i]."""
    summands = unit_summands(A, chain2)
    acc = A.zero_vec()
    comms = [A.commutator(u, v) for u, v in summands]
    for i, (u, v) in enumerate(summands):
        acc = A.add(acc, A.mul(A.mul(u, v), comms[i]))
        for j in range(i + 1, len(summands)):
            acc = A.add(acc, A.mul(comms[i], comms[j]))
    h0 = _space(A, "H0")
    return h0.class_of(acc)


# -- vartheta and Coker(1 + vartheta) ----------------------------------------


def mu_rows(A):
    """span{[x (x) x, 0]}: the images of mu over basis vectors plus their
    polarizations."""
    rows = []
    for i in range(A.dim):
        rows.append(hq_vector(A, tensor2(A, A.basis_vec(i), A.basis_vec(i)),
                              A.zero_vec()))
        for j in range(i + 1, A.dim):
            ch = t_add(A.p, tensor2(A, A.basis_vec(i), A.basis_vec(j)),
                       tensor2(A, A.basis_vec(j), A.basis_vec(i)))
            rows.append(hq_vector(A, ch, A.zero_vec()))
    return rows


def nu_map(A, x):
    """nu: R -> HQ_1, x -> [1 (x) x, 0]."""
    return hq_vector(A, tensor2(A, A.unit, x), A.zero_vec())


def vartheta(A, c: HomologyClass):
    """vartheta: HQ_1(R) -> Coker(mu_{R/2R}) on the class level; returns
    the canonical coordinates in the Coker(mu) context."""
    if c.space.kind != "HQ1":
        raise AlgebraError("vartheta expects an HQ1 class")
    d2 = A.dim * A.dim
    from .chains import unflatten as _unf
    ch2 = _unf(A, 2, c.vec[:d2])
    c1 = tuple(c.vec[d2:])
    out2, outc = vartheta_chain(A, ch2, c1)
    return _coker_mu(A).reduce(hq_vector(A, out2, outc))


def _coker_mu(A):
    return derived(A, "coker_mu", CokerMu, A)


def vartheta_chain(A, chain2, cpart):
    """The quaternionic squaring formula on a (sum a_i (x) b_i, c)
    representative (p = 2)."""
    if A.p != 2:
        raise AlgebraError("vartheta is the p = 2 operation")
    summands = unit_summands(A, chain2)
    out = {}
    prods = [(A.mul(a, b), A.mul(b, a)) for a, b in summands]
    for (a, b), (ab, ba) in zip(summands, prods):
        out = t_add(2, out, tensor2(A, A.mul(ab, a), b))
        out = t_add(2, out, tensor2(A, ab, ba))
    for i in range(len(summands)):
        si = A.add(prods[i][0], prods[i][1])
        for j in range(i + 1, len(summands)):
            sj = A.add(prods[j][0], prods[j][1])
            out = t_add(2, out, tensor2(A, si, sj))
    out = t_add(2, out, tensor2(A, cpart, A.invol(cpart)))
    return out, A.mul(cpart, cpart)


class CokerMu:
    """Coker(mu_{R/2R}) with exact class comparison."""

    def __init__(self, A):
        self.A = A
        self.hq = hq1(A)
        rows = self.hq.context.space.basis() + mu_rows(A)
        self.context = fp.QuotientContext(self.hq.ambient_dim, A.p, rows)

    def reduce(self, vec):
        return self.context.reduce(vec)


class CokerOnePlusVartheta:
    """The value group of Upsilon for a char-2 algebra with involution."""

    def __init__(self, A):
        if A.p != 2:
            raise AlgebraError("Upsilon needs characteristic 2")
        self.A = A
        # a local CokerMu, not _coker_mu(A): stored on A, it and its HQ_1
        # would live as long as A, which memoized spaces (they refer back to
        # A) keep in a reference cycle until the cyclic collector runs
        self.coker_mu = CokerMu(A)
        self.hq = self.coker_mu.hq
        rows = list(self.coker_mu.context.space.basis())
        for v in self.hq.basis:
            ch2 = unflatten(A, 2, v[:A.dim * A.dim])
            c1 = v[A.dim * A.dim:]
            th2, thc = vartheta_chain(A, ch2, c1)
            img = fp.add_vec(v, hq_vector(A, th2, thc), A.p)
            rows.append(img)
        self.context = fp.QuotientContext(self.hq.ambient_dim, A.p, rows)
        basis = []
        probe = self.context.space
        for v in self.hq.cycles:
            if not probe.contains(v):
                basis.append(v)
                probe = probe.extended([v])
        self.basis = basis

    @property
    def dim(self):
        """Number of independent cycle classes (the ambient quotient also
        contains non-cycle coordinates)."""
        return len(self.basis)

    def reduce(self, vec):
        return self.context.reduce(vec)

    def upsilon_pair(self, a, b):
        """[a (x) b, ab] for Lambda_1 elements a, b."""
        return self.reduce(hq_vector(self.A, tensor2(self.A, a, b),
                                     self.A.mul(a, b)))

    def upsilon_expression(self, pairs):
        acc = fp.zeros(self.hq.ambient_dim)
        for a, b in pairs:
            acc = fp.add_vec(acc, hq_vector(self.A, tensor2(self.A, a, b),
                                            self.A.mul(a, b)), self.A.p)
        return self.reduce(acc)


def coker_one_plus_vartheta(A):
    return CokerOnePlusVartheta(A)


# -- space cache -------------------------------------------------------------


def _space(A, kind) -> HomologySpace:
    return derived(A, kind, homology, A, kind)


def space(A, kind) -> HomologySpace:
    return _space(A, kind)
