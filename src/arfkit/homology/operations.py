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
from .algebras import AlgebraError, GroupAlgebra
from .chains import (HomologySpace, HomologyClass, homology, hq1, tensor2,
                     tensor_bits, t_add, t_scale, flatten, unflatten, hq_vector,
                     vectors)


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
    h0 = space(A, "H0")
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
    hc1 = space(A, "HC1")
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
    h0 = space(A, "H0")
    return h0.class_of(acc)


# -- vartheta and Coker(1 + vartheta) ----------------------------------------


def mu_rows(A):
    """span{[x (x) x, 0]} as rows: e_i (x) e_i and the polarizations
    e_i (x) e_j + e_j (x) e_i, packed over F_2 and sparse dicts otherwise
    (either form has one entry when i = j)."""
    if A.p == 2:
        return [(1 << a) | (1 << b) for a, b in _mu_pairs(A.dim)]
    return [{a: 1, b: 1} for a, b in _mu_pairs(A.dim)]


def _mu_pairs(d):
    """The columns (i d + j, j d + i), i <= j, of the rows of `mu_rows`."""
    return ((i * d + j, j * d + i) for i in range(d) for j in range(i, d))


def vartheta(A, c: HomologyClass):
    """vartheta: HQ_1(R) -> Coker(mu_{R/2R}) on the class level; returns
    the canonical coordinates in the Coker(mu) context."""
    if c.space.kind != "HQ1":
        raise AlgebraError("vartheta expects an HQ1 class")
    d2 = A.dim * A.dim
    out2, outc = vartheta_chain(A, unflatten(A, 2, c.vec[:d2]), c.vec[d2:])
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


def _one_plus_vartheta_rows(A, rows):
    """(1 + vartheta) of packed (ch2, c1) rows over T_2 + T_1: the formula of
    `vartheta_chain`, summands in increasing column order as `unit_summands`
    takes them, with products read by `basis_product` and `times` and the
    involution by `invol_packed`.  An F_2 group algebra writes the forms of
    these rows instead (`forms.ColumnForms.one_plus_vartheta`)."""
    d, product, times = A.dim, A.basis_product, A.times
    D = d * d
    out = []
    for vec in rows:
        ch2, c = vec & ((1 << D) - 1), vec >> D
        th2 = prefix = 0
        while ch2:
            low = ch2 & -ch2
            i, j = divmod(low.bit_length() - 1, d)
            ab, ba = product(i, j), product(j, i)
            # ab a (x) b + ab (x) ba, and s_earlier (x) s for s = ab + ba
            th2 ^= (tensor_bits(d, times(ab, 1 << i), 1 << j) ^ tensor_bits(d, ab, ba)
                    ^ tensor_bits(d, prefix, ab ^ ba))
            prefix ^= ab ^ ba
            ch2 ^= low
        th2 ^= tensor_bits(d, c, A.invol_packed(c))
        out.append(vec ^ th2 ^ times(c, c) << D)
    return out


class CokerMu:
    """Coker(mu_{R/2R}) with exact class comparison: HQ_1 modulo the
    [x (x) x, 0], spanned by the e_i (x) e_i and the polarizations
    e_i (x) e_j + e_j (x) e_i (`mu_rows`).  An F_2 group algebra divides
    its column forms by the e_i (x) e_i and the polarizations at the
    middles only, which span the others modulo b(T_3):
    P(i, jk) == P(ki, j), and every y is s (s^-1 y) for a middle s (the
    proof is in `forms.polarizations`).  Where the walk of its forms
    misses a column, every pair is written."""

    def __init__(self, A):
        self.hq = space(A, "HQ1")
        context = self.hq.context
        if A.p == 2 and isinstance(A, GroupAlgebra):    # column forms: no row is written
            from .forms import polarizations
            diagonal = [(i * (A.dim + 1),) * 2 for i in range(A.dim)]
            self.context = context.extended_pairs(diagonal + polarizations(A, context))
        else:
            self.context = context.extended(mu_rows(A))

    def reduce(self, vec):
        return self.context.reduce(vec)


class CokerOnePlusVartheta:
    """The value group of Upsilon for a char-2 algebra with involution."""

    def __init__(self, A):
        if A.p != 2:
            raise AlgebraError("Upsilon needs characteristic 2")
        self.A = A
        self.coker_mu = _coker_mu(A)
        self.hq = self.coker_mu.hq
        # independent modulo the larger context: the HQ_1 basis rows give the
        # same choice as all the cycles (the others lie in the HQ_1 context
        # plus the span of the rows before them)
        rows, context = self.hq.basis_rows, self.coker_mu.context
        if isinstance(A, GroupAlgebra):     # column forms: the images as forms
            self.context, self.basis_rows = context.one_plus_vartheta(A, rows)
        else:
            self.context = context.extended(_one_plus_vartheta_rows(A, rows))
            self.basis_rows = self.context.independent(rows)

    @property
    def basis(self):
        """`basis_rows` as tuples, unpacked on each read."""
        return vectors(2, self.hq.ambient_dim, self.basis_rows)

    @property
    def dim(self):
        """Number of independent cycle classes (the ambient quotient also
        contains non-cycle coordinates)."""
        return len(self.basis_rows)

    def reduce(self, vec):
        return self.context.reduce(vec)

    def upsilon_pair(self, a, b):
        """[a (x) b, ab] for Lambda_1 elements a, b, reduced."""
        return self.upsilon_expression([(a, b)])

    def upsilon_expression(self, pairs):
        """The reduced sum of the [a (x) b, ab] of the pairs (a, b), as a
        tuple.  Each is written packed, ab read by `times`, so a group
        algebra writes no product table."""
        d, times = self.A.dim, self.A.times
        acc = 0
        for a, b in pairs:
            a, b = fp.pack(a), fp.pack(b)
            acc ^= tensor_bits(d, a, b) ^ times(a, b) << d * d
        return fp.unpack(self.context.reduce_packed(acc), self.hq.ambient_dim)


def coker_one_plus_vartheta(A):
    return CokerOnePlusVartheta(A)


# -- space cache -------------------------------------------------------------


def space(A, kind) -> HomologySpace:
    """The homology space `kind` of A, built once per algebra."""
    if kind == "HQ1":
        return derived(A, kind, hq1, A)
    return derived(A, kind, homology, A, kind)
