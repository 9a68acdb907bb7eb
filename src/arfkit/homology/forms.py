"""F_2[G] homology from the forms that vanish on its relations.

H_1, HC_1 and HQ_1 of an F_2 group algebra, and the Coker(mu) and
Coker(1 + vartheta) built on HQ_1, never eliminate their relation rows.
`ColumnForms` keeps the linear forms that vanish on them, fixed by
d (|middles| + 1) values instead of d^2 + d; the proof is in its
docstring.  Dimensions, independence and fp's residues are read from
there by `formspace.FormQuotient`, which the colimit model shares.
This is the trick of Fox's free differential calculus (R. H. Fox, Free
differential calculus I, Ann. of Math. 57 (1953)) on the bar complex.
With Python 3.11 on 2 vCPU the S5 cokernel takes about 0.2 s, C2^7's
0.2 s, and S3^3's (order 216) about 0.9 s at a peak RSS near 50 MB.

`chains` imports this module on the first F_2 group-algebra build, not
when it is imported itself: where no bytecode is cached, every import
compiles its source, and this module is the largest part of the homology
code that only those builds need.
"""
from __future__ import annotations

import itertools
from bisect import bisect_left

from .. import fp
from ..formspace import FormQuotient, ones

# columns per block of kernel forms that `ColumnForms.kernel_independent`
# writes before the sweep reads them
SPAN = 1024


class ColumnForms(FormQuotient):
    """T_2, or T_2 + T_1 for HQ_1, of an F_2 group algebra modulo b(T_3) and
    further relation rows, kept as the linear forms that vanish on them.

    Every e_x e_y of F_2[G] is one basis element; write xy for its index
    (`FiniteAlgebra.table`).  A form f on T_2 vanishes on
    b(e_x (x) e_s (x) e_k) = e_xs (x) e_k + e_x (x) e_sk + e_kx (x) e_s iff

        f(x (x) sk) = f(xs (x) k) + f(kx (x) s).

    So f is fixed by U unknowns: its values at x (x) s for each middle s
    and every x, and on T_1 (HQ_1) one value per column.  A breadth-first
    walk over y = sk, from the middles, writes the form q(c) of every
    column c = x (x) y (bit u of q(c) is the coefficient of unknown u) as
    q(xs (x) k) + q(kx (x) s), two forms written before it.  The map
    Q(v) = sum of q(c) over the bits c of v takes a relation row to its
    constraint on the unknowns: the triples (x, s, k) the walk does not
    use give the rows of b(T_3) (the ones it uses give 0), and the other
    rows (f1 and f2 of HQ_1, those of HC_1, mu, 1 + vartheta) give the
    XOR of q over their bits.  The quotient is F_2^U modulo the
    constraints, an `fp.QuotientContext` of width U = d(|middles| + 1)
    for HQ_1 (d |middles| for H_1 and HC_1), not d^2 + d.

    Proof.  Let B be the span of the rows b(e_x (x) e_s (x) e_k) for the
    middles s, R the span of B and the other rows, and C the span of the
    constraints.
    (a) B = b(T_3) by the middles argument of `_b2_rows`, so a form
        vanishes on b(T_3) iff it vanishes on each triple: on the ones the
        walk uses by construction, on the others by the constraints.
    (b) The walk reaches every column.  The reached y contain the middles
        and are closed under left multiplication by a middle, and every
        element of a finite group is a product of middles when they
        generate it.  When they do not (a planted fault in the tests),
        each column the walk misses gets unknowns of its own; then every
        triple is a constraint and (a) still holds.
    So Q maps F_2^n onto F_2^U (an unknown is the form of its own column).
    Its kernel has dimension n - U and holds the n - U rows of the triples
    the walk uses, one per column it writes, which are independent (each
    has the column it writes to itself) and lie in R.  So Q(R) = C, and
    `FormQuotient` reads the quotient, and fp's residues, from C.
    """

    def __init__(self, A, t1, rows):
        d, table, middles = A.dim, A.table, A.middles
        right = list(zip(*table))           # right[s][x] = xs
        cols = [None] * d                   # cols[y][x] = q(x (x) y)
        width = 0
        walk = []
        for s in middles:
            if cols[s] is None:
                cols[s] = [1 << width + x for x in range(d)]
                width += d
                walk.append(s)
        for k in walk:                      # grows while it is read
            ck = cols[k]
            for s in middles:
                y = table[s][k]
                if cols[y] is None:
                    cs = cols[s]
                    cols[y] = [ck[xs] ^ cs[kx] for xs, kx in zip(right[s], table[k])]
                    walk.append(y)
        for y in range(d):
            if cols[y] is None:
                cols[y] = [1 << width + x for x in range(d)]
                width += d
        q = [c for row in zip(*cols) for c in row]
        if t1:
            q += [1 << width + i for i in range(d)]
            width += d

        def triples():
            for s in middles:
                cs, rs = cols[s], right[s]
                for k in range(d):
                    ck = cols[k]
                    yield [c ^ ck[xs] ^ cs[kx]
                           for c, xs, kx in zip(cols[table[s][k]], rs, table[k])]

        super().__init__(q, width, itertools.chain(
            itertools.chain.from_iterable(triples()), map(self._form, rows)))

    def kernel_independent(self, equations):
        """`independent` of the basis of `fp.kernel_packed(equations, dim)`,
        without writing its vectors: the one for a non-pivot column f of the
        reduced equations is e_f plus the pivots j whose row has bit f, so
        its form is q(f) plus those q(j).  The forms are written a block of
        columns at a time, as the sweep reads them, and only the kept
        vectors are written out.

        Every relation row is a cycle (b b = 0; b(e_i (x) e_j + e_j (x) e_i)
        = 0; f1 and f2 satisfy the HQ_1 equations), so the cycles Z hold R
        and Z / R has dimension (dim - rank) - (dim - quotient_dim) for the
        rank of the equations: the sweep stops once that many are kept."""
        q, dim, modulo = self.q, self.dim, self.forms.reduce_packed
        reduced = fp.Subspace(dim, 2, equations).packed_basis()
        pivots = [(r & -r).bit_length() - 1 for r in reduced]
        rest = [(modulo(q[j]), r ^ 1 << j) for j, r in zip(pivots, reduced)]
        skip = set(pivots)
        free = [f for f in range(dim) if f not in skip]

        def images():
            for a in range(0, dim, SPAN):
                block = [modulo(v) for v in q[a:a + SPAN]]
                for qj, r in rest:
                    for f in ones(r >> a & (1 << SPAN) - 1):
                        block[f] ^= qj
                for f in free[bisect_left(free, a):bisect_left(free, a + SPAN)]:
                    yield block[f - a]

        most = self.quotient_dim - len(reduced)
        out = {free[k]: 1 << free[k] for k in self._choose(images(), most)}
        kept = sum(out.values())
        for j, r in zip(pivots, reduced):
            for f in ones(r & kept):
                out[f] |= 1 << j
        return list(out.values())
