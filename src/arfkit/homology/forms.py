"""F_2[G] homology from the forms that vanish on its relations.

H_1, HC_1 and HQ_1 of an F_2 group algebra, and the Coker(mu) and
Coker(1 + vartheta) built on HQ_1, never eliminate their relation rows
nor their cycle equations.  `ColumnForms` keeps the linear forms that
vanish on the relations, fixed by d (|middles| + 1) values instead of
d^2 + d; the proof is in its docstring.  Dimensions, independence and
fp's residues are read from there by `formspace.FormQuotient`, which the
colimit model shares.  This is the trick of Fox's free differential
calculus (R. H. Fox, Free differential calculus I, Ann. of Math. 57
(1953)) on the bar complex.  The cycles are the fundamental cycles of a
spanning forest of the graph the cycle equations draw on G
(`ColumnForms.cycles`).  With Python 3.11 on 2 vCPU the S5 cokernel
takes about 0.1 s of CPU time, C2^7's 0.1 s, and S3^3's (order 216)
about 0.5 s at a peak RSS near 40 MB.

`chains` imports this module on the first F_2 group-algebra build, not
when it is imported itself: where no bytecode is cached, every import
compiles its source, and this module is the largest part of the homology
code that only those builds need.
"""
from __future__ import annotations

import itertools

from ..formspace import FormQuotient


class ColumnForms(FormQuotient):
    """T_2, or T_2 + T_1 for HQ_1, of an F_2 group algebra modulo b(T_3) and,
    for HQ_1, its f1 and f2 rows, kept as the linear forms that vanish on
    them (further rows are divided out by `extended` and
    `extended_pairs`).

    Every e_x e_y of F_2[G] is one basis element; write xy for its index
    (`GroupAlgebra.table`).  A form f on T_2 vanishes on
    b(e_x (x) e_s (x) e_k) = e_xs (x) e_k + e_x (x) e_sk + e_kx (x) e_s iff

        f(x (x) sk) = f(xs (x) k) + f(kx (x) s).

    So f is fixed by U unknowns: its values at x (x) s for each middle s
    and every x, and on T_1 (HQ_1) one value per column.  A breadth-first
    walk over y = sk, from the middles, writes the form q(c) of every
    column c = x (x) y (bit u of q(c) is the coefficient of unknown u) as
    q(xs (x) k) + q(kx (x) s), two forms written before it (`_walk`).
    The map Q(v) = sum of q(c) over the bits c of v takes a relation row
    to its constraint on the unknowns: the triples (x, s, k) the walk does
    not use give the rows of b(T_3) (`_triple_forms`; the ones it uses
    give 0 and are not written), and the other rows (f1 and f2 of HQ_1,
    read by their columns in `_hq1_forms`, those of HC_1, mu,
    1 + vartheta) give the XOR of q over their columns.  The quotient is
    F_2^U modulo the constraints, an `fp.QuotientContext` of width
    U = d(|middles| + 1) for HQ_1 (d |middles| for H_1 and HC_1), not
    d^2 + d.

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

    def __init__(self, A, t1):
        cols, width, steps = _walk(A)
        q = [c for row in zip(*cols) for c in row]
        constraints = itertools.chain.from_iterable(_triple_forms(A, cols, steps))
        if t1:
            q += [1 << width + i for i in range(A.dim)]
            width += A.dim
            constraints = itertools.chain(constraints, _hq1_forms(A, q))
        super().__init__(q, width, constraints)

    def cycles(self, A):
        """`independent` of fp's basis of the cycles (`fp.kernel_packed` of
        the cycle equations, over T_2, or T_2 + T_1 when q has the T_1
        columns), read off a spanning forest: no equation is written or
        eliminated, and only the kept cycles are written out.

        The equations are the incidence matrix of a graph on G:
        b(e_x (x) e_y) = e_xy + e_yx, so column x (x) y joins xy and yx,
        and the T_1 column of e_g, e_g + e_g^-1, joins g and g^-1 (a
        column whose ends are equal is zero).  Its trees are the classes
        of G (yx = x^-1 (xy) x), and with T_1 the blocks {[g], [g^-1]}.

        Proof that the cycles are fp's, bit for bit.  fp's pivots are the
        lowest bits of the reduced equations, i.e. the columns that are
        independent of the earlier ones: the spanning forest that
        Kruskal's greedy choice takes in column order.  fp's kernel vector
        for a free column f is e_f plus the pivots j whose reduced row has
        bit f, all of them below f; it is the one kernel vector supported
        on {f} and the pivots, so it is f's fundamental cycle: f plus the
        forest path between its ends.

        One pass over the columns in column order builds the forest by
        union-find, relabelling the smaller tree.  For each element v it
        keeps P[v] and V[v], the XOR of q and of the column bits along the
        forest path from v to its root; the path between two elements of
        one tree is the XOR of their paths to the root.  A union gives
        every element of the relabelled tree the same XOR, so P[a] ^ P[b]
        and V[a] ^ V[b] of two joined elements never change after they
        are joined, and read at the end they are those of the forest path.
        So a free column f with ends a and b has the cycle
        e_f ^ V[a] ^ V[b], and its image Q is q(f) ^ P[a] ^ P[b].  The
        images are reduced modulo C as `_choose` reads them, so that the
        values it holds to drop repeats are few (0 or repeated for most
        columns).

        Every relation row is a cycle (b b = 0; b(e_i (x) e_j + e_j (x) e_i)
        = 0; f1 and f2 satisfy the HQ_1 equations), so the cycles Z hold R,
        and Z / R has dimension (dim - rank) - (dim - quotient_dim) for the
        rank of the equations, the number of forest edges: the sweep stops
        once that many are kept."""
        d, table, q = A.dim, A.table, self.q
        heads = [xy for row in table for xy in row]
        tails = [yx for row in zip(*table) for yx in row]
        if self.dim > d * d:
            heads += range(d)
            tails += A.inverse
        root = list(range(d))
        trees = [[v] for v in range(d)]
        P, V = [0] * d, [0] * d
        free, edges = [], 0
        for c, (a, b) in enumerate(zip(heads, tails)):
            ra, rb = root[a], root[b]
            if ra == rb:
                free.append(c)
                continue
            if len(trees[ra]) < len(trees[rb]):
                a, b, ra, rb = b, a, rb, ra
            dp, dv = P[a] ^ P[b] ^ q[c], V[a] ^ V[b] ^ 1 << c
            for v in trees[rb]:
                root[v] = ra
                P[v] ^= dp
                V[v] ^= dv
            trees[ra] += trees[rb]
            trees[rb] = None
            edges += 1
        modulo = self.forms.reduce_packed
        images = (modulo(q[f] ^ P[heads[f]] ^ P[tails[f]]) for f in free)
        kept = (free[k] for k in self._choose(images, self.quotient_dim - edges))
        return [1 << f ^ V[heads[f]] ^ V[tails[f]] for f in kept]


def _walk(A):
    """(cols, width, steps) of the walk of `ColumnForms`: cols[y][x] is
    q(x (x) y) over `width` unknowns, and `steps` holds s d + k for each
    step (s, k) that wrote the column y = sk from the triples
    (x, s, k)."""
    d, table, middles = A.dim, A.table, A.middles
    right = list(zip(*table))               # right[s][x] = xs
    cols = [None] * d
    width = 0
    walk, steps = [], set()
    for s in middles:
        if cols[s] is None:
            cols[s] = [1 << width + x for x in range(d)]
            width += d
            walk.append(s)
    for k in walk:                          # grows while it is read
        ck = cols[k]
        for s in middles:
            y = table[s][k]
            if cols[y] is None:
                cs = cols[s]
                cols[y] = [ck[xs] ^ cs[kx] for xs, kx in zip(right[s], table[k])]
                walk.append(y)
                steps.add(s * d + k)
    for y in range(d):
        if cols[y] is None:
            cols[y] = [1 << width + x for x in range(d)]
            width += d
    return cols, width, steps


def _triple_forms(A, cols, steps):
    """Q of the rows b(e_x (x) e_s (x) e_k), one list over every x for each
    middle s and each k with (s, k) not a step of the walk (those give
    0), s-major."""
    d, table = A.dim, A.table
    right = list(zip(*table))
    for s in A.middles:
        cs, rs = cols[s], right[s]
        for k in range(d):
            if s * d + k not in steps:
                ck = cols[k]
                yield [c ^ ck[xs] ^ cs[kx]
                       for c, xs, kx in zip(cols[table[s][k]], rs, table[k])]


def _hq1_forms(A, q):
    """Q of the F_2 rows of `chains._hq1_rows`, in their order, each read as
    its at most four columns (D = d^2 is the first T_1 column, i' = i^-1):
    f2(e_i, e_j) for each middle j is i (x) j + i' (x) j' + ji + ij, and
    f1(e_i, 1) is i (x) 1 + 1 (x) i + i + i'."""
    d, table, inv, one = A.dim, A.table, A.inverse, A.one
    D = d * d
    for i, ti in enumerate(table):
        for j in A.middles:
            yield q[i * d + j] ^ q[inv[i] * d + inv[j]] ^ q[D + table[j][i]] ^ q[D + ti[j]]
    for i in range(d):
        yield q[i * d + one] ^ q[one * d + i] ^ q[D + i] ^ q[D + inv[i]]
