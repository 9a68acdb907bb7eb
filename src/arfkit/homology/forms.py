"""F_2[G] homology from the forms that vanish on its relations.

H_1, HC_1 and HQ_1 of an F_2 group algebra, and the Coker(mu) and
Coker(1 + vartheta) built on HQ_1, never eliminate their relation rows.
`ColumnForms` keeps the linear forms that vanish on them, fixed by
d (|middles| + 1) values instead of d^2 + d, and reads dimensions,
independence and fp's residues from there; the proof is in its docstring.
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
from .algebras import xor_sum
from .chains import distinct

# columns per block of kernel forms that `ColumnForms.kernel_independent`
# writes before the sweep reads them
SPAN = 1024


def _ones(x):
    """The indices of the set bits of the int x >= 0, increasing, in time
    linear in its length (stepping by `x & -x` is quadratic on wide x)."""
    s = bin(x)[:1:-1]
    out, i = [], s.find("1")
    while i >= 0:
        out.append(i)
        i = s.find("1", i + 1)
    return out


class ColumnForms:
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
    has the column it writes to itself) and lie in R.  So Q(R) = C, v lies
    in R iff Q(v) lies in C, and F_2^n / R = F_2^U / C: `quotient_dim`,
    `extended` and `independent` read the constraints only.
    (c) `fp` keeps R in reduced echelon form with pivots on the lowest
        column.  Column j is a pivot iff some r in R has lowest bit j,
        i.e. iff q(j) lies in C plus the span of the q(c) with c > j.  The
        residue of v is the one vector v' = v mod R whose bits are all
        non-pivot columns, i.e. the sum of non-pivot columns with
        Q(v') = Q(v) mod C.  `_residues` sweeps the columns from the top,
        keeping q(j) mod C, tagged with j, whenever it is independent of
        the ones kept, which span the q(c) with c > j modulo C (so j is
        not a pivot), until they span F_2^U / C; every lower column is a
        pivot.  Reducing Q(v) by the kept forms sums the tags of v'.  So
        `reduce` and `reduce_packed` give fp's residue bit for bit, and
        `basis` fp's reduced echelon rows.
    The table of (c) is built on the first `reduce` only; a build that
    reads dimensions never makes it.
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

        self.q, self.dim = q, len(q)
        # most constraints repeat (S3^3: 30400 distinct of 279936), so only
        # the distinct ones are held and swept
        self.forms = fp.QuotientContext(width, 2, distinct(itertools.chain(
            itertools.chain.from_iterable(triples()), map(self._form, rows))))
        self._table = None

    def _form(self, bits):
        """Q(bits), the sum of q(c) over the set bits c of a packed vector:
        by `xor_sum` when it has few bits, else from the bit string once
        (each `xor_sum` step costs the vector's width)."""
        if bits.bit_count() <= 32:
            return xor_sum(bits, self.q)
        q, out = self.q, 0
        for c in _ones(bits):
            out ^= q[c]
        return out

    @property
    def quotient_dim(self):
        return self.forms.quotient_dim

    def extended(self, rows):
        """This quotient divided further by `rows` (packed ints); self is
        unchanged."""
        return self._with(self.forms.extended(map(self._form, rows)))

    def extended_pairs(self, pairs):
        """`extended` by the rows e_a + e_b (e_a when a = b) of the column
        pairs (a, b), their forms read off q without writing the rows."""
        q = self.q
        return self._with(self.forms.extended([q[a] ^ q[b] if a != b else q[a]
                                               for a, b in pairs]))

    def _with(self, forms):
        out = object.__new__(ColumnForms)
        out.q, out.dim, out.forms, out._table = self.q, self.dim, forms, None
        return out

    def independent(self, rows):
        """The rows (packed ints), in order, outside the span of the
        relations and of the rows kept before them."""
        rows = list(rows)
        return [rows[k] for k in self._choose(map(self._form, rows))]

    def _choose(self, images, most=None):
        """Positions of the forms (an iterable, read lazily) outside C plus
        the span of the ones kept before them, read until `most` are kept.
        A kept form is the first of its value."""
        first = {0: None}

        def new():
            for k, v in enumerate(images):
                if v not in first:
                    first[v] = k
                    yield v
        return [first[v] for v in self.forms.independent(new(), most)]

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
                    for f in _ones(r >> a & (1 << SPAN) - 1):
                        block[f] ^= qj
                for f in free[bisect_left(free, a):bisect_left(free, a + SPAN)]:
                    yield block[f - a]

        most = self.quotient_dim - len(reduced)
        out = {free[k]: 1 << free[k] for k in self._choose(images(), most)}
        kept = sum(out.values())
        for j, r in zip(pivots, reduced):
            for f in _ones(r & kept):
                out[f] |= 1 << j
        return list(out.values())

    def _residues(self):
        """(rows, mask, units) of proof step (c): rows[u] is a kept form,
        reduced modulo C, with lowest bit u (in `mask`) and the other kept
        forms zero at u; its bits from the width U on are its tags, tag t
        standing for the column units[t] (a packed unit vector)."""
        table = self._table
        if table is None:
            q, forms = self.q, self.forms
            width, need = forms.space.dim, forms.quotient_dim
            rows, mask, units = {}, 0, []
            for j in range(self.dim - 1, -1, -1):
                if len(units) == need:
                    break
                v = forms.reduce_packed(q[j]) | 1 << width + len(units)
                m = v & mask
                while m:
                    low = m & -m
                    v ^= rows[low.bit_length() - 1]
                    m ^= low
                low = v & -v
                if low >> width:            # q(j) is in the span: a pivot
                    continue
                for u, r in rows.items():
                    if r & low:
                        rows[u] = r ^ v
                rows[low.bit_length() - 1] = v
                mask |= low
                units.append(1 << j)
            table = self._table = (rows, mask, units)
        return table

    def reduce_packed(self, bits):
        """fp's residue of a packed vector, packed.  A negative vector or
        one with a bit at dim or past it raises ValueError."""
        if bits < 0 or bits >> self.dim:
            raise ValueError(f"packed vector with a bit outside [0, {self.dim})")
        rows, mask, units = self._residues()
        v = self.forms.reduce_packed(self._form(bits))
        m = v & mask
        while m:
            low = m & -m
            v ^= rows[low.bit_length() - 1]
            m ^= low
        return xor_sum(v >> self.forms.space.dim, units)

    def reduce(self, vec):
        """fp's residue of a vector of length dim, as a tuple."""
        if len(vec) != self.dim:
            raise ValueError(f"vector of length {len(vec)}, expected {self.dim}")
        return fp.unpack(self.reduce_packed(fp.pack(vec)), self.dim)

    def basis(self):
        """fp's reduced echelon basis of the relations, as tuples: e_j plus
        its residue for each pivot column j, in increasing j."""
        out = []
        for j in range(self.dim):
            r = self.reduce_packed(1 << j) ^ 1 << j
            if r:
                out.append(fp.unpack(r, self.dim))
        return out
