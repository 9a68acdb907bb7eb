"""F_2 quotients read from linear forms instead of eliminated relations.

Both models of the value group use it: `homology.forms.ColumnForms` on the
chains of F_2[G], and every K_#, F(z), Sigma summand and finite L(c) of
the colimit (`groups.structure.SharpSpace`, `upsilon`).  They import it on
their first build or read, not when they are imported themselves: where
no bytecode is cached, every import compiles its source.
"""
from __future__ import annotations

from . import fp


class FormQuotient:
    """F_2^dim modulo a subspace R, kept as F_2^U modulo the constraints C.

    `q[c]` is the form of column c, a packed int over U unknowns, and
    Q(v) is the sum of q(c) over the bits c of v.  The caller proves that
    Q is onto, that its kernel lies in R and that Q(R) = C, the span of the
    `constraints` it hands in.  Then R = Q^-1(C) and F_2^dim / R =
    F_2^U / C: `quotient_dim`, `extended` and `independent` read the
    constraints only.

    Residues.  `fp` keeps R in reduced echelon form with pivots on the
    lowest column.  Column j is a pivot iff some r in R has lowest bit j,
    i.e. iff q(j) lies in C plus the span of the q(c) with c > j.  The
    residue of v is the one vector v' = v mod R whose bits are all
    non-pivot columns, i.e. the sum of non-pivot columns with
    Q(v') = Q(v) mod C.  `_residues` sweeps the columns from the top,
    keeping q(j) mod C, tagged with j, whenever it is independent of the
    ones kept, which span the q(c) with c > j modulo C (so j is not a
    pivot), until they span F_2^U / C; every lower column is a pivot.
    Reducing Q(v) by the kept forms sums the tags of v'.  So `reduce` and
    `reduce_packed` give fp's residue bit for bit, and `basis` fp's
    reduced echelon rows.  The table of the sweep is built on the first
    `reduce` only; a build that reads dimensions never makes it.
    """

    def __init__(self, q, width, constraints):
        # q first: the constraints may be a lazy map over `_form`
        self.q, self.dim = q, len(q)
        # most constraints repeat (F_2[S3^3]: 30400 distinct of 279936), so
        # only the distinct ones are held and swept
        self.forms = fp.QuotientContext(width, 2, fp.distinct(constraints))
        self._table = None

    def _form(self, bits):
        """Q(bits), the sum of q(c) over the set bits c of a packed vector:
        by `xor_sum` when it has few bits, else from the bit string once
        (each `xor_sum` step costs the vector's width)."""
        if bits.bit_count() <= 32:
            return fp.xor_sum(bits, self.q)
        q, out = self.q, 0
        for c in fp.ones(bits):
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
        return self._with(self.forms.extended(fp.distinct(
            q[a] ^ q[b] if a != b else q[a] for a, b in pairs)))

    @classmethod
    def over(cls, q, forms):
        """The quotient of the columns with forms q by constraints already
        eliminated: `forms`, an `fp.QuotientContext` over the unknowns."""
        out = object.__new__(cls)
        out.q, out.dim, out.forms, out._table = q, len(q), forms, None
        return out

    def _with(self, forms):
        return self.over(self.q, forms)

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

    def _residues(self):
        """(rows, mask, units) of the residue sweep: rows[u] is a kept form,
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
                v = fp._reduce_f2(forms.reduce_packed(q[j]) | 1 << width + len(units),
                                  rows, mask)
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
        v = fp._reduce_f2(self.forms.reduce_packed(self._form(bits)), rows, mask)
        return fp.xor_sum(v >> self.forms.space.dim, units)

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
