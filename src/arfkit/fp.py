"""Exact linear algebra over the prime fields F_p (p small).

Everything downstream (class counting, homology, colimit quotients) reduces
to row-space bookkeeping over F_2 or F_3, so this module keeps a single
reduced-echelon representation and hands out immutable quotient contexts.

Over F_2 a row is one Python int, bit j holding coordinate j, and
elimination is XOR.  Odd p (F_3, on tiny inputs only) keeps rows as lists.
Vectors go in as sequences of ints or as sparse {column: coefficient}
dicts, taken mod p, and come out as tuples of ints in [0, p).  Inside the
package, the rows that build a subspace over F_2 (the `rows` of `Subspace`,
`QuotientContext`, `extended`, `independent` and `kernel_basis`) may also
be that packed int already, so that relation families built as ints skip
the conversion.  The finite builds stay packed on the way out as well:
`Subspace.packed_basis` hands out the echelon rows as ints, and
`kernel_packed` the F_2 kernel; `pack` and `unpack` convert at the API.
`QuotientContext.reduce_packed` reduces a packed vector and returns it
packed, so a caller that adds vectors as XORs of ints never converts.

Over F_2 every build, and `independent`, runs one elimination loop
(`Subspace._sweep`), and a row costs no call of its own there.  A new row
is reduced by the stored rows and then by a batch of new pivots, and
back-substitution runs inside the batch only.  Every few dozen new pivots
(about sqrt(16 rank)), and at the end, the batch is folded in: each stored
row is reduced by the batch once.  So a build or `extended` still returns
its subspace in full reduced echelon form (Albrecht and Pernet,
arXiv:1006.1744, block dense elimination over GF(2)).
"""
from __future__ import annotations

# byte k -> the ASCII digit of k mod 2, and ASCII digits back to 0/1
_PARITY_DIGIT = bytes(b"01"[k & 1] for k in range(256))
_DIGIT_VALUE = bytes.maketrans(b"01", b"\x00\x01")


def pack(vec):
    """F_2 vector -> int with bit j = vec[j] mod 2."""
    try:
        raw = bytes(vec)
    except ValueError:          # an entry outside [0, 256)
        raw = bytes([x & 1 for x in vec])
    return int(raw.translate(_PARITY_DIGIT)[::-1] or b"0", 2)


def unpack(bits, dim):
    """int with bit j = coordinate j -> the F_2 vector of length dim."""
    if not bits:
        return (0,) * dim
    return tuple(bin(bits)[:1:-1].ljust(dim, "0").encode().translate(_DIGIT_VALUE))


class Subspace:
    """Row space of vectors in F_p^dim, stored in reduced echelon form.

    Instances are immutable after construction; `extended` returns a new
    subspace.  Vectors come out as tuples of ints in [0, p).  They go in as
    sequences of length dim or as sparse {column: coefficient} dicts; any
    other length, or a column outside [0, dim), raises ValueError.  A row
    that builds the subspace may also be a packed F_2 int (see the module
    docstring); a negative one, one with a bit at dim or past it, or one
    over an odd p raises ValueError.

    Over F_2 a build gathers its new pivots in batches and folds each batch
    into the stored rows (see the module docstring); odd p back-substitutes
    one row at a time.  Either way the rows are in reduced echelon form
    when the constructor or `extended` returns.
    """

    def __init__(self, dim, p=2, rows=()):
        self.dim = int(dim)
        self.p = int(p)
        # pivot column j -> the row with pivot j (its first nonzero entry,
        # equal to 1); every other row is 0 at column j
        self._rows = {}
        self._mask = 0      # F_2 only: bit j set iff column j is a pivot
        self._sweep(rows)

    def _coerce(self, vec):
        if isinstance(vec, dict):
            if vec and not (min(vec) >= 0 and max(vec) < self.dim):
                raise ValueError(f"sparse vector with a column outside [0, {self.dim})")
            if self.p == 2:
                return sum([1 << j for j, c in vec.items() if c & 1])
            vec = [vec.get(j, 0) for j in range(self.dim)]
        elif len(vec) != self.dim:
            raise ValueError(f"vector of length {len(vec)}, expected {self.dim}")
        if self.p == 2:
            return pack(vec)
        return [int(x) % self.p for x in vec]

    def _out(self, v):
        return unpack(v, self.dim) if self.p == 2 else tuple(v)

    def _reduce(self, v):
        if self.p == 2:
            return _reduce_f2(v, self._rows, self._mask)
        p = self.p
        for j, row in self._rows.items():
            c = v[j]
            if c:
                v = [(a - c * b) % p for a, b in zip(v, row)]
        return v

    def _sweep(self, rows, fold=True, most=None):
        """The rows, in order, that are outside the span of this subspace and
        of the rows kept before them, read until `most` are kept.  With
        `fold` they are added to the span, and the reduced echelon form
        holds again on return; without it this subspace is unchanged.

        Over F_2 this is the one elimination loop.  Each row gets the
        packed-row check, the reduction by the stored pivots and then by a
        batch of new pivots, and a new pivot is back-substituted into the
        batch only.  Every `_fold_size` pivots, and at the end, the batch
        is folded into the stored rows; without `fold` it never is."""
        if most == 0:
            return []
        if self.p != 2:
            space, kept = (self if fold else self.extended(())), []
            for r in rows:
                if type(r) is int:
                    raise ValueError(f"packed row over F_{self.p}; packed rows are F_2 only")
                if space._absorb(space._coerce(r)):
                    kept.append(r)
                    if len(kept) == most:
                        break
            return kept
        dim, stored, smask = self.dim, self._rows, self._mask
        # the batch: rows in reduced echelon form among themselves, zero on
        # the stored pivots; every bit of every row is in `support`, so a
        # new pivot outside it needs no back-substitution
        batch, bmask, support = {}, 0, 0
        limit = _fold_size(len(stored)) if fold else -1
        kept = []
        for r in rows:
            if type(r) is not int:
                v = self._coerce(r)
            elif r < 0 or r >> dim:
                raise ValueError(f"packed row with a bit outside [0, {dim})")
            else:
                v = r
            m = v & smask
            while m:
                low = m & -m
                v ^= stored[low.bit_length() - 1]
                m ^= low
            m = v & bmask
            while m:
                low = m & -m
                v ^= batch[low.bit_length() - 1]
                m ^= low
            if not v:
                continue
            low = v & -v
            if support & low:
                for k, row in batch.items():
                    if row & low:
                        batch[k] = row ^ v
            batch[low.bit_length() - 1] = v
            bmask |= low
            support |= v
            kept.append(r)
            if len(kept) == most:
                break
            if len(batch) == limit:
                self._fold(batch, bmask)
                smask = self._mask
                batch, bmask, support = {}, 0, 0
                limit = _fold_size(len(stored))
        if fold:
            self._fold(batch, bmask)
        return kept

    def _fold(self, rows, mask):
        """Clear the batch pivots (`mask`) from every stored row, one
        reduction per row, and store the batch `rows`."""
        if not rows:
            return
        stored = self._rows
        for k, row in stored.items():
            if row & mask:
                stored[k] = _reduce_f2(row, rows, mask)
        stored.update(rows)
        self._mask |= mask

    def _absorb(self, v):
        """Odd p: add one row, back-substituting its pivot at once.  True
        when it raised the rank."""
        v = self._reduce(v)
        j = next((i for i, x in enumerate(v) if x), None)
        if j is None:
            return False
        p = self.p
        inv = pow(v[j], p - 2, p)
        v = [x * inv % p for x in v]
        rows = self._rows
        for k, row in rows.items():
            c = row[j]
            if c:
                rows[k] = [(a - c * b) % p for a, b in zip(row, v)]
        rows[j] = v
        return True

    @property
    def rank(self):
        return len(self._rows)

    def reduce(self, vec):
        """Canonical residue of `vec` modulo the subspace: zero on every
        pivot column, and equal for vectors in the same coset."""
        return self._out(self._reduce(self._coerce(vec)))

    def contains(self, vec):
        return all(x == 0 for x in self.reduce(vec))

    def extended(self, rows):
        s = Subspace(self.dim, self.p)
        s._rows = dict(self._rows)
        s._mask = self._mask
        s._sweep(rows)
        return s

    def independent(self, rows, most=None):
        """The rows, in order, that are outside the span of this subspace and
        of the rows kept before them: a basis of (span + rows) / span.  With
        `most`, the rows are read only until that many are kept."""
        return self._sweep(rows, fold=False, most=most)

    def basis(self):
        """The rows of the reduced echelon form, in increasing pivot order."""
        return [self._out(self._rows[j]) for j in sorted(self._rows)]

    def packed_basis(self):
        """basis() over F_2 as packed ints, bit j = column j."""
        if self.p != 2:
            raise ValueError(f"packed rows are F_2 only, not F_{self.p}")
        return [self._rows[j] for j in sorted(self._rows)]


def _reduce_f2(v, rows, mask):
    """v with every pivot of `rows` ({pivot j: row}; `mask` has bit j set
    for each pivot) cleared by adding that pivot's row.  The rows must be
    zero on one another's pivots, so one pass clears them all."""
    m = v & mask
    while m:
        low = m & -m
        v ^= rows[low.bit_length() - 1]
        m ^= low
    return v


def _fold_size(rank):
    """How many new pivots a batch gathers before it is folded into `rank`
    stored rows.  A fold reduces every stored row, a new row is reduced by
    the batch as well, so the total work is least near sqrt(rank)."""
    return max(32, int((16 * rank) ** 0.5))


class QuotientContext:
    """F_p^dim modulo a subspace, with canonical representatives."""

    def __init__(self, dim, p=2, rows=()):
        self.space = Subspace(dim, p, rows)

    @property
    def quotient_dim(self):
        return self.space.dim - self.space.rank

    def reduce(self, vec):
        return self.space.reduce(vec)

    def reduce_packed(self, bits):
        """`reduce` of a packed F_2 vector (bit j = coordinate j), returned
        packed.  A negative vector, one with a bit at dim or past it, or a
        quotient over an odd p raises ValueError."""
        space = self.space
        if space.p != 2:
            raise ValueError(f"packed vectors are F_2 only, not F_{space.p}")
        if bits < 0 or bits >> space.dim:
            raise ValueError(f"packed vector with a bit outside [0, {space.dim})")
        return _reduce_f2(bits, space._rows, space._mask)

    def reduced(self, vectors):
        """`reduce_packed` of each packed F_2 vector of an iterable, lazily,
        in one loop with no call per vector; the vectors are not checked."""
        rows, mask = self.space._rows, self.space._mask
        for v in vectors:
            m = v & mask
            while m:
                low = m & -m
                v ^= rows[low.bit_length() - 1]
                m ^= low
            yield v

    def extended(self, rows):
        """This quotient divided further by `rows`; self is unchanged."""
        q = object.__new__(QuotientContext)
        q.space = self.space.extended(rows)
        return q

    def independent(self, rows, most=None):
        """`Subspace.independent` of the subspace divided out."""
        return self.space.independent(rows, most)

    def basis(self):
        """`Subspace.basis` of the subspace divided out."""
        return self.space.basis()


def ones(x):
    """The indices of the set bits of the int x >= 0, increasing, in time
    linear in its length (stepping by `x & -x` is quadratic on wide x)."""
    s = bin(x)[:1:-1]
    out, i = [], s.find("1")
    while i >= 0:
        out.append(i)
        i = s.find("1", i + 1)
    return out


def xor_sum(x, rows):
    """The F_2 sum of rows[k] over the set bits k of the packed int x."""
    out = 0
    while x:
        low = x & -x
        out ^= rows[low.bit_length() - 1]
        x ^= low
    return out


def distinct(rows):
    """The nonzero packed rows, each once, in the order they first come."""
    out = dict.fromkeys(rows)
    out.pop(0, None)
    return list(out)


def zeros(dim):
    return (0,) * dim


def unit(dim, i, c=1):
    v = [0] * dim
    v[i] = c
    return tuple(v)


def add_vec(v, w, p=2):
    return tuple([(a + b) % p for a, b in zip(v, w)])


def rref(matrix, ncols, p=2):
    """Reduced row echelon form of rows of length ncols.  Returns (rows,
    pivot_columns): the rows as tuples, in increasing pivot order."""
    space = Subspace(ncols, p, matrix)
    return space.basis(), sorted(space._rows)


def kernel_packed(matrix, ncols):
    """Basis of {x : M x = 0} over F_2 as packed ints, for M given as an
    iterable of rows: one vector per non-pivot column f, in increasing f,
    with bit f set and, for each pivot j, bit j equal to entry f of the
    reduced row with pivot j."""
    space = Subspace(ncols, 2, matrix)
    out = {f: 1 << f for f in range(ncols) if not space._mask >> f & 1}
    for j, row in space._rows.items():
        rest = row ^ (1 << j)       # bits of non-pivot columns only
        while rest:
            low = rest & -rest
            out[low.bit_length() - 1] |= 1 << j
            rest ^= low
    return list(out.values())


def kernel_basis(matrix, ncols, p=2):
    """Basis of {x : M x = 0} for M given as an iterable of rows, as tuples;
    over F_2 the vectors of kernel_packed, in its order."""
    if p == 2:
        return [unpack(x, ncols) for x in kernel_packed(matrix, ncols)]
    rows, pivots = rref(matrix, ncols, p)
    pivset = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivset:
            continue
        x = [0] * ncols
        x[f] = 1
        for j, row in zip(pivots, rows):
            x[j] = -row[f] % p
        basis.append(tuple(x))
    return basis


def solve(matrix, target, ncols, p=2):
    """One solution x of M x = target, or None.  M given as rows."""
    aug = [list(r) + [t] for r, t in zip(matrix, target)]
    rows, pivots = rref(aug, ncols + 1, p)
    x = [0] * ncols
    for j, row in zip(pivots, rows):
        if j == ncols:
            return None
        x[j] = row[ncols]
    return tuple(x)
