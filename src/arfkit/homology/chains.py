"""Chain-level Hochschild/cyclic/quaternionic homology in low degrees.

Chains are sparse dicts {basis index tuple: coefficient}; relations are
rows built on basis indices from the structure constants (e_i (x) e_j is
column i*d + j, and the T_1 part of HQ_1 is column d*d + k).  Over F_2 a
relation row is a packed int, bit j = column j, written as one XOR of
shifted packed products and handed to `fp` as is: the H_0 commutators
read them through `FiniteAlgebra.basis_product`, and the other rows
read the packed tables `FiniteAlgebra.bits` and `inv_bits`.  Over an odd
p a row is a sparse dict {column: coefficient}.

H_0, HC_0, H_1, HC_1 and HQ_1 of an F_2 group algebra, and the Coker(mu)
and Coker(1 + vartheta) built on HQ_1, never eliminate their relation
rows nor their cycle equations: H_0 and HC_0 are read off the orbits of
the middles' conjugation (`forms.class_quotient`), and `forms.ColumnForms`
keeps the linear forms that vanish on the other rows and reads the cycles
off a spanning forest (see that module; it is imported on the first such
build).  Every other
algebra (JSON, matrix algebras, odd p) eliminates its rows and its cycle
equations (`_equations`).  Its F_2 row writers are generators, read once
by `_quotient` in chunks of `BLOCK` rows; dropping the zero and repeated
rows of a chunk leaves the span and so every reduced basis unchanged.
The dimension guard refuses algebras past dimension 256 instead of
approximating.
"""
from __future__ import annotations

import itertools

from .. import fp
from ..fp import distinct
from .algebras import FiniteAlgebra, AlgebraError, GroupAlgebra

DIM_GUARD = 256
# rows per chunk of `_quotient`: the most relation rows held at a time
BLOCK = 8192


def check_guard(A):
    if A.dim > DIM_GUARD:
        raise AlgebraError(f"dimension {A.dim} exceeds the guard {DIM_GUARD}")


# -- sparse tensors ----------------------------------------------------------


def t_add(p, x, y):
    out = dict(x)
    for k, c in y.items():
        v = (out.get(k, 0) + c) % p
        if v:
            out[k] = v
        else:
            out.pop(k, None)
    return out


def t_scale(p, x, c):
    c %= p
    if c == 0:
        return {}
    return {k: (v * c) % p for k, v in x.items()}


def t_neg(p, x):
    return {k: (-v) % p for k, v in x.items()}


def tensor2(A, x, y):
    """x (x) y for coefficient vectors x, y."""
    ys = [(j, b) for j, b in enumerate(y) if b]
    return {(i, j): (a * b) % A.p for i, a in enumerate(x) if a for j, b in ys}


def tensor_list(A, vecs):
    out = {(): 1}
    for v in vecs:
        nxt = {}
        for key, c in out.items():
            for i, a in enumerate(v):
                if a:
                    k2 = key + (i,)
                    nxt[k2] = (nxt.get(k2, 0) + c * a) % A.p
        out = {k: c for k, c in nxt.items() if c}
    return out


def flatten(A, k, chain):
    d = A.dim
    v = [0] * (d ** k)
    for key, c in chain.items():
        idx = 0
        for i in key:
            idx = idx * d + i
        v[idx] = c % A.p
    return tuple(v)


def unflatten(A, k, vec):
    d = A.dim
    out = {}
    for idx, c in enumerate(vec):
        if c % A.p:
            key = []
            for _ in range(k):
                idx, i = divmod(idx, d)
                key.append(i)
            out[tuple(reversed(key))] = c % A.p
    return out


# -- boundary and symmetry operators ----------------------------------------


def boundary(A, k, chain):
    """b: T_k -> T_(k-1) (T_1 -> 0).  Face i < k - 1 multiplies entries i
    and i + 1, the last face entry k - 1 by entry 0; face i has sign (-1)^i."""
    if k == 1:
        return {}
    p, mult = A.p, A.mult
    out = {}
    for key, c in chain.items():
        for i in range(k):
            if i < k - 1:
                x, y, pre, post = key[i], key[i + 1], key[:i], key[i + 2:]
            else:
                x, y, pre, post = key[-1], key[0], (), key[1:-1]
            sc = -c if i % 2 else c
            for m, e in mult[x][y]:
                kk = pre + (m,) + post
                out[kk] = (out.get(kk, 0) + sc * e) % p
    return {kk: c for kk, c in out.items() if c}


def cyclic_x(A, k, chain):
    """x = (-1)^(k-1) (rotate last to front)."""
    p = A.p
    sgn = (-1) ** (k - 1)
    out = {}
    for key, c in chain.items():
        k2 = (key[-1],) + key[:-1]
        out[k2] = (out.get(k2, 0) + sgn * c) % p
    return {k2: c for k2, c in out.items() if c}


def quaternion_y(A, k, chain):
    """y = (-1)^(k(k-1)/2) (involute entries, reverse all but the first)."""
    p = A.p
    sgn = (-1) ** ((k * (k - 1)) // 2)
    out = {}
    for key, c in chain.items():
        vecs = [A.invol(A.basis_vec(i)) for i in key]
        vecs = [vecs[0]] + vecs[1:][::-1]
        for kk, cc in tensor_list(A, vecs).items():
            out[kk] = (out.get(kk, 0) + sgn * c * cc) % p
    return {kk: c for kk, c in out.items() if c}


# -- homology ----------------------------------------------------------------


class HomologySpace:
    """A quotient `cycles modulo boundaries` with canonical representatives.

    kind is one of H0 | H1 | HC0 | HC1 | HQ1; vectors live in the flat
    ambient space (T_1, T_2, or T_2 + T_1 for HQ1).  The space keeps the
    algebra's p, not the algebra.  `context` is the ambient space modulo
    the relations (an `fp.QuotientContext`, or `forms.ColumnForms` for an
    F_2 group algebra).  `basis_rows` are the cycles independent modulo the
    relations, as `fp` builds rows (packed ints over F_2), and `dim`
    counts them.  `basis` unpacks them to tuples on each read; the builds
    themselves never do."""

    def __init__(self, A, kind, ambient_dim, context, basis_rows):
        self.p = A.p
        self.kind = kind
        self.ambient_dim = ambient_dim
        self.context = context
        self.basis_rows = basis_rows

    @property
    def basis(self):
        return vectors(self.p, self.ambient_dim, self.basis_rows)

    @property
    def dim(self):
        return len(self.basis_rows)

    def reduce(self, vec):
        return self.context.reduce(vec)

    def class_of(self, vec):
        return HomologyClass(self, tuple(vec))


def vectors(p, dim, rows):
    """Rows as `fp` builds them (packed ints over F_2, tuples over odd p) as
    tuples."""
    return [fp.unpack(r, dim) for r in rows] if p == 2 else list(rows)


def _kernel(A, equations, ncols):
    """Basis of the kernel of `equations`, as rows that `fp` builds: packed
    ints over F_2 (no unpacking of the thousands of T_2 cycles), tuples
    over odd p."""
    if A.p == 2:
        return fp.kernel_packed(equations, ncols)
    return fp.kernel_basis(equations, ncols, A.p)


def _quotient(A, dim, rows):
    """F_p^dim modulo the span of `rows`, an iterable consumed once.

    Over F_2 the rows are read in chunks of BLOCK, and each chunk, its zero
    and repeated rows dropped, is swept into the subspace at once, so at
    most one chunk of rows is held."""
    if A.p != 2:
        return fp.QuotientContext(dim, A.p, rows)
    context = fp.QuotientContext(dim, 2)
    rows = iter(rows)
    while chunk := list(itertools.islice(rows, BLOCK)):
        context = context.extended(distinct(chunk))
    return context


class HomologyClass:
    def __init__(self, space, vec):
        self.space = space
        self.vec = tuple(vec)

    def reduced(self):
        return self.space.reduce(self.vec)

    def is_zero(self):
        return all(c == 0 for c in self.reduced())

    def __eq__(self, other):
        return (isinstance(other, HomologyClass) and self.space is other.space
                and self.reduced() == other.reduced())

    def __hash__(self):
        return hash(self.reduced())

    def __add__(self, other):
        return HomologyClass(self.space, fp.add_vec(self.vec, other.vec, self.space.p))


def _row(terms):
    """The sparse row {column: coefficient} summing (column, coefficient)
    terms (odd p)."""
    row = {}
    for col, c in terms:
        row[col] = row.get(col, 0) + c
    return row


def tensor_bits(d, x, y):
    """x (x) y for x, y packed F_2 vectors (bit k = e_k) of an algebra of
    dimension d, packed over T_2 (bit i*d + j = e_i (x) e_j)."""
    out = 0
    while x:
        low = x & -x
        out ^= y << (low.bit_length() - 1) * d
        x ^= low
    return out


def homology(A: FiniteAlgebra, which):
    """Basis-with-context for H0, H1, HC0, HC1 or HQ1 of A.

    H_0 and HC_0 divide T_1 by the commutators [e_i, e_s] for the middles s
    only, not by every [e_i, e_j].  They span the same space: in any
    associative algebra, at any p,

        [a, bc] = abc - bca = (abc - cab) + (cab - bca) = [ab, c] + [ca, b],

    so the y with every [x, y] in the span form a subspace closed under
    products.  It holds the middles, and products of the middles span A
    (see `FiniteAlgebra`), so it is A; and [e_j, e_i] = -[e_i, e_j].  A
    reduced echelon form is fixed by its span, so every residue and basis
    is the one of all d^2 rows.  An F_2 group algebra writes none of
    these rows: its H_0 is read off the orbits they draw on G
    (`forms.class_quotient`)."""
    check_guard(A)
    d, p = A.dim, A.p
    if which in ("H0", "HC0"):
        if p == 2 and isinstance(A, GroupAlgebra):
            from .forms import class_quotient
            return HomologySpace(A, which, d, *class_quotient(A))
        cycles = [1 << i if p == 2 else fp.unit(d, i) for i in range(d)]
        context = _quotient(A, d, _commutator_rows(A, A.middles))
        return HomologySpace(A, which, d, context, context.independent(cycles))
    if which in ("H1", "HC1"):
        return _cycles_modulo(A, which)
    if which == "HQ1":
        return hq1(A)
    raise AlgebraError(f"unknown homology {which!r}")


def _cycles_modulo(A, kind):
    """The space `kind` (H1, HC1 or HQ1): the cycles modulo b(T_3) and, for
    HC1, the rows of `_hc1_rows`, for HQ1 those of `_hq1_rows`.  An F_2
    `GroupAlgebra` reads the quotient from `forms.ColumnForms`, where an
    HC_1 row is a pair of columns whose forms are added, never written as
    a row, at the middles only (`forms.polarizations`), and the cycles
    from its spanning forest (`ColumnForms.cycles`);
    any other algebra eliminates the rows (`_quotient`) and the cycle
    equations."""
    d = A.dim
    t1 = kind == "HQ1"
    ncols = d * d + d if t1 else d * d
    if A.p == 2 and isinstance(A, GroupAlgebra):
        from .forms import ColumnForms, polarizations
        context = ColumnForms(A, t1)
        if kind == "HC1":
            context = context.extended_pairs(polarizations(A, context))
        return HomologySpace(A, kind, ncols, context, context.cycles(A))
    # cycle equations: b(xi) + c - invol(c) = 0; column D + i is e_i - invol(e_i)
    columns = _commutator_rows(A)
    if t1 and A.p == 2:
        columns += [(1 << i) ^ v for i, v in enumerate(A.inv_bits)]
    elif t1:
        columns += [_row([(i, 1)] + [(k, -c) for k, c in v])
                    for i, v in enumerate(A.involution)]
    rows = _hc1_rows(A) if kind == "HC1" else _hq1_rows(A) if t1 else ()
    context = _quotient(A, ncols, itertools.chain(rows, _b2_rows(A)))
    return HomologySpace(A, kind, ncols, context,
                         context.independent(_kernel(A, _equations(A, columns), ncols)))


def _commutator_rows(A, right=None):
    """[e_i, e_s] for all i and every s in `right` (default every index),
    i-major, as rows over T_1."""
    d = A.dim
    right = range(d) if right is None else right
    if A.p == 2:
        return [A.basis_product(i, s) ^ A.basis_product(s, i) for i in range(d) for s in right]
    mult = A.mult
    return [_row(mult[i][s] + tuple((k, -c) for k, c in mult[s][i]))
            for i in range(d) for s in right]


def _hc1_rows(A):
    """(1 - x)(e_i (x) e_j) = e_i (x) e_j + e_j (x) e_i for all i, j, as
    rows over T_2 (a generator)."""
    d = A.dim
    if A.p == 2:
        return ((1 << i * d + j) ^ (1 << j * d + i) for i in range(d) for j in range(d))
    return (_row([(i * d + j, 1), (j * d + i, 1)]) for i in range(d) for j in range(d))


def _equations(A, columns):
    """The equations of the map into T_1 whose column c is the T_1 row
    columns[c]: row k holds the coefficient of e_k in each column."""
    if A.p == 2:
        # one byte per column, packed once: OR-ing bit c into a packed row
        # would cost the row's width per bit
        eqs = [bytearray(len(columns)) for _ in range(A.dim)]
        for c, v in enumerate(columns):
            while v:
                low = v & -v
                eqs[low.bit_length() - 1][c] = 1
                v ^= low
        return [fp.pack(e) for e in eqs]
    eqs = [{} for _ in range(A.dim)]
    for c, row in enumerate(columns):
        for k, e in row.items():
            eqs[k][c] = e
    return eqs


def _b2_rows(A):
    """b(e_i (x) e_s (x) e_k) = e_i e_s (x) e_k - e_i (x) e_s e_k + e_k e_i (x) e_s
    for every i, k and every s in A.middles, as rows over T_2 (i-major, then
    s, then k): a generator over F_2, a list of sparse rows over odd p.

    They span b(T_3).  In the sign convention of `boundary`, b∘b = 0 on T_4
    gives

        b(a (x) bc (x) d) = b(ab (x) c (x) d) + b(a (x) b (x) cd) - b(da (x) b (x) c),

    so the y with every b(x (x) y (x) z) in the span form a subspace closed
    under products.  It holds the middles, and products of the middles span
    A (see `FiniteAlgebra`).
    """
    d, middles = A.dim, A.middles
    if A.p == 2:
        # a row is three shifted entries, XORed: e_x e_y (x) e_0 (`left`)
        # and e_0 (x) e_x e_y (the packed product itself)
        bits = A.bits
        left = [[tensor_bits(d, v, 1) for v in row] for row in bits]
        return ((left[i][s] << k) ^ (bits[s][k] << i * d) ^ (left[k][i] << s)
                for i in range(d) for s in middles for k in range(d))
    mult = A.mult
    rows = []
    for i in range(d):
        for s in middles:
            for k in range(d):
                # _row, unrolled: these rows are most of an H_1 or HQ_1 build
                row = {m * d + k: c for m, c in mult[i][s]}
                for m, c in mult[s][k]:
                    row[i * d + m] = row.get(i * d + m, 0) - c
                for m, c in mult[k][i]:
                    row[m * d + s] = row.get(m * d + s, 0) + c
                rows.append(row)
    return rows


def hq1(A: FiniteAlgebra):
    """HQ_1 via the kernel presentation:
    Ker((b, 1-y): (R(x)R) + R -> R) modulo the four relation families."""
    if A.involution is None:
        raise AlgebraError("HQ1 needs an anti-involution")
    check_guard(A)
    return _cycles_modulo(A, "HQ1")


def _hq1_rows(A):
    """The relation families of HQ_1 besides the T_2 rows of H_1, as rows
    over T_2 + T_1 from a generator: for r = e_i and s = e_j

        f1(r, s) = (r (x) s + s (x) r, -(rs + invol(rs)))
        f2(r, s) = (r (x) s + invol(r) (x) invol(s), sr - rs)

    and, over odd p, (0, 2 (r + invol(r))), which is zero over F_2.  Odd p
    writes f1 and f2 for every pair (i, j), i-major.  F_2 writes f2 for
    every i and only the middles j (i-major), then f1 only at the unit,
    f1(e_i, 1) = (e_i (x) 1 + 1 (x) e_i, e_i + invol(e_i)) for every i
    (1 a sum of basis elements or one): d (|middles| + 1) rows, not 2 d^2.  They span the same space
    together with the rows b(T_3) that `hq1` adds (`_b2_rows`).

    Proof (over F_2, signs dropped, bars for invol).  Modulo b(T_3), where
    b(x (x) y (x) z) = xy (x) z + x (x) yz + zx (x) y, we have
    x (x) yz = xy (x) z + zx (x) y.  Write = for equality and == for
    equality modulo b(T_3).

    (a) f2(r, st) == f2(rs, t) + f2(tr, s).  Rewrite r (x) st and
        bar r (x) bar t bar s by the rule above, with
        bar(st) = bar t bar s.  The T_2 part of f2(r, st) becomes
        rs (x) t + tr (x) s + bar r bar t (x) bar s + bar s bar r (x) bar t,
        the T_2 part of the right side.  The T_1 parts are str + rst on
        the left and trs + rst + str + trs on the right.
    (b) f1(r, s) == f1(rs, 1).  b(r (x) s (x) 1) = rs (x) 1 and
        b(1 (x) r (x) s) = r (x) s + 1 (x) rs + s (x) r, so the T_2 part
        r (x) s + s (x) r == 1 (x) rs + rs (x) 1, that of f1(rs, 1); both
        T_1 parts are rs + bar(rs).

    Let R be the span of the rows written here and b(T_3).  Both families
    are bilinear, so the s with f2(r, s) in R for every r form a subspace.
    It holds the middles, and by (a) it is closed under products, so it
    is all of A: products of the middles span A (see `FiniteAlgebra`).
    f1(x, 1) is linear in x, so by (b) every f1(r, s) lies in the span of
    the f1(e_i, 1) and b(T_3): every f1 and f2 row lies in R.
    """
    d = A.dim
    D = d * d
    if A.p == 2:
        bits, inv = A.bits, A.inv_bits
        for i in range(d):
            for j in A.middles:
                ij, ji = bits[i][j], bits[j][i]
                yield (1 << i * d + j) ^ tensor_bits(d, inv[i], inv[j]) ^ (ji ^ ij) << D
        one = fp.pack(A.unit)
        for i in range(d):
            yield tensor_bits(d, 1 << i, one) ^ tensor_bits(d, one, 1 << i) ^ (1 << i ^ inv[i]) << D
        return
    mult, inv = A.mult, A.involution
    for i in range(d):
        for j in range(d):
            ij = mult[i][j]
            yield _row([(i * d + j, 1), (j * d + i, 1)]
                       + [(D + m, -c) for m, c in ij]
                       + [(D + n, -c * e) for m, c in ij for n, e in inv[m]])
            yield _row([(i * d + j, 1)]
                       + [(a * d + b, ca * cb) for a, ca in inv[i] for b, cb in inv[j]]
                       + [(D + m, c) for m, c in mult[j][i]]
                       + [(D + m, -c) for m, c in ij])
    for i in range(d):
        yield _row([(D + i, 2)] + [(D + n, 2 * e) for n, e in inv[i]])


def hq_vector(A, ch2, c1):
    return flatten(A, 2, ch2) + tuple(x % A.p for x in c1)
