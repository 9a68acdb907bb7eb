"""Chain-level Hochschild/cyclic/quaternionic homology in low degrees.

Chains are sparse dicts {basis index tuple: coefficient}; relations are
rows built on basis indices from the sparse structure constants (e_i (x) e_j
is column i*d + j, and the T_1 part of HQ_1 is column d*d + k).  Over F_2 a
relation row is a packed int, bit j = column j, handed to `fp` as is; over
an odd p it is a sparse dict {column: coefficient}.  The dimension guard
refuses algebras past dimension 64 instead of approximating.
"""
from __future__ import annotations

from .. import fp
from .algebras import FiniteAlgebra, AlgebraError

DIM_GUARD = 64


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
    algebra's p, not the algebra.  `cycles` are rows as `fp` builds them
    (packed ints over F_2); `basis` holds the independent ones as tuples."""

    def __init__(self, A, kind, ambient_dim, boundary_rows, cycle_basis):
        self.p = A.p
        self.kind = kind
        self.ambient_dim = ambient_dim
        self.cycles = list(cycle_basis)
        self.context = _quotient(A, kind, ambient_dim, boundary_rows)
        self.basis = vectors(self.p, ambient_dim,
                             self.context.space.independent(self.cycles))

    @property
    def dim(self):
        return len(self.basis)

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


def _quotient(A, kind, dim, rows):
    """F_p^dim modulo rows.  Over F_2 with A.parts, the T_2 kinds split the
    rows by the part of their lowest column (e_i (x) e_j lies over e_i e_j,
    and the T_1 columns of HQ_1 follow) and reduce each part alone."""
    if A.p != 2 or A.parts is None or kind in ("H0", "HC0"):
        return fp.QuotientContext(dim, A.p, rows)
    parts = A.parts
    column_part = [parts[m] for row in A.mult for ((m, _),) in row] + parts
    blocks = [[] for _ in parts]
    for r in rows:
        if r:
            blocks[column_part[(r & -r).bit_length() - 1]].append(r)
    return fp.QuotientContext.direct_sum(dim, [b for b in blocks if b])


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
    terms."""
    row = {}
    for col, c in terms:
        row[col] = row.get(col, 0) + c
    return row


def _packed(terms):
    """The same sum over F_2, as a packed int: bit j = column j."""
    row = 0
    for col, c in terms:
        row ^= (c & 1) << col
    return row


def _packer(A):
    """The row builder of A's relation families: packed ints over F_2."""
    return _packed if A.p == 2 else _row


def homology(A: FiniteAlgebra, which):
    """Basis-with-context for H0, H1, HC0, HC1 or HQ1 of A."""
    check_guard(A)
    d, p = A.dim, A.p
    if which in ("H0", "HC0"):
        cycles = [1 << i if p == 2 else fp.unit(d, i) for i in range(d)]
        return HomologySpace(A, which, d, _commutator_rows(A, _packer(A)), cycles)
    if which in ("H1", "HC1"):
        cycles = _kernel(A, _b1_equations(A), d * d)
        rows = _b2_rows(A)
        if which == "HC1":
            # (1 - x)(e_i (x) e_j) = e_i (x) e_j + e_j (x) e_i
            pack = _packer(A)
            rows += [pack([(i * d + j, 1), (j * d + i, 1)])
                     for i in range(d) for j in range(d)]
        return HomologySpace(A, which, d * d, rows, cycles)
    if which == "HQ1":
        return hq1(A)
    raise AlgebraError(f"unknown homology {which!r}")


def _commutator_rows(A, pack):
    """[e_i, e_j] for all i, j (i-major) as rows over T_1, built by pack."""
    d, mult = A.dim, A.mult
    return [pack(mult[i][j] + tuple((k, -c) for k, c in mult[j][i]))
            for i in range(d) for j in range(d)]


def _b1_equations(A):
    """b = [ , ]: T_2 -> T_1 as equations: row k holds the coefficient of
    e_k in [e_i, e_j] at column i*d + j."""
    eqs = [{} for _ in range(A.dim)]
    for col, row in enumerate(_commutator_rows(A, _row)):
        for k, c in row.items():
            eqs[k][col] = c
    return eqs


def _b2_rows(A):
    """b(e_i (x) e_s (x) e_k) = e_i e_s (x) e_k - e_i (x) e_s e_k + e_k e_i (x) e_s
    for every i, k and every s in A.middles, as rows over T_2 (i-major, then
    s, then k).

    They span b(T_3).  In the sign convention of `boundary`, b∘b = 0 on T_4
    gives

        b(a (x) bc (x) d) = b(ab (x) c (x) d) + b(a (x) b (x) cd) - b(da (x) b (x) c),

    so the y with every b(x (x) y (x) z) in the span form a subspace closed
    under products.  It holds the middles, and products of the middles span
    A (see `FiniteAlgebra`).
    """
    d, mult, middles = A.dim, A.mult, A.middles
    if A.p == 2:
        # e_x e_y (x) e_0 and e_0 (x) e_x e_y packed; a row is three shifted
        # entries, XORed (over F_2 every structure constant is 1)
        left = [[sum(1 << m * d for m, _ in v) for v in row] for row in mult]
        right = [[sum(1 << m for m, _ in v) for v in row] for row in mult]
        return [(left[i][s] << k) ^ (right[s][k] << i * d) ^ (left[k][i] << s)
                for i in range(d) for s in middles for k in range(d)]
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
    d, p, mult, inv = A.dim, A.p, A.mult, A.involution
    D = d * d
    # cycle equations: b(xi) + c - invol(c) = 0; column D + i is e_i - invol(e_i)
    eqs = _b1_equations(A)
    for i in range(d):
        for k, c in _row([(i, 1)] + [(k, -c) for k, c in inv[i]]).items():
            eqs[k][D + i] = c
    cycles = _kernel(A, eqs, D + d)
    pack = _packer(A)
    rows = []
    for i in range(d):
        for j in range(d):
            ij = mult[i][j]
            # (r (x) s + s (x) r, -(rs + invol(rs))) for r = e_i, s = e_j
            rows.append(pack([(i * d + j, 1), (j * d + i, 1)]
                             + [(D + m, -c) for m, c in ij]
                             + [(D + n, -c * e) for m, c in ij for n, e in inv[m]]))
            # (r (x) s + invol(r) (x) invol(s), sr - rs)
            rows.append(pack([(i * d + j, 1)]
                             + [(a * d + b, ca * cb) for a, ca in inv[i] for b, cb in inv[j]]
                             + [(D + m, c) for m, c in mult[j][i]]
                             + [(D + m, -c) for m, c in ij]))
    # (0, 2 (r + invol(r))): zero over F_2
    if p != 2:
        rows += [_row([(D + i, 2)] + [(D + n, 2 * e) for n, e in inv[i]])
                 for i in range(d)]
    # (b(x (x) y (x) z), 0): the T_2 rows of H_1
    rows += _b2_rows(A)
    return HomologySpace(A, "HQ1", D + d, rows, cycles)


def hq_vector(A, ch2, c1):
    return flatten(A, 2, ch2) + tuple(x % A.p for x in c1)


def hq_row(A, ch2, c1):
    """(ch2, c1) in T_2 + T_1 as a sparse row {column: coefficient}."""
    d = A.dim
    return _row([(i * d + j, c) for (i, j), c in ch2.items()]
                + [(d * d + k, c) for k, c in enumerate(c1)])
