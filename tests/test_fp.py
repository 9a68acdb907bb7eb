"""Differential tests of the F_p kernel against brute-force enumeration."""
import itertools
import os
import random
import subprocess
import sys

import pytest

import arfkit.fp as fp
from arfkit.formspace import FormQuotient

CASES = [(p, dim) for p in (2, 3) for dim in range(7)]


def _random_rows(rng, p, dim, n):
    return [tuple(rng.randrange(p) for _ in range(dim)) for _ in range(n)]


def _span(rows, p, dim):
    """Every F_p-combination of rows."""
    out = set()
    for coeffs in itertools.product(range(p), repeat=len(rows)):
        out.add(tuple(sum(c * r[j] for c, r in zip(coeffs, rows)) % p
                      for j in range(dim)))
    return out or {(0,) * dim}


def _sub(v, w, p):
    return tuple((a - b) % p for a, b in zip(v, w))


def _apply(matrix, x, p):
    return tuple(sum(a * b for a, b in zip(row, x)) % p for row in matrix)


def _log(n, p):
    k = 0
    while p ** k < n:
        k += 1
    assert p ** k == n
    return k


@pytest.mark.parametrize("p,dim", CASES)
def test_subspace_matches_brute_force(p, dim):
    rng = random.Random(1000 * p + dim)
    vectors = list(itertools.product(range(p), repeat=dim))
    for _ in range(12):
        rows = _random_rows(rng, p, dim, rng.randint(0, 5))
        span = _span(rows, p, dim)
        S = fp.Subspace(dim, p, rows)
        assert S.rank == _log(len(span), p)
        basis = S.basis()
        assert len(basis) == S.rank and all(b in span for b in basis)
        pivots = [next(j for j, x in enumerate(b) if x) for b in basis]
        assert pivots == sorted(pivots)
        residue = {}
        for v in vectors:
            r = S.reduce(v)
            assert all(r[j] == 0 for j in pivots)
            assert _sub(v, r, p) in span
            assert S.contains(v) == (v in span)
            residue[v] = r
        # equal cosets give equal residues, and only they do
        for _ in range(40):
            v, w = rng.choice(vectors), rng.choice(vectors)
            assert (residue[v] == residue[w]) == (_sub(v, w, p) in span)


@pytest.mark.parametrize("p,dim", CASES)
def test_extended_matches_one_build(p, dim):
    rng = random.Random(2000 * p + dim)
    for _ in range(12):
        rows = _random_rows(rng, p, dim, rng.randint(0, 4))
        more = _random_rows(rng, p, dim, rng.randint(0, 3))
        S = fp.Subspace(dim, p, rows)
        T = S.extended(more)
        assert T.basis() == fp.Subspace(dim, p, rows + more).basis()
        assert S.basis() == fp.Subspace(dim, p, rows).basis()   # S unchanged


@pytest.mark.parametrize("p,dim", CASES)
def test_kernel_basis_and_solve_match_brute_force(p, dim):
    rng = random.Random(3000 * p + dim)
    xs = list(itertools.product(range(p), repeat=dim))
    for _ in range(12):
        m = rng.randint(0, 5)
        M = _random_rows(rng, p, dim, m)
        rank = _log(len(_span(M, p, dim)), p)
        K = fp.kernel_basis(M, dim, p)
        assert len(K) == dim - rank
        assert all(_apply(M, x, p) == (0,) * m for x in K)
        assert fp.Subspace(dim, p, K).rank == len(K)
        images = {_apply(M, x, p) for x in xs}
        for _ in range(6):
            target = tuple(rng.randrange(p) for _ in range(m))
            x = fp.solve(M, target, dim, p)
            if x is None:
                assert target not in images
            else:
                assert len(x) == dim and _apply(M, x, p) == target


@pytest.mark.parametrize("p", [2, 3])
def test_wrong_length_rows_are_rejected(p):
    S = fp.Subspace(3, p, [(1, 0, 1)])
    with pytest.raises(ValueError):
        fp.Subspace(3, p, [(1, 0, 1, 1)])
    with pytest.raises(ValueError):
        fp.Subspace(3, p, [(1, 0)])
    for bad in [(1, 0), (1, 0, 1, 0), ()]:
        with pytest.raises(ValueError):
            S.extended([bad])
        with pytest.raises(ValueError):
            S.reduce(bad)
        with pytest.raises(ValueError):
            S.contains(bad)


@pytest.mark.parametrize("p", [2, 3])
def test_entries_are_taken_mod_p(p):
    rng = random.Random(4000 + p)
    out_of_range = [-1, -p, p, 2 * p + 1, 255, 256, 257, -(2 ** 70), 2 ** 70 + 1]
    for _ in range(30):
        raw = [[rng.choice(out_of_range + [0, 1]) for _ in range(5)]
               for _ in range(rng.randint(1, 4))]
        vec = [rng.choice(out_of_range) for _ in range(5)]
        mod = [[x % p for x in r] for r in raw]
        S, T = fp.Subspace(5, p, raw), fp.Subspace(5, p, mod)
        assert S.basis() == T.basis()
        assert S.reduce(vec) == T.reduce([x % p for x in vec])
        assert S.contains(vec) == T.contains([x % p for x in vec])
        assert S.extended([vec]).basis() == T.extended([[x % p for x in vec]]).basis()


@pytest.mark.parametrize("p,dim", CASES)
def test_sparse_rows_match_dense_rows(p, dim):
    # {column: coefficient} rows, entries not yet reduced mod p, give the
    # same spaces, residues and greedy bases as the dense tuples
    rng = random.Random(5000 * p + dim)
    entries = [-1, 1, 2, p, 2 * p + 1, 2 ** 70 + 1]

    def sparse(vec):
        return {j: x + p * rng.choice([-1, 0, 1, 2 ** 70]) for j, x in enumerate(vec)
                if x or rng.random() < 0.3}

    for _ in range(12):
        rows = _random_rows(rng, p, dim, rng.randint(0, 5))
        more = _random_rows(rng, p, dim, rng.randint(0, 4))
        S = fp.Subspace(dim, p, rows)
        T = fp.Subspace(dim, p, [sparse(r) for r in rows])
        assert T.basis() == S.basis()
        assert S.extended([sparse(r) for r in more]).basis() == S.extended(more).basis()
        for v in _random_rows(rng, p, dim, 5):
            assert T.reduce(sparse(v)) == S.reduce(v)
            assert T.contains(sparse(v)) == S.contains(v)
        # independent: the rows that raise the rank, one extended copy each
        probe, kept = S, []
        for r in more:
            if not probe.contains(r):
                kept.append(r)
                probe = probe.extended([r])
        assert S.independent(more) == kept
        assert S.basis() == fp.Subspace(dim, p, rows).basis()   # S unchanged
        Q = fp.QuotientContext(dim, p, rows)
        assert Q.extended(more).space.basis() == fp.Subspace(dim, p, rows + more).basis()
        assert Q.quotient_dim == dim - S.rank
        if dim:
            odd = {rng.randrange(dim): rng.choice(entries)}
            assert T.reduce(odd) == S.reduce([odd.get(j, 0) for j in range(dim)])
    for bad in [{dim: 1}, {-1: 1}, {0: 1, dim + 5: 0}]:
        with pytest.raises(ValueError):
            fp.Subspace(dim, p, [bad])
        with pytest.raises(ValueError):
            fp.Subspace(dim, p).reduce(bad)


@pytest.mark.parametrize("dim", range(7))
def test_packed_rows_match_dense_and_sparse_rows(dim):
    # an F_2 row packed into an int, bit j = column j, builds the same
    # spaces, residues and greedy bases as its tuple and dict forms
    rng = random.Random(6000 + dim)

    def packed(vec):
        return sum(1 << j for j, x in enumerate(vec) if x)

    def sparse(vec):
        return {j: x for j, x in enumerate(vec) if x}

    for _ in range(12):
        rows = _random_rows(rng, 2, dim, rng.randint(0, 5))
        more = _random_rows(rng, 2, dim, rng.randint(0, 4))
        S = fp.Subspace(dim, 2, rows)
        for form in (packed, sparse):
            T = fp.Subspace(dim, 2, [form(r) for r in rows])
            assert T.basis() == S.basis()
            assert T.rank == S.rank
            for v in _random_rows(rng, 2, dim, 5):
                assert T.reduce(v) == S.reduce(v)
            assert S.extended([form(r) for r in more]).basis() == S.extended(more).basis()
            assert S.independent([form(r) for r in more]) == \
                [form(r) for r in S.independent(more)]
            Q = fp.QuotientContext(dim, 2, [form(r) for r in rows])
            assert Q.extended([form(r) for r in more]).space.basis() == \
                fp.Subspace(dim, 2, rows + more).basis()
        M = _random_rows(rng, 2, dim, rng.randint(0, 4))
        assert fp.kernel_basis([packed(r) for r in M], dim) == fp.kernel_basis(M, dim)
    for bad in (-1, -(1 << dim), 1 << dim, 3 << dim):
        with pytest.raises(ValueError):
            fp.Subspace(dim, 2, [bad])
        with pytest.raises(ValueError):
            fp.QuotientContext(dim, 2).extended([bad])
    # packed rows are F_2 only
    for good_at_2 in (0, 1):
        with pytest.raises(ValueError):
            fp.Subspace(max(dim, 1), 3, [good_at_2])
    with pytest.raises(ValueError):
        fp.Subspace(3, 3, [(1, 0, 1)]).extended([5])


def test_packed_bases_are_f2_only():
    assert fp.Subspace(3, 2, [(1, 0, 1)]).packed_basis() == [0b101]
    with pytest.raises(ValueError) as err:
        fp.Subspace(3, 3, [(1, 0, 2)]).packed_basis()
    assert type(err.value) is ValueError
    assert str(err.value) == "packed rows are F_2 only, not F_3"


def _forms_block(rng, ncols):
    """A random forms presentation of ncols columns, as `FormQuotient` takes
    it: (forms, width, constraints), with Q onto (each unknown the form of
    a column of its own), and the relation rows R = Q^-1(C) it presents,
    found one pivot at a time as the kernel of c -> q(c) mod C."""
    width = rng.randint(0, ncols)
    q = [rng.getrandbits(width) if width else 0 for _ in range(ncols)]
    for u, c in enumerate(rng.sample(range(ncols), width)):
        q[c] = 1 << u
    constraints = [rng.getrandbits(width) if width else 0
                   for _ in range(rng.randint(0, width))]
    images = [OnePivotF2(constraints).reduce(f) for f in q]
    equations = [sum(1 << c for c in range(ncols) if images[c] >> u & 1)
                 for u in range(width)]
    return (q, width, constraints), OnePivotF2(equations).kernel(ncols)


def _placed(blocks, columns, dim):
    """The direct sum of forms presentations, as `FiniteLc` places its F(z):
    block b on unknowns of its own and on the columns columns[b] of F_2^dim
    (its column c at columns[b][c]); a column of no block is free (a unit
    form of its own)."""
    q, width, constraints = [None] * dim, 0, []
    for (qb, wb, cb), cols in zip(blocks, columns):
        for c, f in zip(cols, qb):
            q[c] = f << width
        constraints += [f << width for f in cb]
        width += wb
    for c in range(dim):
        if q[c] is None:
            q[c], width = 1 << width, width + 1
    return FormQuotient(q, width, constraints)


def _shifted(rows, cols):
    return [sum(1 << cols[c] for c in range(len(cols)) if r >> c & 1) for r in rows]


@pytest.mark.parametrize("dim", range(1, 9))
def test_direct_sum_matches_one_build(dim):
    # a direct sum of forms quotients over disjoint column sets, the way a
    # finite L(c) sums its F(z): the same quotient as all the relation rows
    # eliminated together
    rng = random.Random(7000 + dim)
    for _ in range(12):
        owner = [rng.randrange(3) for _ in range(dim)]     # column -> block
        columns = [[j for j in range(dim) if owner[j] == b] for b in range(3)]
        blocks, rows = [], []
        for cols in columns:
            block, relations = _forms_block(rng, len(cols))
            blocks.append(block)
            rows += _shifted(relations, cols)
        rng.shuffle(rows)
        Q = _placed(blocks, columns, dim)
        S = fp.Subspace(dim, 2, rows)
        assert Q.basis() == S.basis() and Q.quotient_dim == dim - S.rank
        for v in _random_rows(rng, 2, dim, 6):
            assert Q.reduce(v) == S.reduce(v)
        more = _random_rows(rng, 2, dim, 2)
        assert Q.extended([fp.pack(r) for r in more]).basis() == S.extended(more).basis()
        assert Q.independent([fp.pack(r) for r in more]) == \
            [fp.pack(r) for r in S.independent(more)]


# -- the batched F_2 kernel against one pivot at a time ------------------------


class OnePivotF2:
    """Reference F_2 eliminator on packed rows: each new pivot is
    back-substituted into every stored row at once, so the rows are in
    reduced echelon form after every row (the kernel before pivots were
    batched)."""

    def __init__(self, rows=(), base=None):
        self.rows = dict(base.rows) if base is not None else {}
        for r in rows:
            self.absorb(r)

    def reduce(self, v):
        for j, row in self.rows.items():
            if v >> j & 1:
                v ^= row
        return v

    def absorb(self, v):
        """Add v; True when it raised the rank."""
        v = self.reduce(v)
        if not v:
            return False
        low = v & -v
        for k, row in self.rows.items():
            if row & low:
                self.rows[k] = row ^ v
        self.rows[low.bit_length() - 1] = v
        return True

    def basis(self):
        return [self.rows[j] for j in sorted(self.rows)]

    def independent(self, rows):
        probe = OnePivotF2(base=self)
        return [r for r in rows if probe.absorb(r)]

    def kernel(self, ncols):
        """One kernel vector per non-pivot column f: bit f, and bit f of the
        row of each pivot j at bit j."""
        return [(1 << f) | sum(1 << j for j, row in self.rows.items() if row >> f & 1)
                for f in range(ncols) if f not in self.rows]


def _packed_rows(rng, dim, n, kind):
    """n packed rows: dense random bits, or sparse with at most three bits;
    a fifth of them are sums of two earlier rows, so ranks fall short."""
    rows = []
    for _ in range(n):
        if len(rows) > 2 and rng.random() < 0.2:
            a, b = rng.sample(rows, 2)
            rows.append(a ^ b)
        elif kind == "dense":
            rows.append(rng.getrandbits(dim))
        else:
            rows.append((1 << rng.randrange(dim)) ^ (1 << rng.randrange(dim))
                        ^ (1 << rng.randrange(dim)))
    return rows


def _in_form(rng, dim, r):
    """The packed row r as fp takes it: an int, a dict or a tuple."""
    form = rng.randrange(3)
    if form == 0:
        return r
    if form == 1:
        return {j: 1 for j in range(dim) if r >> j & 1}
    return fp.unpack(r, dim)


@pytest.mark.parametrize("dim,kind", [(40, "dense"), (40, "sparse"), (150, "dense"),
                                      (300, "sparse"), (700, "dense"), (700, "sparse")])
def test_batched_kernel_matches_one_pivot_elimination(dim, kind):
    # large enough for several folds: a base of more than 500 rows at 700
    # columns, and builds and extensions of more than 32 new pivots
    rng = random.Random(9000 + dim + len(kind))
    nbase = {40: 30, 150: 140, 300: 330, 700: 680}[dim]
    base_rows = _packed_rows(rng, dim, nbase, kind)
    more = _packed_rows(rng, dim, dim // 3 + 40, kind)
    ref = OnePivotF2(base_rows)
    S = fp.Subspace(dim, 2, [_in_form(rng, dim, r) for r in base_rows])
    if dim == 700:
        assert S.rank > 500
    assert S.packed_basis() == ref.basis() and S.rank == len(ref.rows)
    for v in _packed_rows(rng, dim, 20, kind):
        assert S.reduce(fp.unpack(v, dim)) == fp.unpack(ref.reduce(v), dim)
    # extended: the base stays as it was
    T = S.extended([_in_form(rng, dim, r) for r in more])
    assert T.packed_basis() == OnePivotF2(more, base=ref).basis()
    assert S.packed_basis() == ref.basis()
    Q = fp.QuotientContext(dim, 2, base_rows).extended(more)
    assert Q.space.packed_basis() == T.packed_basis()
    assert S.independent(more) == ref.independent(more)
    assert fp.Subspace(dim, 2).independent(base_rows) == OnePivotF2().independent(base_rows)
    assert fp.kernel_packed(base_rows + more, dim) == OnePivotF2(base_rows + more).kernel(dim)


@pytest.mark.parametrize("dim", [1, 5, 40, 150])
def test_placed_blocks_match_one_pivot_elimination(dim):
    # forms quotients placed at column offsets, with free columns past them,
    # or widened by a top column of its own, as the F(z) and L(c) builds
    # place them: the same basis and residues as the shifted relation rows
    # eliminated one pivot at a time
    rng = random.Random(9500 + dim)
    for _ in range(2):
        widths = [rng.randint(1, dim) for _ in range(3)]
        offsets = [sum(widths[:b]) for b in range(3)]
        ambient = sum(widths) + rng.randint(0, 2)
        columns = [list(range(off, off + w)) for off, w in zip(offsets, widths)]
        pairs = [_forms_block(rng, w) for w in widths]
        shifted = [r for (_, rows), cols in zip(pairs, columns) for r in _shifted(rows, cols)]
        Q = _placed([block for block, _ in pairs], columns, ambient)
        ref = OnePivotF2(shifted)
        assert [u ^ Q.reduce_packed(u) for u in (1 << j for j in range(ambient))
                if Q.reduce_packed(u) != u] == ref.basis()
        for _ in range(6):
            v = rng.getrandbits(ambient)
            assert Q.reduce_packed(v) == ref.reduce(v)
        more = _packed_rows(rng, ambient, 6, "sparse")
        assert Q.extended(more).quotient_dim == ambient - len(OnePivotF2(shifted + more).rows)
        # one block, one column wider: the new top column is free
        (q, width, constraints), rows = pairs[0]
        wide = FormQuotient(q + [1 << width], width + 1, constraints)
        assert wide.quotient_dim == widths[0] + 1 - len(OnePivotF2(rows).rows)
        assert [wide.reduce_packed(1 << j) ^ 1 << j for j in range(widths[0] + 1)
                if wide.reduce_packed(1 << j) != 1 << j] == OnePivotF2(rows).basis()


@pytest.mark.parametrize("dim", range(4))
def test_bad_packed_rows_raise_on_every_entry(dim):
    # a negative packed row, one with a bit at dim or past it, and any
    # packed row over F_3 raise ValueError on each way rows reach the sweep
    S, S3 = fp.Subspace(dim, 2), fp.Subspace(max(dim, 1), 3)
    wide = "packed row with a bit outside"
    cases = [(-1, S, wide), (-(1 << dim), S, wide), (1 << dim, S, wide),
             (3 << dim, S, wide), (0, S3, "packed row over F_3"), (1, S3, "packed row over F_3")]
    for bad, space, message in cases:
        for entry in (lambda r: fp.Subspace(space.dim, space.p, r), space.extended,
                      space.independent):
            with pytest.raises(ValueError, match=message):
                entry([0, bad] if space.p == 2 else [bad])


@pytest.mark.parametrize("dim", [0, 1, 2, 5, 9, 40, 130])
def test_reduce_packed_matches_reduce(dim):
    # the packed residue is the packed tuple residue, on random quotients
    rng = random.Random(9000 + dim)
    for _ in range(8):
        rows = [rng.getrandbits(dim) if dim else 0 for _ in range(rng.randint(0, dim + 2))]
        Q = fp.QuotientContext(dim, 2, rows)
        for _ in range(10):
            v = rng.getrandbits(dim) if dim else 0
            assert Q.reduce_packed(v) == fp.pack(Q.reduce(fp.unpack(v, dim)))
        assert Q.reduce_packed(0) == 0
        for r in rows:
            assert Q.reduce_packed(r) == 0
    Q = fp.QuotientContext(dim, 2)
    for bad in (-1, -(1 << dim), 1 << dim, 3 << dim):
        with pytest.raises(ValueError, match="packed vector with a bit outside"):
            Q.reduce_packed(bad)
    for good_at_2 in (0, 1):
        with pytest.raises(ValueError, match="F_2 only, not F_3"):
            fp.QuotientContext(max(dim, 1), 3).reduce_packed(good_at_2)


def test_import_leaves_numpy_out():
    # a fresh interpreter, so that imports made by other tests cannot mask it
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    code = "import sys, arfkit.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "False"
