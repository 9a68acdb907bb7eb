"""Chain-level Hochschild/cyclic/quaternionic homology in low degrees.

Chains are sparse dicts {basis index tuple: coefficient}; quotient
contexts are dense F_p row spaces.  The dimension guard refuses level-2
chain spaces beyond ~20^3 rows instead of approximating.
"""
from __future__ import annotations

from .. import fp
from .algebras import FiniteAlgebra, AlgebraError

DIM_GUARD = 20


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
    out = {}
    for i, a in enumerate(x):
        if not a:
            continue
        for j, b in enumerate(y):
            if not b:
                continue
            out[(i, j)] = (a * b) % A.p
    return out


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
            m = idx
            for _ in range(k):
                key.append(m % d)
                m //= d
            out[tuple(reversed(key))] = c % A.p
    return out


# -- boundary and symmetry operators ----------------------------------------


def boundary(A, k, chain):
    """b: T_k -> T_(k-1) (T_1 -> 0)."""
    if k == 1:
        return {}
    p = A.p
    out = {}

    def acc(key, c):
        nonlocal out
        if c % p:
            out[key] = (out.get(key, 0) + c) % p
            if out[key] == 0:
                del out[key]

    for key, c in chain.items():
        xs = [A.basis_vec(i) for i in key]
        for i in range(k - 1):
            merged = xs[:i] + [A.mul(xs[i], xs[i + 1])] + xs[i + 2:]
            sgn = (-1) ** i
            for kk, cc in tensor_list(A, merged).items():
                acc(kk, sgn * c * cc)
        merged = [A.mul(xs[-1], xs[0])] + xs[1:-1]
        sgn = (-1) ** (k - 1)
        for kk, cc in tensor_list(A, merged).items():
            acc(kk, sgn * c * cc)
    return out


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
    ambient space (T_1, T_2, or T_2 + T_1 for HQ1)."""

    def __init__(self, A, kind, ambient_dim, boundary_rows, cycle_basis):
        self.A = A
        self.kind = kind
        self.ambient_dim = ambient_dim
        self.cycles = list(cycle_basis)
        self.context = fp.QuotientContext(ambient_dim, A.p, boundary_rows)
        basis = []
        probe = self.context.space
        for v in cycle_basis:
            if not probe.contains(v):
                basis.append(v)
                probe = probe.extended([v])
        self.basis = basis

    @property
    def dim(self):
        return len(self.basis)

    def reduce(self, vec):
        return self.context.reduce(vec)

    def class_of(self, vec):
        return HomologyClass(self, tuple(vec))

    def zero(self):
        return HomologyClass(self, fp.zeros(self.ambient_dim))


class HomologyClass:
    def __init__(self, space, vec):
        self.space = space
        self.vec = tuple(vec)

    def display(self):
        """Formal tensor sum of the canonical representative."""
        A = self.space.A
        red = self.reduced()
        if self.space.kind in ("H0", "HC0"):
            return "[" + A.format_vec(red) + "]"
        if self.space.kind in ("H1", "HC1"):
            terms = [f"{A.labels[i]}(x){A.labels[j]}"
                     + (f"*{c}" if c != 1 else "")
                     for (i, j), c in sorted(unflatten(A, 2, red).items())]
            return "[" + " + ".join(terms) + "]" if terms else "[0]"
        d2 = A.dim * A.dim
        ch = unflatten(A, 2, red[:d2])
        terms = [f"{A.labels[i]}(x){A.labels[j]}" for (i, j), c in sorted(ch.items())]
        cpart = A.format_vec(red[d2:])
        return "[" + (" + ".join(terms) or "0") + ", " + cpart + "]"

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
        return HomologyClass(self.space, fp.add_vec(self.vec, other.vec, self.space.A.p))


def homology(A: FiniteAlgebra, which):
    """Basis-with-context for H0, H1, HC0, HC1 or HQ1 of A."""
    check_guard(A)
    d = A.dim
    p = A.p
    if which in ("H0", "HC0"):
        rows = []
        for i in range(d):
            for j in range(d):
                rows.append(A.commutator(A.basis_vec(i), A.basis_vec(j)))
        cycles = [fp.unit(d, i) for i in range(d)]
        return HomologySpace(A, which, d, rows, cycles)
    if which in ("H1", "HC1"):
        eqs = _b1_equations(A)
        cycles = fp.kernel_basis(eqs, d * d, p)
        rows = _b2_rows(A)
        if which == "HC1":
            for i in range(d):
                for j in range(d):
                    ch = {(i, j): 1}
                    ch = t_add(p, ch, t_neg(p, cyclic_x(A, 2, ch)))
                    rows.append(flatten(A, 2, ch))
        return HomologySpace(A, which, d * d, rows, cycles)
    if which == "HQ1":
        return hq1(A)
    raise AlgebraError(f"unknown homology {which!r}")


def _b1_equations(A):
    d = A.dim
    eqs = [[0] * (d * d) for _ in range(d)]
    for i in range(d):
        for j in range(d):
            col = i * d + j
            for k, c in enumerate(A.commutator(A.basis_vec(i), A.basis_vec(j))):
                eqs[k][col] = c
    return eqs


def _b2_rows(A):
    d = A.dim
    rows = []
    for i in range(d):
        for j in range(d):
            for k in range(d):
                ch = boundary(A, 3, {(i, j, k): 1})
                rows.append(flatten(A, 2, ch))
    return rows


def hq1(A: FiniteAlgebra):
    """HQ_1 via the kernel presentation:
    Ker((b, 1-y): (R(x)R) + R -> R) modulo the four relation families."""
    if A.involution is None:
        raise AlgebraError("HQ1 needs an anti-involution")
    check_guard(A)
    d, p = A.dim, A.p
    amb = d * d + d

    def pack(ch2, c1):
        return flatten(A, 2, ch2) + tuple(x % p for x in c1)

    # cycle equations: b(xi) + c - invol(c) = 0
    eqs = [row + [0] * d for row in _b1_equations(A)]
    for i in range(d):
        v = A.sub(A.basis_vec(i), A.invol(A.basis_vec(i)))
        for k, c in enumerate(v):
            eqs[k][d * d + i] = c % p
    cycles = fp.kernel_basis(eqs, amb, p)

    rows = []
    E = [A.basis_vec(i) for i in range(d)]
    for i in range(d):
        for j in range(d):
            r, s = E[i], E[j]
            rs = A.mul(r, s)
            ch = t_add(p, tensor2(A, r, s), tensor2(A, s, r))
            rows.append(pack(ch, A.scale(A.add(rs, A.invol(rs)), -1)))
            ch = t_add(p, tensor2(A, r, s), tensor2(A, A.invol(r), A.invol(s)))
            rows.append(pack(ch, A.sub(A.mul(s, r), rs)))
    for i in range(d):
        rows.append(pack({}, A.scale(A.add(E[i], A.invol(E[i])), 2)))
    for i in range(d):
        for j in range(d):
            for k in range(d):
                x, y, z = E[i], E[j], E[k]
                ch = tensor2(A, A.mul(x, y), z)
                ch = t_add(p, ch, t_neg(p, tensor2(A, x, A.mul(y, z))))
                ch = t_add(p, ch, tensor2(A, A.mul(z, x), y))
                rows.append(pack(ch, A.zero_vec()))
    return HomologySpace(A, "HQ1", amb, rows, cycles)


def hq_vector(A, ch2, c1):
    return flatten(A, 2, ch2) + tuple(x % A.p for x in c1)
