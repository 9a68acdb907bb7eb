"""Matrix-level anti-structure predicates: Lambda/Gamma membership, the
conjugate-transpose twist t_{alpha,u}, and the general quadratic group test."""
from __future__ import annotations

from .base import RingError, GroupAlgebra, TruncatedRing, PrimeField


class RingMatrix:
    def __init__(self, ring, rows):
        self.ring = ring
        self.rows = tuple(tuple(r) for r in rows)
        n = len(self.rows)
        if any(len(r) != len(self.rows[0]) for r in self.rows):
            raise RingError("ragged matrix")

    @property
    def shape(self):
        return (len(self.rows), len(self.rows[0]) if self.rows else 0)

    def __eq__(self, other):
        return isinstance(other, RingMatrix) and self.ring is other.ring \
            and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __add__(self, other):
        R = self.ring
        return RingMatrix(R, [[R.add(a, b) for a, b in zip(r1, r2)]
                              for r1, r2 in zip(self.rows, other.rows)])

    def __neg__(self):
        R = self.ring
        return RingMatrix(R, [[R.neg(a) for a in r] for r in self.rows])

    def __sub__(self, other):
        return self + (-other)

    def __matmul__(self, other):
        R = self.ring
        n, k = self.shape
        k2, m = other.shape
        if k != k2:
            raise RingError("shape mismatch")
        out = []
        for i in range(n):
            row = []
            for j in range(m):
                row.append(R.sum(R.mul(self.rows[i][t], other.rows[t][j])
                                 for t in range(k)))
            out.append(row)
        return RingMatrix(R, out)

    def conj_transpose(self):
        """A^alpha with (A^alpha)_ij = alpha(A_ji)."""
        R = self.ring
        n, m = self.shape
        return RingMatrix(R, [[R.involute(self.rows[j][i]) for j in range(n)]
                              for i in range(m)])

    def scale(self, c, side="right"):
        R = self.ring
        if side == "right":
            return RingMatrix(R, [[R.mul(a, c) for a in r] for r in self.rows])
        return RingMatrix(R, [[R.mul(c, a) for a in r] for r in self.rows])

    def is_zero(self):
        R = self.ring
        return all(R.is_zero(a) for r in self.rows for a in r)

    def blocks(self):
        """Split an even square matrix into (A, B; C, D)."""
        n2 = self.shape[0]
        if n2 % 2 or self.shape[0] != self.shape[1]:
            raise RingError("even square matrix expected")
        n = n2 // 2
        sub = lambda r0, c0: RingMatrix(
            self.ring, [[self.rows[r0 + i][c0 + j] for j in range(n)]
                        for i in range(n)])
        return sub(0, 0), sub(0, n), sub(n, 0), sub(n, n)


def identity_matrix(ring, n):
    return RingMatrix(ring, [[ring.one() if i == j else ring.zero()
                              for j in range(n)] for i in range(n)])


def zero_matrix(ring, n, m=None):
    m = n if m is None else m
    return RingMatrix(ring, [[ring.zero() for _ in range(m)] for _ in range(n)])


def block2(A, B, C, D):
    ring = A.ring
    n = A.shape[0]
    rows = []
    for i in range(n):
        rows.append(list(A.rows[i]) + list(B.rows[i]))
    for i in range(n):
        rows.append(list(C.rows[i]) + list(D.rows[i]))
    return RingMatrix(ring, rows)


def lambda_membership(M):
    """X in Lambda_m(R): X + X^alpha u = 0."""
    R = M.ring
    u = R.unit_u()
    return (M + M.conj_transpose().scale(u)).is_zero()


def gamma_reduce(M):
    """Canonical representative of M modulo Gamma_m(R) = {X - X^alpha u}:
    fold each off-diagonal pair into the upper slot, reduce the diagonal
    by the rank-one Gamma_1 normal form."""
    R = M.ring
    n, m = M.shape
    if n != m:
        raise RingError("square matrix expected")
    u = R.unit_u()
    rows = [list(r) for r in M.rows]
    for i in range(n):
        for j in range(i + 1, n):
            # subtract X - X^alpha u with X supported at (j, i)
            x = rows[j][i]
            rows[i][j] = R.add(rows[i][j], R.mul(R.involute(x), u))
            rows[j][i] = R.zero()
        rows[i][i] = R.gamma1_reduce(rows[i][i])
    return RingMatrix(R, rows)


def gamma_witness(M, reduced):
    """An X with M - reduced = X - X^alpha u."""
    R = M.ring
    n = M.shape[0]
    rows = [[R.zero()] * n for _ in range(n)]
    for i in range(n):
        for j in range(i):
            rows[i][j] = M.rows[i][j]
        rows[i][i] = R.gamma1_witness(R.sub(M.rows[i][i], reduced.rows[i][i]))
    return RingMatrix(R, rows)


def t_alpha_u(M):
    """t_{alpha,u}(X) = U^-1 X^alpha U with U = (0, I; uI, 0)."""
    R = M.ring
    n2, m2 = M.shape
    if n2 != m2 or n2 % 2:
        raise RingError("even square matrix expected")
    n = n2 // 2
    u = R.unit_u()
    uinv = R.unit_u_inv()
    # X^alpha has blocks (A^a, C^a; B^a, D^a);  with U^-1 = (0, u^-1 I; I, 0),
    # U^-1 X^alpha U = (u^-1 D^a u, u^-1 B^a; C^a u, A^a).
    Aa, Ca, Ba, Da = M.conj_transpose().blocks()
    top_left = RingMatrix(R, [[R.mul(R.mul(uinv, Da.rows[i][j]), u)
                               for j in range(n)] for i in range(n)])
    top_right = RingMatrix(R, [[R.mul(uinv, Ba.rows[i][j])
                                for j in range(n)] for i in range(n)])
    bot_left = RingMatrix(R, [[R.mul(Ca.rows[i][j], u)
                               for j in range(n)] for i in range(n)])
    return block2(top_left, top_right, bot_left, Aa)


def is_invertible(M):
    """Exact for finite rings (regular representation over F_p); structural
    certificates (unit-triangular, 1 + nilpotent via truncation) otherwise."""
    R = M.ring
    n = M.shape[0]
    if isinstance(R, PrimeField):
        from .. import fp
        return fp.Subspace(n, R.p, [list(r) for r in M.rows]).rank == n
    if isinstance(R, GroupAlgebra) and R.G.is_finite:
        from .. import fp
        N = R.G.order()
        big = [[0] * (n * N) for _ in range(n * N)]
        for i in range(n):
            for j in range(n):
                for g in M.rows[i][j]:
                    for h in range(N):
                        big[i * N + R.G.mul(g, h)][j * N + h] ^= 1
        return fp.Subspace(n * N, 2, big).rank == n * N
    if isinstance(R, TruncatedRing):
        const = RingMatrix(R.base, [[a[0] for a in row] for row in M.rows])
        return is_invertible(const)
    return _structural_invertible(M)


def _structural_invertible(M):
    R = M.ring
    n = M.shape[0]
    tri_up = all(R.is_zero(M.rows[i][j]) for i in range(n) for j in range(i))
    tri_lo = all(R.is_zero(M.rows[i][j]) for j in range(n) for i in range(j))
    if (tri_up or tri_lo) and all(R.try_inverse(M.rows[i][i]) is not None
                                  for i in range(n)):
        return True
    # 1 + nilpotent certificate
    D = M - identity_matrix(R, n)
    P = D
    for _ in range(2 * n + 2):
        if P.is_zero():
            return True
        P = P @ D
    raise RingError("invertibility undecidable for this ring")


def is_gq(M):
    """Membership in GQ_2n(R), via the three block equations together with
    the diagonal condition on A^alpha C and B^alpha D."""
    R = M.ring
    n2 = M.shape[0]
    if n2 % 2:
        raise RingError("even shape expected")
    n = n2 // 2
    if not is_invertible(M):
        return False
    A, B, C, D = M.blocks()
    u = R.unit_u()
    Aa, Ba, Ca, Da = (X.conj_transpose() for X in (A, B, C, D))
    one = identity_matrix(R, n)
    eq1 = (Aa @ D + (Ca.scale(u, "right")) @ B - one).is_zero()
    eq2 = (Aa @ C + (Ca.scale(u, "right")) @ A).is_zero()
    eq3 = (Ba @ D + (Da.scale(u, "right")) @ B).is_zero()
    if not (eq1 and eq2 and eq3):
        return False
    AC = Aa @ C
    BD = Ba @ D
    for i in range(n):
        if not R.in_gamma1(AC.rows[i][i]) or not R.in_gamma1(BD.rows[i][i]):
            return False
    return True


def hyperbolic_image(A, ring=None):
    """H(A) = (A, 0; 0, (A^alpha)^-1) for an invertible 1x1 block."""
    R = A.ring
    n = A.shape[0]
    Aa = A.conj_transpose()
    inv = invert_matrix(Aa)
    return block2(A, zero_matrix(R, n), zero_matrix(R, n), inv)


def invert_matrix(M):
    """Inverse for the structured cases used in tests: 1x1 units and
    unit-triangular 2x2 blocks."""
    R = M.ring
    n = M.shape[0]
    if n == 1:
        inv = R.try_inverse(M.rows[0][0])
        if inv is None:
            raise RingError("not invertible")
        return RingMatrix(R, [[inv]])
    # Neumann series against the diagonal for unit-diagonal matrices
    diag_inv = [R.try_inverse(M.rows[i][i]) for i in range(n)]
    if any(d is None for d in diag_inv):
        raise RingError("unsupported inversion")
    Dinv = RingMatrix(R, [[diag_inv[i] if i == j else R.zero()
                           for j in range(n)] for i in range(n)])
    N = identity_matrix(R, n) - (Dinv @ M)
    acc = identity_matrix(R, n)
    term = identity_matrix(R, n)
    for _ in range(2 * n + 2):
        term = term @ N
        if term.is_zero():
            break
        acc = acc + term
    else:
        raise RingError("unsupported inversion")
    return acc @ Dinv
