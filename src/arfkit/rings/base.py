"""Rings with anti-structure: exact arithmetic for every coefficient ring
in scope.

A ring descriptor (subclass of Ring) fixes the element representation, the
anti-automorphism alpha and the unit u with alpha(u)u = 1.  Elements are
hashable, canonical values; arithmetic goes through the descriptor so the
truncated-power-series construction can stack over any base.
"""
from __future__ import annotations

import re

from .. import ArfkitError


class RingError(ArfkitError):
    pass


class Ring:
    name = "ring"

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        raise NotImplementedError

    def sum(self, items):
        acc = self.zero()
        for x in items:
            acc = self.add(acc, x)
        return acc

    def involute(self, a):
        raise NotImplementedError

    def unit_u(self):
        """The unit of the anti-structure."""
        return self.one()

    def unit_u_inv(self):
        u = self.unit_u()
        inv = self.try_inverse(u)
        if inv is None:
            raise RingError("anti-structure unit is not invertible?")
        return inv

    def try_inverse(self, a):
        return None

    def is_zero(self, a):
        return a == self.zero()

    # Lambda_1 and Gamma_1 of the anti-structure
    def in_lambda1(self, x):
        return self.is_zero(self.add(x, self.mul(self.involute(x), self.unit_u())))

    def gamma1_reduce(self, x):
        """Canonical representative of x modulo {y - alpha(y)u}."""
        raise RingError(f"no Gamma_1 normal form for {self.name}")

    def in_gamma1(self, x):
        return self.is_zero(self.gamma1_reduce(x))

    def gamma1_witness(self, d):
        """Some w with d = w - alpha(w)u, for d known to lie in Gamma_1."""
        raise RingError(f"no Gamma_1 witness for {self.name}")

    def format(self, a):
        return str(a)

    def parse(self, text):
        raise RingError(f"no parser for {self.name}")


class IntegerRing(Ring):
    """Z with the identity involution and u = +-1."""

    def __init__(self, u=1):
        self.u = u
        self.name = "Z"

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def involute(self, a):
        return a

    def unit_u(self):
        return self.u

    def try_inverse(self, a):
        return a if a in (1, -1) else None

    def gamma1_reduce(self, x):
        # {y - y*u}: 0 for u = 1, 2Z for u = -1
        return x if self.u == 1 else x % 2

    def gamma1_witness(self, d):
        if self.u == -1:
            return d // 2
        if d:
            raise RingError("element outside Gamma_1")
        return 0

    def parse(self, text):
        return int(text)


class PrimeField(Ring):
    def __init__(self, p, u=1):
        self.p = p
        self.u = u % p
        self.name = f"F{p}"

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def involute(self, a):
        return a

    def unit_u(self):
        return self.u

    def try_inverse(self, a):
        a %= self.p
        return None if a == 0 else pow(a, self.p - 2, self.p)

    def gamma1_reduce(self, x):
        if self.u == self.p - 1 and self.p != 2:
            return 0           # u = -1, odd p: {y + y} = R
        return x % self.p      # u = 1 or p = 2: Gamma_1 = 0

    def gamma1_witness(self, d):
        d %= self.p
        if self.u == self.p - 1 and self.p != 2:
            return (d * self.try_inverse(2)) % self.p
        if d:
            raise RingError("element outside Gamma_1")
        return 0

    def parse(self, text):
        return int(text) % self.p


GF2 = PrimeField(2)


class PolyRing(Ring):
    """Multivariate (Laurent) polynomials, sparse exponent-vector form.

    coeff: "Z" or "F2".  involution: "trivial" or "inverse" (exponent
    negation; only sensible on Laurent rings, where it is the group-ring
    involution of F2[Z^n])."""

    def __init__(self, variables, coeff="Z", laurent=False, involution="trivial", u=None):
        self.vars = tuple(variables)
        self.coeff = coeff
        self.laurent = laurent
        self.involution = involution
        if involution == "inverse" and not laurent:
            raise RingError("inverse involution needs a Laurent ring")
        self.p = 2 if coeff == "F2" else 0
        if u is None:
            u = 1 if coeff == "F2" else -1
        self.u = u
        self.name = f"{coeff}[{','.join(self.vars)}{'^+-' if laurent else ''}]"

    # elements are dicts {exponent tuple: coefficient}, normalized

    def _norm(self, d):
        out = {}
        for e, c in d.items():
            if self.p:
                c %= self.p
            if c:
                if not self.laurent and any(x < 0 for x in e):
                    raise RingError("negative exponent in a non-Laurent ring")
                out[e] = c
        return _freeze(out)

    def zero(self):
        return _freeze({})

    def one(self):
        return self._norm({(0,) * len(self.vars): 1})

    def monomial(self, exps, c=1):
        return self._norm({tuple(exps): c})

    def variable(self, name):
        i = self.vars.index(name)
        e = tuple(1 if j == i else 0 for j in range(len(self.vars)))
        return self.monomial(e)

    def add(self, a, b):
        d = dict(a)
        for e, c in b:
            d[e] = d.get(e, 0) + c
        return self._norm(d)

    def neg(self, a):
        return self._norm({e: -c for e, c in a})

    def mul(self, a, b):
        d = {}
        for e1, c1 in a:
            for e2, c2 in b:
                e = tuple(x + y for x, y in zip(e1, e2))
                d[e] = d.get(e, 0) + c1 * c2
        return self._norm(d)

    def involute(self, a):
        if self.involution == "trivial":
            return a
        return self._norm({tuple(-x for x in e): c for e, c in a})

    def unit_u(self):
        return self._norm({(0,) * len(self.vars): self.u})

    def try_inverse(self, a):
        terms = list(a)
        if len(terms) != 1:
            return None
        e, c = terms[0]
        if self.p == 0 and c not in (1, -1):
            return None
        if self.laurent:
            return self._norm({tuple(-x for x in e): c})
        if all(x == 0 for x in e):
            return self.monomial(e, c)
        return None

    def gamma1_reduce(self, x):
        if self.involution == "trivial":
            if self.u == -1 and self.p == 0:
                return self._norm({e: c % 2 for e, c in x})  # Gamma_1 = 2R
            return x                                         # Gamma_1 = 0
        # inverse involution over F2: Gamma_1 = span{m + m^-1}
        cnt = {}
        for e, c in x:
            ei = tuple(-t for t in e)
            rep = e if ei == e else min(e, ei)
            cnt[rep] = cnt.get(rep, 0) + c
        return self._norm(cnt)

    def gamma1_witness(self, d):
        if self.involution == "trivial":
            if self.u == -1 and self.p == 0:
                return self._norm({e: c // 2 for e, c in d})
            if not self.is_zero(d):
                raise RingError("element outside Gamma_1")
            return self.zero()
        # pick the larger member of each inverse pair; w + w^-1 = d
        w = {}
        for e, c in d:
            ei = tuple(-t for t in e)
            if ei == e:
                raise RingError("element outside Gamma_1")
            if e > ei:
                w[e] = c
        return self._norm(w)

    def derivative(self, a, var):
        i = self.vars.index(var)
        d = {}
        for e, c in a:
            if e[i]:
                e2 = tuple(x - (1 if j == i else 0) for j, x in enumerate(e))
                d[e2] = d.get(e2, 0) + c * e[i]
        return self._norm(d)

    def substitute_squares(self, a):
        """f(x1^2, x2^2, ...): the Adams operation psi^2 on monomial bases."""
        return self._norm({tuple(2 * x for x in e): c for e, c in a})

    def coefficients_mod2(self, a):
        return self._norm({e: c % 2 for e, c in a})

    def format(self, a):
        if not a:
            return "0"
        terms = sorted(a, key=lambda ec: ec[0])
        out = []
        for e, c in terms:
            mono = "*".join(
                (v if k == 1 else f"{v}^{k}")
                for v, k in zip(self.vars, e) if k != 0)
            if not mono:
                out.append(str(c))
            elif c == 1:
                out.append(mono)
            elif c == -1:
                out.append(f"-{mono}")
            else:
                out.append(f"{c}*{mono}")
        s = " + ".join(out).replace("+ -", "- ")
        return s

    def parse(self, text):
        """Parse "1 + X^-1*Y^2 - 3*X" style element text."""
        text = text.replace(" ", "")
        terms, cur = [], ""
        for ch in text:
            if ch in "+-" and cur and cur[-1] not in "^*+-":
                terms.append(cur)
                cur = "-" if ch == "-" else ""
            else:
                cur += ch
        if cur:
            terms.append(cur)
        acc = self.zero()
        for term in terms:
            if not term:
                continue
            sign = 1
            if term.startswith("-"):
                sign, term = -1, term[1:]
            coeff = 1
            exps = [0] * len(self.vars)
            for factor in term.split("*"):
                if not factor:
                    continue
                m = re.fullmatch(r"([A-Za-z_]\w*)(\^(-?\d+))?", factor)
                if m:
                    name = m.group(1)
                    if name not in self.vars:
                        raise RingError(f"unknown variable {name!r}")
                    exps[self.vars.index(name)] += int(m.group(3) or 1)
                else:
                    coeff *= int(factor)
            acc = self.add(acc, self.monomial(exps, sign * coeff))
        return acc


def _freeze(d):
    return tuple(sorted(d.items()))


class GroupAlgebra(Ring):
    """F2[G] with the inverse involution; elements are frozensets of
    group elements (the support)."""

    def __init__(self, G):
        self.G = G
        self.name = f"F2[{getattr(G, 'name', G.family)}]"
        self.p = 2

    def zero(self):
        return frozenset()

    def one(self):
        return frozenset([self.G.identity])

    def element(self, *gs):
        out = set()
        for g in gs:
            out ^= {g}
        return frozenset(out)

    def add(self, a, b):
        return a ^ b

    def neg(self, a):
        return a

    def mul(self, a, b):
        out = set()
        for g in a:
            for h in b:
                out ^= {self.G.mul(g, h)}
        return frozenset(out)

    def involute(self, a):
        return frozenset(self.G.inv(g) for g in a)

    def try_inverse(self, a):
        if len(a) == 1:
            (g,) = a
            return frozenset([self.G.inv(g)])
        if self.G.is_finite:
            return self._regular_inverse(a)
        return None

    def _regular_inverse(self, a):
        from .. import fp
        n = self.G.order()
        rows = []
        for g in range(n):  # row for basis vector g: a*g in coordinates
            v = [0] * n
            for h in a:
                v[self.G.mul(h, g)] ^= 1
            rows.append(v)
        # solve a * x = 1: columns of the multiplication operator
        mat = [[rows[j][i] for j in range(n)] for i in range(n)]
        target = [int(i == self.G.identity) for i in range(n)]
        sol = fp.solve(mat, target, n, 2)
        if sol is None:
            return None
        return frozenset(i for i in range(n) if sol[i])

    def gamma1_reduce(self, x):
        """Representative modulo {y + alpha(y)} = span{g + g^-1}: fold each
        inverse pair onto its smaller member, keep involution-fixed terms."""
        cnt = {}
        for g in x:
            gi = self.G.inv(g)
            rep = g if gi == g else min(g, gi, key=self.G.key)
            cnt[rep] = cnt.get(rep, 0) + 1
        return frozenset(g for g, c in cnt.items() if c % 2)

    def gamma1_witness(self, d):
        w = set()
        for g in d:
            gi = self.G.inv(g)
            if gi == g:
                raise RingError("element outside Gamma_1")
            if self.G.key(g) > self.G.key(gi):
                w.add(g)
        return frozenset(w)

    def format(self, a):
        if not a:
            return "0"
        return " + ".join(self.G.format_element(g)
                          for g in sorted(a, key=self.G.key))


class TruncatedRing(Ring):
    """R_n = R[T]/(T^(n+1)) over a base ring with anti-structure.

    With exotic=True the involution is the extension
        alpha(sum a_k T^k) = sum alpha(a_k) (-T/(1+T))^k
    and the unit becomes u_n = u(1+T); with exotic=False the involution is
    applied coefficientwise (T fixed) and the unit stays u.
    """

    def __init__(self, base, n, exotic=True):
        self.base = base
        self.n = n
        self.exotic = exotic
        self.name = f"{base.name}[T]/(T^{n + 1})" + ("!" if exotic else "")
        self._alpha_t_powers = None

    def zero(self):
        return (self.base.zero(),) * (self.n + 1)

    def one(self):
        return (self.base.one(),) + (self.base.zero(),) * self.n

    def from_coeffs(self, coeffs):
        coeffs = list(coeffs)
        if len(coeffs) > self.n + 1:
            raise RingError("mixed truncation degrees")
        coeffs += [self.base.zero()] * (self.n + 1 - len(coeffs))
        return tuple(coeffs)

    def t(self, k=1):
        v = [self.base.zero()] * (self.n + 1)
        if k <= self.n:
            v[k] = self.base.one()
        return tuple(v)

    def scalar(self, a):
        return (a,) + (self.base.zero(),) * self.n

    def add(self, a, b):
        self._check(a, b)
        return tuple(self.base.add(x, y) for x, y in zip(a, b))

    def neg(self, a):
        return tuple(self.base.neg(x) for x in a)

    def mul(self, a, b):
        self._check(a, b)
        out = [self.base.zero()] * (self.n + 1)
        nz = [(j, y) for j, y in enumerate(b) if not self.base.is_zero(y)]
        for i, x in enumerate(a):
            if self.base.is_zero(x):
                continue
            for j, y in nz:
                if i + j > self.n:
                    break
                out[i + j] = self.base.add(out[i + j], self.base.mul(x, y))
        return tuple(out)

    def _check(self, a, b):
        if len(a) != self.n + 1 or len(b) != self.n + 1:
            raise RingError("mixed truncation degrees")

    def involute(self, a):
        if not self.exotic:
            return tuple(self.base.involute(x) for x in a)
        pows = self._alpha_powers()
        acc = self.zero()
        for k, x in enumerate(a):
            term = tuple(self.base.mul(self.base.involute(x), c) for c in pows[k])
            acc = self.add(acc, term)
        return acc

    def _alpha_powers(self):
        """(-T/(1+T))^k for k = 0..n, truncated."""
        if self._alpha_t_powers is None:
            base_t = self.mul(self.neg(self.t()), self.geometric())
            pows = [self.one()]
            for _ in range(self.n):
                pows.append(self.mul(pows[-1], base_t))
            self._alpha_t_powers = pows
        return self._alpha_t_powers

    def unit_u(self):
        if not self.exotic:
            return self.scalar(self.base.unit_u())
        u = self.base.unit_u()
        v = [self.base.zero()] * (self.n + 1)
        v[0] = u
        if self.n >= 1:
            v[1] = u
        return tuple(v)

    def geometric(self):
        """(1+T)^-1 = sum_k (-1)^k T^k, in closed form."""
        one = self.base.one()
        return tuple(self.base.neg(one) if k % 2 else one for k in range(self.n + 1))

    def inverse(self, a):
        out = self.try_inverse(a)
        if out is None:
            raise RingError("constant term is not a unit")
        return out

    def try_inverse(self, a):
        c0inv = self.base.try_inverse(a[0])
        if c0inv is None:
            return None
        # a = c0 (1 + j), j nilpotent: a^-1 = (1 - j + j^2 - ...) c0^-1
        c0inv_el = self.scalar(c0inv)
        j = self.mul(c0inv_el, self.sub(a, self.scalar(a[0])))
        acc = self.one()
        term = self.one()
        for _ in range(self.n):
            term = self.neg(self.mul(term, j))
            acc = self.add(acc, term)
        return self.mul(acc, c0inv_el)

    def ideal_part(self, a):
        """True iff a lies in I_n = T R_n."""
        return self.base.is_zero(a[0])

    def format(self, a):
        parts = []
        for k, c in enumerate(a):
            if self.base.is_zero(c):
                continue
            cs = self.base.format(c)
            if k == 0:
                parts.append(cs)
            else:
                t = "T" if k == 1 else f"T^{k}"
                parts.append(t if cs == "1" else f"({cs})*{t}")
        return " + ".join(parts) if parts else "0"
