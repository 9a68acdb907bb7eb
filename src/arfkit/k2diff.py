"""Kaehler differentials, partial lambda-structures, Dennis-Stein symbols
in nu-coordinates, the secondary invariant, and the decision procedure for
the plane-group examples.

The quotient Omega_R/(2 Omega + delta R + {x dy + x^2 y dy}) is decided
exactly for the two supported two-variable rings: modulo exact forms the
span is additive in the second slot, which reduces everything to orbit
sums of monomials under the squaring (Frobenius) action, coupled across
the two coordinates only through the both-odd orbits.
"""
from __future__ import annotations

import functools

from .arf import ArfExpression, ArfError, GROUP, RING, REDUCED
from .groups.classes import orbit_primitive
from .groups.core import SemidirectZnC2
from .kinv import cr_reduce, omega
from .rings.base import RingError, PolyRing, IntegerRing


# ---------------------------------------------------------------------------
# differential forms


class DifferentialForm:
    """Formal sum  sum_i a_i dx_i  with polynomial coefficients.  Forms over
    different ring descriptors do not add or subtract: ArfError."""

    def __init__(self, ring: PolyRing, parts=None):
        self.ring = ring
        self.parts = {v: ring.zero() for v in ring.vars}
        if parts:
            for v, c in parts.items():
                self.parts[v] = c

    def __add__(self, other):
        R = self.ring
        if other.ring is not R:
            raise ArfError("values over different rings")
        return DifferentialForm(R, {v: R.add(self.parts[v], other.parts[v])
                                    for v in R.vars})

    def __neg__(self):
        R = self.ring
        return DifferentialForm(R, {v: R.neg(self.parts[v]) for v in R.vars})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        R = self.ring
        return DifferentialForm(R, {v: R.mul(c, self.parts[v]) for v in R.vars})

    def __eq__(self, other):
        return isinstance(other, DifferentialForm) and self.parts == other.parts

    def __hash__(self):
        return hash(tuple(sorted(self.parts.items())))

    def is_zero(self):
        return all(self.ring.is_zero(c) for c in self.parts.values())


def delta(ring: PolyRing, f) -> DifferentialForm:
    """The universal derivation, in Leibniz normal form."""
    return DifferentialForm(ring, {v: ring.derivative(f, v) for v in ring.vars})


# ---------------------------------------------------------------------------
# partial lambda-structures (p = 2)


class LambdaStructure:
    """theta^2 with theta^2(variable) = 0 and the binomial extension rules;
    psi^2(a) = a^2 - 2 theta^2(a)."""

    def __init__(self, ring):
        self.ring = ring

    def theta2(self, a):
        R = self.ring
        if isinstance(R, IntegerRing):
            return (a * a - a) // 2
        if isinstance(R, PolyRing) and R.p == 0:
            # psi^2(f) = f(x^2); theta^2 = (f^2 - psi^2 f)/2 is integral
            diff = R.sub(R.mul(a, a), R.substitute_squares(a))
            return R._norm({e: c // 2 for e, c in diff})
        # no consistent theta^2 exists in characteristic 2:
        # axiom 2 at (a, a) would force a^2 = theta(0) = 0 for every a
        raise RingError(f"no 2-lambda structure exists on {R.name}")

    def psi2(self, a):
        R = self.ring
        th = self.theta2(a)
        return R.sub(R.mul(a, a), R.add(th, th))


def lambda_structure(ring):
    return LambdaStructure(ring)


def phi2(ring, a, b) -> DifferentialForm:
    """phi^2(a db) = psi^2(a) (b db - d theta^2(b))."""
    lam = lambda_structure(ring)
    psi_a = lam.psi2(a)
    inner = delta(ring, b).scale(b) - delta(ring, lam.theta2(b))
    return inner.scale(psi_a)


# ---------------------------------------------------------------------------
# Dennis-Stein symbols and the nu coordinates


class DSSymbol:
    """<x, y> in K_2(R_n, I_n); one component must lie in I_n."""

    def __init__(self, Rn, x, y):
        self.Rn = Rn
        if not (Rn.ideal_part(x) or Rn.ideal_part(y)):
            raise ArfError("Dennis-Stein symbol needs a component in I_n")
        self.x = x
        self.y = y


class NuValue:
    """nu_n coordinates: (form, extra) with
    n=1: extra = class in R/2R;
    n=2: extra = class in (R + Omega_R)/span{(2a, da)}.
    The form is over `ring`, so values over different rings do not add:
    the sum of their forms raises ArfError."""

    def __init__(self, ring, n, form, extra):
        self.ring = ring
        self.n = n
        self.form = form
        self.extra = extra

    def __add__(self, other):
        ring, n = self.ring, self.n
        form = self.form + other.form
        if n == 1:
            extra = _r_mod2(ring, ring.add(self.extra, other.extra))
        else:
            r = ring.add(self.extra[0], other.extra[0])
            w = self.extra[1] + other.extra[1]
            extra = _pair_reduce(ring, r, w)
        return NuValue(ring, n, form, extra)

    def __neg__(self):
        ring, n = self.ring, self.n
        if n == 1:
            return NuValue(ring, n, -self.form, self.extra)
        r, w = self.extra
        return NuValue(ring, n, -self.form, _pair_reduce(ring, ring.neg(r), -w))

    def __sub__(self, other):
        return self + (-other)

    def __eq__(self, other):
        return (isinstance(other, NuValue) and self.n == other.n
                and self.form == other.form and self.extra == other.extra)

    def is_zero(self):
        if not self.form.is_zero():
            return False
        if self.n == 1:
            return self.ring.is_zero(self.extra)
        r, w = self.extra
        return self.ring.is_zero(r) and w.is_zero()


def _r_mod2(ring, r):
    if isinstance(ring, IntegerRing):
        return r % 2
    if isinstance(ring, PolyRing):
        return ring.coefficients_mod2(r)
    raise RingError("unsupported base for R/2R")


def _pair_reduce(ring, r, w: DifferentialForm):
    """Canonical representative of (r, w) in (R + Omega)/span{(2a, da)}:
    the even part of r is eliminated against its delta image."""
    if isinstance(ring, IntegerRing):
        a = r // 2
        return (r - 2 * a, w)  # dZ = 0, so the form is untouched
    if isinstance(ring, PolyRing):
        if ring.p == 2:
            # 2a = 0: the relations are (0, da); reduce w modulo exact forms
            return (r, exact_form_reduce(w))
        a = ring._norm({e: c // 2 for e, c in r})
        r2 = ring.sub(r, ring.add(a, a))
        return (r2, w - delta(ring, a))
    raise RingError("unsupported base for (R+Omega)/(2a, da)")


def exact_form_reduce(w: DifferentialForm) -> DifferentialForm:
    """Canonical representative of w modulo exact forms d(R), char 2.

    The pivot of d(M) is the term (M/x_i) dx_i at the first variable x_i
    with odd exponent in M; eliminating pivots terminates because mass
    moves to strictly later variables of the same integral monomial."""
    ring = w.ring
    nv = len(ring.vars)
    parts = {v: dict(c) for v, c in w.parts.items()}
    changed = True
    while changed:
        changed = False
        for vi, v in enumerate(ring.vars):
            for e, c in list(parts[v].items()):
                if c % 2 == 0:
                    continue
                M = tuple(x + (1 if k == vi else 0) for k, x in enumerate(e))
                pivot = next((k for k in range(nv) if M[k] % 2), None)
                if pivot == vi:
                    dM = delta(ring, ring.monomial(M))
                    for v2, c2 in dM.parts.items():
                        tgt = parts[v2]
                        for e2, cc in c2:
                            tgt[e2] = (tgt.get(e2, 0) + cc) % 2
                    changed = True
    out = {v: ring._norm({e: c % 2 for e, c in d.items()})
           for v, d in parts.items()}
    return DifferentialForm(ring, out)


def nu1(sym: DSSymbol) -> NuValue:
    """nu_1<aT, b> = (a db, [a^2 theta^2(b)]); <cT, T> = (0, [c]); general
    symbols are decomposed through the presentation relations first."""
    Rn = sym.Rn
    if Rn.n != 1:
        raise ArfError("nu1 needs R_1")
    ring = Rn.base
    lam = lambda_structure(ring)
    x, y, sign = _orient(Rn, sym.x, sym.y)
    x1 = x[1]
    y0, y1 = y[0], y[1]
    form = delta(ring, y0).scale(x1)
    extra = ring.add(ring.mul(ring.mul(x1, x1), lam.theta2(y0)),
                     ring.mul(x1, y1))
    if sign < 0:
        form = -form
    return NuValue(ring, 1, form, _r_mod2(ring, extra))


def nu2(sym: DSSymbol) -> NuValue:
    """The displayed nu~_2 formulas, extended to arbitrary symbols by the
    presentation relations:
      <x, y> = <x1 T, y0> + <x2 T^2, y0> + <x1 y1 T, T> + <x1 T^2, y1>
    (the <a T^2, T> contributions are killed in K~_2)."""
    Rn = sym.Rn
    if Rn.n != 2:
        raise ArfError("nu2 needs R_2")
    ring = Rn.base
    lam = lambda_structure(ring)
    x, y, sign = _orient(Rn, sym.x, sym.y)
    x1, x2 = x[1], x[2]
    y0, y1 = y[0], y[1]
    th_x1 = lam.theta2(x1)
    th_y0 = lam.theta2(y0)
    form = delta(ring, y0).scale(x1)
    r_part = ring.add(ring.mul(ring.mul(x1, x1), th_y0), ring.mul(x1, y1))
    w_part = (delta(ring, th_y0).scale(ring.sub(ring.mul(x1, x1), th_x1))
              + delta(ring, y0).scale(ring.mul(th_x1, y0))
              + delta(ring, x1).scale(ring.mul(th_y0, x1))
              + delta(ring, y0).scale(x2)
              + delta(ring, y1).scale(x1))
    if sign < 0:
        form = -form
        r_part = ring.neg(r_part)
        w_part = -w_part
    return NuValue(ring, 2, form, _pair_reduce(ring, r_part, w_part))


def _orient(Rn, x, y):
    if Rn.ideal_part(x):
        return x, y, 1
    return y, x, -1


def nu(sym: DSSymbol) -> NuValue:
    return nu1(sym) if sym.Rn.n == 1 else nu2(sym)


def nu1_inverse(Rn, form_coeff, form_var, c) -> list:
    """The proof's inverse on generators: nu_1^-1(a db, [c]) =
    <aT, b> + <a^2 theta^2(b) T, T> + <cT, T>."""
    ring = Rn.base
    lam = lambda_structure(ring)
    a = form_coeff
    b = ring.variable(form_var)
    t = Rn.t()
    syms = [DSSymbol(Rn, Rn.mul(Rn.scalar(a), t), Rn.scalar(b))]
    a2th = ring.mul(ring.mul(a, a), lam.theta2(b))
    syms.append(DSSymbol(Rn, Rn.mul(Rn.scalar(a2th), t), t))
    syms.append(DSSymbol(Rn, Rn.mul(Rn.scalar(c), t), t))
    return syms


def nu_sum(symbols):
    acc = None
    for s in symbols:
        v = nu(s)
        acc = v if acc is None else acc + v
    return acc


DS_RELATIONS = ("antisymmetry", "additivity", "multiplicativity")


def ds_relation_residual(relation, Rn, inst):
    """nu-image of LHS minus RHS for one presentation relation instance.

    antisymmetry: (x, y)            -> <x,y> + <y,x>
    additivity:   (x, y, z)         -> <x,y> + <x,z> - <x, y+z-xyz>
    multiplicativity: (x, y, z)     -> <x, yz> - <xy, z> - <xz, y>
    """
    if relation == "antisymmetry":
        x, y = inst
        return nu(DSSymbol(Rn, x, y)) + nu(DSSymbol(Rn, y, x))
    if relation == "additivity":
        x, y, z = inst
        combo = Rn.sub(Rn.add(y, z), Rn.mul(Rn.mul(x, y), z))
        return (nu(DSSymbol(Rn, x, y)) + nu(DSSymbol(Rn, x, z))
                - nu(DSSymbol(Rn, x, combo)))
    if relation == "multiplicativity":
        x, y, z = inst
        return (nu(DSSymbol(Rn, x, Rn.mul(y, z)))
                - nu(DSSymbol(Rn, Rn.mul(x, y), z))
                - nu(DSSymbol(Rn, Rn.mul(x, z), y)))
    raise ArfError(f"unknown relation {relation!r}")


# ---------------------------------------------------------------------------
# the Omega_R/(2 Omega + delta R + {x dy + x^2 y dy}) quotient


class OmegaQuotientClass:
    """Canonical invariant of a form in the omega_2 target quotient.

    In the coordinates  w = u X^-1 dX + v Y^-1 dY  the relation space is
    {(A + w, B + w)} with A/B/w spanned (mod exact forms) by (a + a^2) on
    monomials whose parity type is (odd,even) / (even,odd) / (odd,odd);
    the complete invariant consists of orbit sums of u on (even,odd) and
    constant orbits, of v on (odd,even) and constant orbits, and of u+v on
    (odd,odd) orbits."""

    def __init__(self, ring, data):
        self.ring = ring
        self.data = data  # frozenset of keys with odd orbit sums

    @classmethod
    def of_form(cls, form: DifferentialForm):
        ring = form.ring
        if len(ring.vars) != 2:
            raise ArfError("quotient decision supports two-variable rings")
        u = _times_var(ring, form.parts[ring.vars[0]], 0)
        v = _times_var(ring, form.parts[ring.vars[1]], 1)
        bits = {}
        for side, poly in (("u", u), ("v", v)):
            for e, c in ring.coefficients_mod2(poly):
                key = _orbit_key(side, e)
                if key is not None:
                    bits[key] = bits.get(key, 0) ^ (c % 2)
        return cls(ring, frozenset(k for k, b in bits.items() if b))

    def is_zero(self):
        return not self.data

    def __add__(self, other):
        if other.ring is not self.ring:
            raise ArfError("values over different rings")
        return OmegaQuotientClass(self.ring, self.data ^ other.data)

    def __eq__(self, other):
        return (isinstance(other, OmegaQuotientClass)
                and self.ring is other.ring and self.data == other.data)

    def __hash__(self):
        return hash(self.data)

    def display(self):
        if not self.data:
            return "0"
        return " + ".join(f"{side}:{_fmt_exp(self.ring, e)}"
                          for side, e in sorted(self.data))


def _times_var(ring, coeff, var_index):
    shift = tuple(1 if i == var_index else 0 for i in range(len(ring.vars)))
    return ring.mul(coeff, ring.monomial(shift))


def _orbit_key(side, e):
    p = orbit_primitive(e)
    px, py = p[0] % 2, p[1] % 2
    if px == 0 and py == 0:
        return (side + "0", p)          # the constant orbit
    if px == 1 and py == 1:
        return ("w", p)                 # coupled across both sides
    if side == "u":
        return ("u", p) if (px, py) == (0, 1) else None
    return ("v", p) if (px, py) == (1, 0) else None


def _fmt_exp(ring, e):
    return ring.format(ring.monomial(e))


def omega_quotient_decide(form: DifferentialForm):
    """Zero-ness in Omega/(2 Omega + dR + {x dy + x^2 y dy}); returns
    ("Zero",) or ("NonZero", witness-keys)."""
    cls = OmegaQuotientClass.of_form(form)
    if cls.is_zero():
        return ("Zero",)
    return ("NonZero", tuple(sorted(cls.data)))


# ---------------------------------------------------------------------------
# omega_2 and the total invariant


def omega2(expr: ArfExpression) -> OmegaQuotientClass:
    """omega_2(<<a,b>>) = [<aT^2, b>], read through the third summand of
    the H^1(K_2(R_2, I_2)) decomposition: the class of a db in
    Omega/(2 Omega + dR + Im(1 + phi^2))."""
    if expr.flavor != REDUCED:
        raise ArfError("omega2 expects reduced pairs")
    return _a_db_class(expr.context, expr.pairs)


def _a_db_class(ring, pairs):
    """The class of the sum of a db over the pairs (a, b) of `ring`."""
    data = frozenset()
    for a, b in pairs:
        data ^= OmegaQuotientClass.of_form(delta(ring, b).scale(a)).data
    return OmegaQuotientClass(ring, data)


def total_invariant(expr: ArfExpression):
    """<a,b> -> ([ab], [a db]); reduced pairs have vanishing first part."""
    if expr.flavor not in (RING, REDUCED):
        raise ArfError("total invariant expects ring or reduced pairs")
    ring = expr.context
    if not isinstance(ring, PolyRing):
        raise ArfError("total invariant supports polynomial rings")
    acc = _a_db_class(ring, expr.pairs)
    prod = ring.zero()
    if expr.flavor == RING:
        for a, b in expr.pairs:
            prod = ring.add(prod, ring.mul(a, b))
    return cr_reduce(ring, prod), acc


# ---------------------------------------------------------------------------
# the plane-group representation pipeline


def psi_representation_map(expr: ArfExpression, target: PolyRing) -> ArfExpression:
    """<X^i Y^j S, X^k Y^l S> -> <X^-i Y^-j, X^k Y^l> + <X^i Y^j, X^-k Y^-l>
    over F_2[X^+-, Y^+-] with the trivial involution."""
    G = expr.context
    if not isinstance(G, SemidirectZnC2) or G.rank != 2:
        raise ArfError("psi is the rank-2 lattice-flip representation")
    if expr.flavor != GROUP:
        raise ArfError("psi expects group pairs")
    pairs = []
    for g, h in expr.pairs:
        (v1, s1), (v2, s2) = g, h
        if not (s1 and s2):
            raise ArfError("psi needs both components of the form (word)*S")
        m1 = target.monomial(v1)
        m1i = target.monomial(tuple(-x for x in v1))
        m2 = target.monomial(v2)
        m2i = target.monomial(tuple(-x for x in v2))
        pairs.append((m1i, m2))
        pairs.append((m1, m2i))
    return ArfExpression(RING, target, pairs)


@functools.cache
def plane_ring():
    """F_2[X^+-, Y^+-] with the trivial involution, one shared descriptor:
    the invariants of separate `plane_group_invariant` calls are over the
    same ring, so they add and compare."""
    return PolyRing(["X", "Y"], coeff="F2", laurent=True, involution="trivial", u=1)


def plane_group_invariant(expr: ArfExpression):
    """The injective invariant of the plane example: the group-flavor Arf
    invariant paired with the differential part of the psi image."""
    ring = plane_ring()
    acc = _a_db_class(ring, psi_representation_map(expr, ring).pairs)
    return omega(expr), acc
