"""Formal Arf expressions and the rewriting relations of the presentation.

An expression is a mod-2 multiset of ordered generator pairs.  Equality in
the Arf group is never decided by rewriting; the module exposes derivation
checking (each step names one relation instance, verified exactly) and
leaves distinguishing to the invariants.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from . import ArfkitError, need
from .rings.matrices import t_alpha_u, is_gq, identity_matrix


class ArfError(ArfkitError):
    pass


GROUP = "group"
RING = "ring"
REDUCED = "reduced"


class ArfExpression:
    """Mod-2 multiset of ordered pairs.

    flavor "group": pairs of involutions of a group descriptor;
    flavor "ring": pairs of Lambda_1 elements of a commutative ring;
    flavor "reduced": <<a,b>> generators over a commutative ring."""

    def __init__(self, flavor, context, pairs=()):
        self.flavor = flavor
        self.context = context  # Group descriptor or Ring
        acc = set()
        for p in pairs:
            p = tuple(p)
            self._check_pair(p)
            acc ^= {p}
        self.pairs = frozenset(acc)

    def _check_pair(self, p):
        if len(p) != 2:
            raise ArfError("pairs have two components")
        if self.flavor == GROUP:
            G = self.context
            for g in p:
                if G.mul(g, g) != G.identity:
                    raise ArfError("group pair components must square to 1")
        elif self.flavor in (RING, REDUCED):
            R = self.context
            for x in p:
                if self.flavor == RING and not R.in_lambda1(x):
                    raise ArfError("ring pair components must lie in Lambda_1")

    def __add__(self, other):
        if other.flavor != self.flavor or other.context is not self.context:
            raise ArfError("mismatched expression contexts")
        out = ArfExpression(self.flavor, self.context)
        out.pairs = self.pairs ^ other.pairs
        return out

    def __eq__(self, other):
        return (isinstance(other, ArfExpression) and self.flavor == other.flavor
                and self.context is other.context and self.pairs == other.pairs)

    def __hash__(self):
        return hash((self.flavor, self.pairs))

    def is_zero(self):
        return not self.pairs

    def sorted_pairs(self):
        keyf = self._pair_key
        return sorted(self.pairs, key=keyf)

    def _pair_key(self, p):
        if self.flavor == GROUP:
            G = self.context
            return (G.key(p[0]), G.key(p[1]))
        return (repr(p[0]), repr(p[1]))

    def display(self):
        """Swap-normalized rendering (display only)."""
        if self.is_zero():
            return "0"
        parts = []
        for a, b in self.sorted_pairs():
            fa, fb = self._fmt(a), self._fmt(b)
            if fb < fa:
                fa, fb = fb, fa
            marks = "<<{}, {}>>" if self.flavor == REDUCED else "<{}, {}>"
            parts.append(marks.format(fa, fb))
        return " + ".join(parts)

    def _fmt(self, x):
        if self.flavor == GROUP:
            return self.context.format_element(x)
        return self.context.format(x)

    def __repr__(self):
        return f"ArfExpression({self.display()})"


def parse_expression(flavor, context, text):
    """Parse "<w1, w2> + <w3, w4>" with group words or ring element text
    ("<<a, b>> + ..." for reduced generators); "0" or "" is zero."""
    text = text.strip()
    if text in ("0", ""):
        return ArfExpression(flavor, context)
    opening, closing = ("<<", ">>") if flavor == REDUCED else ("<", ">")
    term = f"{opening}([^<>]*){closing}"
    if not re.fullmatch(rf"{term}(\s*\+\s*{term})*", text):
        raise ArfError(f"expected {opening}a, b{closing} + ..., got {text!r}")
    pairs = []
    for inner in re.findall(term, text):
        a, b = _split_pair(inner)
        if flavor == GROUP:
            pairs.append((context.parse_element(a), context.parse_element(b)))
        else:
            pairs.append((context.parse(a), context.parse(b)))
    return ArfExpression(flavor, context, pairs)


def _split_pair(inner):
    depth = 0
    for i, ch in enumerate(inner):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            a, b = inner[:i].strip(), inner[i + 1:].strip()
            if not (a and b):
                raise ArfError(f"empty pair component in {inner!r}")
            return a, b
    raise ArfError("pair needs two comma-separated components")


# ---------------------------------------------------------------------------
# derivation steps


@dataclass(frozen=True)
class DerivationStep:
    """One named relation instance.

    relation: Swap | Conj | Absorb | CentralAbsorb | PowerTwo |
              FiniteOrderCancel | BilinearSplit | GammaDrop
    pair: index into the sorted pair list of the current expression
    params: relation parameters (conjugator, central element, k, etc.)
    """
    relation: str
    pair: int = 0
    params: tuple = ()
    reverse: bool = False

    def describe(self, expr=None):
        p = ", ".join(str(x) for x in self.params)
        r = "~" if self.reverse else ""
        return f"{self.relation}{r}({p})@{self.pair}"


def apply_step(expr, step):
    """Apply one relation instance; reject with the failed side condition."""
    if expr.flavor == GROUP:
        return _apply_group_step(expr, step)
    return _apply_ring_step(expr, step)


def _get_pair(expr, idx):
    pairs = expr.sorted_pairs()
    if not (0 <= idx < len(pairs)):
        raise ArfError(f"no pair at index {idx}")
    return pairs[idx]


def _replace(expr, old, new):
    out = ArfExpression(expr.flavor, expr.context)
    out.pairs = expr.pairs ^ {old} ^ ({tuple(new)} if new is not None else set())
    return out


def _apply_group_step(expr, step):
    G = expr.context
    rel = step.relation
    if rel == "FiniteOrderCancel":
        return _finite_order_cancel(expr, step)
    g, h = _get_pair(expr, step.pair)
    if rel == "Swap":
        return _replace(expr, (g, h), (h, g))
    if rel == "Conj":
        (x,) = step.params
        x = G.parse_element(x) if isinstance(x, str) else x
        return _replace(expr, (g, h), (G.conj(g, x), G.conj(h, x)))
    if rel == "Absorb":
        if not step.reverse:
            return _replace(expr, (g, h), (g, G.mul(G.mul(h, g), h)))
        (claim,) = step.params
        claim = G.parse_element(claim) if isinstance(claim, str) else claim
        if G.mul(G.mul(claim, g), claim) != h:
            raise ArfError("Absorb~: claimed source does not absorb to the pair")
        return _replace(expr, (g, h), (g, claim))
    if rel == "CentralAbsorb":
        c = step.params[0]
        c = G.parse_element(c) if isinstance(c, str) else c
        if G.mul(c, c) != G.identity:
            raise ArfError("CentralAbsorb: c^2 != 1")
        if G.mul(c, g) != G.mul(g, c) or G.mul(c, h) != G.mul(h, c):
            raise ArfError("CentralAbsorb: c does not commute with the pair")
        side = step.params[1] if len(step.params) > 1 else 2
        if side == 2:
            return _replace(expr, (g, h), (g, G.mul(h, c)))
        return _replace(expr, (g, h), (G.mul(g, c), h))
    if rel == "PowerTwo":
        (k,) = step.params[:1]
        if not step.reverse:
            z = G.mul(g, h)
            return _replace(expr, (g, h), (g, G.mul(g, G.power(z, 1 << k))))
        (claim,) = step.params[1:2] or (None,)
        if claim is None:
            raise ArfError("PowerTwo~ needs the claimed source component")
        claim = G.parse_element(claim) if isinstance(claim, str) else claim
        z = G.mul(g, claim)
        if G.mul(g, G.power(z, 1 << k)) != h:
            raise ArfError("PowerTwo~: claimed source does not map to the pair")
        return _replace(expr, (g, h), (g, claim))
    raise ArfError(f"relation {rel!r} does not apply to group pairs")


def _finite_order_cancel(expr, step):
    G = expr.context
    i, j = step.params[0], step.params[1]
    wit = step.params[2] if len(step.params) > 2 else 0
    pairs = expr.sorted_pairs()
    if not (0 <= i < len(pairs) and 0 <= j < len(pairs) and i != j):
        raise ArfError("FiniteOrderCancel needs two distinct pairs")
    (a, az), (b, bz) = pairs[i], pairs[j]
    z1 = G.mul(a, az)
    z2 = G.mul(b, bz)
    if z1 != z2:
        raise ArfError("FiniteOrderCancel: pairs do not share the same z")
    x = G.mul(G.mul(a, b), G.power(z1, wit))
    if G.order_of(x) is None:
        raise ArfError("FiniteOrderCancel: ab z^i has infinite order")
    out = ArfExpression(expr.flavor, expr.context)
    out.pairs = expr.pairs ^ {pairs[i], pairs[j]}
    return out


def _apply_ring_step(expr, step):
    R = expr.context
    rel = step.relation
    a, b = _get_pair(expr, step.pair)
    if rel == "Swap":
        # <a,b> = <b, u a u^-1>
        u = R.unit_u()
        conj = R.mul(R.mul(u, a), R.unit_u_inv())
        return _replace(expr, (a, b), (b, conj))
    if rel == "BilinearSplit":
        b1 = step.params[0]
        b1 = R.parse(b1) if isinstance(b1, str) else b1
        b2 = R.sub(b, b1)
        out = ArfExpression(expr.flavor, expr.context)
        out.pairs = expr.pairs ^ {(a, b)} ^ {(a, b1)} ^ {(a, b2)}
        return out
    if rel == "GammaDrop":
        if not R.in_gamma1(b):
            raise ArfError("GammaDrop: second component is not in Gamma_1")
        return _replace(expr, (a, b), None)
    if rel == "Absorb":
        # relation 6: <a,b> = <a, b a alpha^-1(b)>; for our involutions
        # alpha is self-inverse so alpha^-1 = alpha.
        if not step.reverse:
            nb = R.mul(R.mul(b, a), R.involute(b))
            return _replace(expr, (a, b), (a, nb))
        (claim,) = step.params
        claim = R.parse(claim) if isinstance(claim, str) else claim
        if R.mul(R.mul(claim, a), R.involute(claim)) != b:
            raise ArfError("Absorb~: claimed source does not absorb to the pair")
        return _replace(expr, (a, b), (a, claim))
    raise ArfError(f"relation {rel!r} does not apply to ring pairs")


def check_derivation(start, steps, target):
    """Sequentially apply steps; return (ok, transcript)."""
    transcript = [start.display()]
    cur = start
    for i, step in enumerate(steps):
        try:
            cur = apply_step(cur, step)
        except ArfError as e:
            transcript.append(f"step {i} REJECTED: {step.describe()}: {e}")
            return False, transcript
        transcript.append(f"--{step.describe()}--> {cur.display()}")
    ok = cur == target
    transcript.append("reached target" if ok else
                      f"MISMATCH: expected {target.display()}")
    return ok, transcript


def steps_from_json(data):
    out = []
    for d in data:
        relation = need(d, "relation", ArfError, "derivation step", str)
        d = {"pair": 0, "params": [], "reverse": False, **d}
        pair, params, reverse = (need(d, key, ArfError, "derivation step", kind)
                                 for key, kind in (("pair", int), ("params", list),
                                                   ("reverse", bool)))
        out.append(DerivationStep(relation, pair, tuple(params), reverse))
    return out


# ---------------------------------------------------------------------------
# relation-7 instances


def gq_relation_instance(M, check=True):
    """The expression sum_i <(X^a Z)_ii, (Y^a T)_ii> attached to a matrix
    (X, Y; Z, T) with t(M) = M^-1; by the presentation theorem it maps to
    zero under every invariant.  Pairs with a zero component are dropped
    (they die under relation 4)."""
    R = M.ring
    n2 = M.shape[0]
    n = n2 // 2
    if check:
        if (t_alpha_u(M) @ M) != identity_matrix(R, n2):
            raise ArfError("matrix does not satisfy t(M) = M^-1")
        if not is_gq(M):
            raise ArfError("matrix is not in GQ")
    X, Y, Z, T = M.blocks()
    XZ = X.conj_transpose() @ Z
    YT = Y.conj_transpose() @ T
    pairs = []
    for i in range(n):
        a, b = XZ.rows[i][i], YT.rows[i][i]
        if not (R.is_zero(a) or R.is_zero(b)):
            pairs.append((a, b))
    return ArfExpression(RING, R, pairs)
