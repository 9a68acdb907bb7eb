"""The group-ring evaluation of the generalized Arf invariant.

For every z the group F(z) is a quotient of the mod-squares abelianization
of its (extended) centralizer by the subgroup generated by 2-power roots,
with an extra order-two marker in the self-inverse case.  J(G) is the
colimit of the F(z) along conjugation, squaring and inversion; Upsilon
sends a pair <g,h> to [1,t] or [h] in the summand of the class of gh.

Finite groups build each L(c) as one exact quotient.  The lattice products
use closed forms; the two-ends pull-backs walk the squaring chain of a
class until it cycles (finite-order tail, quotient by the loop map) or the
transition maps become isomorphisms (infinite-order tail).
"""
from __future__ import annotations

from . import fp
from .arf import ArfExpression, ArfError, GROUP
from .groups import classes as gcl
from .groups import structure as gst
from .groups.core import (GroupError, SemidirectZnC2, PullbackCyclicGroup,
                          PullbackDihedralGroup, table_from_mul)
from .memo import derived


class UpsilonUnknown(Exception):
    """Raised when a window-approximate computation cannot decide."""


# ---------------------------------------------------------------------------
# F(z)


class FzData:
    """F(z): coordinates live in the sharp presentation space of the
    relevant subgroup, modulo the 2-power-root span; type-1 classes carry
    an extra t coordinate."""

    def __init__(self, G, z):
        self.G = G
        self.z = z
        self.type = gst.type_of(G, z)
        if self.type == 2:
            self.sub = gst.extended_centralizer(G, z)
        else:
            self.sub = gst.centralizer(G, z)
        self.sharp = gst.sharp_of_subgroup(self.sub)
        roots = gcl.two_power_roots(G, z)
        self.sqrt_rows = [self.sharp.coord(r) for r in roots]
        self.has_t = self.type == 1
        self.dim = self.sharp.dim + (1 if self.has_t else 0)
        rows = [list(r) + [0] * (1 if self.has_t else 0)
                for r in self.sharp.context.space.basis()]
        rows += [list(r) + [0] * (1 if self.has_t else 0) for r in self.sqrt_rows]
        self.context = fp.QuotientContext(self.dim, 2, rows)

    def coord(self, h, tbit=0):
        v = list(self.sharp.coord(h))
        if self.has_t:
            v.append(tbit % 2)
        elif tbit:
            raise ArfError("no t coordinate on this summand")
        return tuple(v)

    def zero_with_t(self):
        if not self.has_t:
            raise ArfError("no t coordinate on this summand")
        return fp.unit(self.dim, self.dim - 1)

    def generator_elements(self):
        """Group elements aligned with the sharp coordinates (the t
        coordinate, when present, has no element and is handled apart)."""
        sub = self.sub
        if sub.kind in ("finite",):
            return list(sub.members)
        if sub.kind == "pullback":
            G = self.G
            out = []
            for e in sub.e_members:
                h = G.hom[e]
                d = h if isinstance(G, PullbackCyclicGroup) else h
                if isinstance(G, PullbackCyclicGroup):
                    out.append((h, e))
                else:
                    out.append(((h[0], h[1]), e))
            if isinstance(G, PullbackCyclicGroup):
                out.append((G.m, G.E.identity))
            else:
                out.append(((0, G.m), G.E.identity))
            return out
        if sub.kind == "lattice":
            G = self.G
            out = []
            for i in range(G.rank):
                out.append((tuple(1 if j == i else 0 for j in range(G.rank)), 0))
            return out
        if sub.kind == "full":
            # only the lattice products reach here: finite and pull-back
            # centralizers always come back as explicit subgroups
            G = self.G
            out = []
            for i in range(G.rank):
                out.append((tuple(1 if j == i else 0 for j in range(G.rank)), 0))
            out.append((tuple(0 for _ in range(G.rank)), 1))
            return out
        raise GroupError(f"unknown subgroup kind {sub.kind}")

    def w(self, g):
        """0 when g centralizes z, 1 when it conjugates z to z^-1."""
        return 0 if self.G.conj(self.z, g) == self.z else 1


def fz_data(G, z) -> FzData:
    table = derived(G, "fz", dict)
    fz = table.get(z)
    if fz is None:
        fz = table.setdefault(z, FzData(G, z))
    return fz


def _arrow_rows(src: FzData, dst: FzData, elem_map, t_extra=None, ins_src=None,
                ins_dst=None):
    """Colimit relation rows ins_src(gen) + ins_dst(image(gen)) for the
    generator elements, plus the t-coordinate bookkeeping."""
    rows = []
    for i, g in enumerate(src.generator_elements()):
        img, tbit = elem_map(g)
        rows.append(fp.add_vec(ins_src(fp.unit(src.dim, i)),
                               ins_dst(dst.coord(img, tbit))))
    if src.has_t:
        if not dst.has_t:
            raise ArfError("t coordinate cannot map to a t-free summand")
        r1 = ins_src(fp.unit(src.dim, src.dim - 1))
        r2 = ins_dst(dst.zero_with_t())
        rows.append(fp.add_vec(r1, r2))
    return rows


# ---------------------------------------------------------------------------
# L(c) backends


class FiniteLc:
    """L(c) for a finite group: the direct sum of the F(z), z in c, modulo
    all conjugation, squaring and inversion arrows."""

    def __init__(self, G, members):
        self.G = G
        self.members = tuple(sorted(members, key=G.key))
        self.fz = {z: fz_data(G, z) for z in self.members}
        self.offset = {}
        pos = 0
        for z in self.members:
            self.offset[z] = pos
            pos += self.fz[z].dim
        self.ambient = pos
        rows = set()
        for z in self.members:
            data = self.fz[z]
            for r in data.context.space.basis():
                rows.add(self._ins(z, r))
        gens = gst._generating_set(G) or [G.identity]
        for z in self.members:
            src = self.fz[z]
            # conjugation arrows by a generating set
            for x in gens:
                z2 = G.conj(z, x)
                dst = self.fz[z2]
                for row in _arrow_rows(src, dst,
                                       lambda g, x=x: (G.conj(g, x), 0),
                                       ins_src=lambda v, z=z: self._ins(z, v),
                                       ins_dst=lambda v, z2=z2: self._ins(z2, v)):
                    rows.add(row)
            # squaring arrow
            z2 = G.mul(z, z)
            dst = self.fz[z2]
            rows.update(self._square_rows(src, dst, z, z2))
            # inversion arrow for type 3
            if src.type == 3:
                z2 = G.inv(z)
                dst = self.fz[z2]
                for row in _arrow_rows(src, dst, lambda g: (g, 0),
                                       ins_src=lambda v, z=z: self._ins(z, v),
                                       ins_dst=lambda v, z2=z2: self._ins(z2, v)):
                    rows.add(row)
        self.context = fp.QuotientContext(self.ambient, 2, sorted(rows))

    def _square_rows(self, src, dst, z, z2):
        if src.type == 1:
            emap = lambda g: (g, 0)
        elif src.type == 2 and dst.type == 1:
            emap = lambda g: (g, src.w(g))
        else:
            emap = lambda g: (g, 0)
        rows = _arrow_rows(src, dst, emap,
                           ins_src=lambda v: self._ins(z, v),
                           ins_dst=lambda v: self._ins(z2, v))
        return set(rows)

    def _ins(self, z, vec):
        out = [0] * self.ambient
        off = self.offset[z]
        for i, c in enumerate(vec):
            out[off + i] = c
        return tuple(out)

    @property
    def dim(self):
        return self.context.quotient_dim

    def insert(self, z, vec):
        return self.context.reduce(self._ins(z, vec))

    def insert_element(self, z, h, tbit=0):
        return self.insert(z, self.fz[z].coord(h, tbit))

    def zero(self):
        return fp.zeros(self.ambient)


class SemidirectLc:
    """Closed-form L(c) for Z^n x| C2 (cross-validated by windows):
    L([1]) = C2; L([v]) = F_2{x_1..x_n, S}/<v mod 2> with identity arrows."""

    def __init__(self, G, key):
        self.G = G
        self.key = key
        n = G.rank
        if key == ("one",):
            self.ambient = 1
            self.context = fp.QuotientContext(1, 2, [])
        else:
            v = key[1]
            self.ambient = n + 1
            row = tuple(x % 2 for x in v) + (0,)
            self.context = fp.QuotientContext(n + 1, 2, [row])

    @property
    def dim(self):
        return self.context.quotient_dim

    def insert_element(self, z, h, tbit=0):
        G = self.G
        if self.key == ("one",):
            # F(z) for type-1 z has trivial sharp part; only t survives
            return (tbit % 2,)
        v, s = h
        return self.context.reduce(tuple(x % 2 for x in v) + (s % 2,))

    def zero(self):
        return fp.zeros(self.ambient)


class PullbackLc:
    """L(c) for a two-ends group, computed along the squaring chain of a
    base point.

    Finite-order tail: the chain of conjugacy classes cycles; the colimit
    is F at the re-entry point modulo the loop map.  Infinite-order tail:
    after the E-squaring preperiod the transition maps become isomorphisms
    (all data is periodic in the exponent), so the colimit is the stable F
    and values are compared by pushing to a common chain position.

    Values carry their chain position; `resolve` combines raw entries."""

    MAX_CHAIN = 64

    def __init__(self, G, z0):
        self.G = G
        self.z0 = z0
        self.chain = [fz_data(G, z0)]
        self.zs = [z0]
        self.maps = []      # maps[k]: F(chain[k]) -> F(chain[k+1]) columns
        self.cyclic = False
        self.loop_rows = []
        self.cycle_close = None
        stable = None
        pre, per = gcl.squaring_preperiod(G.E)
        for _ in range(self.MAX_CHAIN):
            z_next = G.mul(self.zs[-1], self.zs[-1])
            hit = None
            for j in range(len(self.zs)):
                x = gcl.conj_witness(G, z_next, self.zs[j])
                if x is not None:
                    hit = (j, x)
                    break
            if hit is not None:
                j, x = hit
                nxt = fz_data(G, z_next)
                self.maps.append(self._square_matrix(self.chain[-1], nxt))
                self.cycle_close = self._conj_matrix(nxt, self.chain[j], x)
                base = self.chain[j]
                for i in range(base.dim):
                    v = fp.unit(base.dim, i)
                    w = v
                    for t in range(j, len(self.maps)):
                        w = _apply_matrix(self.maps[t], w)
                    w = _apply_matrix(self.cycle_close, w)
                    self.loop_rows.append(fp.add_vec(v, w))
                stable = j
                self.cyclic = True
                break
            nxt = fz_data(G, z_next)
            self.maps.append(self._square_matrix(self.chain[-1], nxt))
            self.chain.append(nxt)
            self.zs.append(z_next)
            if len(self.chain) > pre + per + 2:
                dims = {self.chain[t].context.quotient_dim
                        for t in range(len(self.chain) - per - 1, len(self.chain))}
                if len(dims) == 1 and all(self._is_iso(t) for t in
                                          range(len(self.maps) - per, len(self.maps))):
                    stable = len(self.chain) - per - 1
                    break
        if stable is None:
            raise UpsilonUnknown("squaring chain failed to stabilize")
        self.stable = stable
        self._contexts = {}
        self.dim = self._context_at(stable).quotient_dim

    # -- linear transport ----------------------------------------------------

    def _square_matrix(self, src: FzData, dst: FzData):
        cols = []
        for g in src.generator_elements():
            tbit = src.w(g) if (src.type == 2 and dst.type == 1) else 0
            cols.append(dst.coord(g, tbit))
        if src.has_t:
            cols.append(dst.zero_with_t())
        return cols

    def _conj_matrix(self, src: FzData, dst: FzData, x):
        G = self.G
        cols = []
        for g in src.generator_elements():
            cols.append(dst.coord(G.conj(g, x), 0))
        if src.has_t:
            cols.append(dst.zero_with_t())
        return cols

    def _is_iso(self, t):
        src = self.chain[t]
        dst = self.chain[t + 1]
        if src.context.quotient_dim != dst.context.quotient_dim:
            return False
        probe = dst.context.space
        rank = 0
        for i in range(src.dim):
            v = _apply_matrix(self.maps[t], fp.unit(src.dim, i))
            if not probe.contains(v):
                probe = probe.extended([v])
                rank += 1
        return rank == src.context.quotient_dim

    def _context_at(self, pos):
        if pos not in self._contexts:
            base = self.chain[pos]
            rows = [list(r) for r in base.context.space.basis()]
            if self.cyclic and pos == self.stable:
                rows += self.loop_rows
            self._contexts[pos] = fp.QuotientContext(base.dim, 2, rows)
        return self._contexts[pos]

    def _extend_chain(self):
        G = self.G
        z_next = G.mul(self.zs[-1], self.zs[-1])
        nxt = fz_data(G, z_next)
        self.maps.append(self._square_matrix(self.chain[-1], nxt))
        self.chain.append(nxt)
        self.zs.append(z_next)

    def matches(self, z):
        return gcl.same_class(self.G, z, self.z0)

    def insert_entry(self, z, h, tbit=0):
        """Raw (position, vector) of the image of an F(z)-generator."""
        G = self.G
        src = fz_data(G, z)
        vec = src.coord(h, tbit)
        for _ in range(self.MAX_CHAIN):
            hit = gcl.power_conj_search(G, z, self.zs)
            if hit is not None:
                break
            if self.cyclic:
                raise ArfError("element class does not match this summand")
            self._extend_chain()
        else:
            raise ArfError("element class does not match this summand")
        a, j, x, eps = hit
        # x (z^(2^a))^eps x^-1 = chain[j].z; F(w) and F(w^-1) share coords
        cur = src
        for _ in range(a):
            nz = G.mul(cur.z, cur.z)
            nxt = fz_data(G, nz)
            vec = _apply_matrix(self._square_matrix(cur, nxt), vec)
            cur = nxt
        vec = _apply_matrix(self._conj_matrix(cur, self.chain[j], x), vec)
        pos = j
        while pos < self.stable:
            vec = _apply_matrix(self.maps[pos], vec)
            pos += 1
        if self.cyclic and pos > self.stable:
            # ride the cycle back to the base point
            while pos < len(self.maps):
                vec = _apply_matrix(self.maps[pos], vec)
                pos += 1
            vec = _apply_matrix(self.cycle_close, vec)
            pos = self.stable
        return (pos, vec)

    def resolve(self, entries):
        """Combine raw entries into a canonical reduced vector (appending
        a position marker when the colimit is read off a deep position)."""
        if not entries:
            return ("empty",)
        top = max(pos for pos, _ in entries)
        acc = fp.zeros(self.chain[top].dim)
        for pos, vec in entries:
            while pos < top:
                vec = _apply_matrix(self.maps[pos], vec)
                pos += 1
            acc = fp.add_vec(acc, vec)
        red = self._context_at(top).reduce(acc)
        if not any(red):
            return ("zero",)
        return ("at", top if not self.cyclic else self.stable, red)

    def zero(self):
        return fp.zeros(self.chain[self.stable].dim)


def _apply_matrix(matrix, vec):
    out = fp.zeros(len(matrix[0]) if matrix else 0)
    for c, col in zip(vec, matrix):
        if c % 2:
            out = fp.add_vec(out, col)
    return out


# ---------------------------------------------------------------------------
# J(G) and Upsilon


def l_of_class(G, z):
    """The colimit summand L([z])."""
    if G.is_finite or isinstance(G, SemidirectZnC2):
        table = derived(G, "lc", dict)
        key = gcl.class_key(G, z)
        lc = table.get(key)
        if lc is None:
            if G.is_finite:
                part = next(p for p in gcl.cl_partition_finite(G) if z in p)
                lc = table.setdefault(key, FiniteLc(G, part))
            else:
                lc = table.setdefault(key, SemidirectLc(G, key))
        return lc
    if isinstance(G, (PullbackCyclicGroup, PullbackDihedralGroup)):
        # the earliest match, so that racing first uses return one summand
        pool = derived(G, "pullback_lc", list)
        i = 0
        while True:
            if i == len(pool):
                pool.append(PullbackLc(G, z))
            if pool[i].matches(z):
                return pool[i]
            i += 1
    raise UpsilonUnknown(f"no L(c) machinery for family {G.family}")


class JValue:
    """An element of J(G) = sum over classes of L(c).

    The finite and lattice backends hold one reduced vector per class; the
    two-ends backend accumulates raw (position, vector) entries which are
    resolved jointly (pushed to a common chain position) on comparison."""

    def __init__(self, G):
        self.G = G
        self.parts = []   # list of [lc, class witness z, payload]

    def add_insert(self, z, h=None, tbit=0):
        lc = l_of_class(self.G, z)
        if isinstance(lc, PullbackLc):
            if h is None:
                h = self.G.identity
            entry = lc.insert_entry(z, h, tbit)
            self._accumulate(lc, z, [entry])
            return
        if h is None:
            if isinstance(lc, FiniteLc):
                vec = lc.insert(z, lc.fz[z].zero_with_t())
            else:
                vec = lc.insert_element(z, self.G.identity, tbit)
        else:
            vec = lc.insert_element(z, h, tbit)
        self._accumulate(lc, z, vec)

    def _accumulate(self, lc, z, payload):
        for part in self.parts:
            if part[0] is lc:
                if isinstance(lc, PullbackLc):
                    part[2] = part[2] + payload
                else:
                    part[2] = fp.add_vec(part[2], payload)
                return
        self.parts.append([lc, z, list(payload) if isinstance(lc, PullbackLc)
                           else payload])

    def __add__(self, other):
        out = JValue(self.G)
        out.parts = [[lc, z, (list(p) if isinstance(lc, PullbackLc) else p)]
                     for lc, z, p in self.parts]
        for lc, z, p in other.parts:
            out._accumulate(lc, z, p)
        return out

    def _resolved(self):
        out = []
        for lc, z, p in self.parts:
            if isinstance(lc, PullbackLc):
                r = lc.resolve(p)
                if r != ("empty",) and r != ("zero",):
                    out.append((lc, z, r))
            elif any(p):
                out.append((lc, z, p))
        return out

    def is_zero(self):
        return not self._resolved()

    def __eq__(self, other):
        return isinstance(other, JValue) and (self + other).is_zero()

    def nonzero_parts(self):
        return self._resolved()

    def display(self):
        parts = self._resolved()
        if not parts:
            return "0"
        out = []
        for lc, z, vec in sorted(parts, key=lambda p: self.G.key(p[1])):
            rep = gcl.class_rep_element(self.G, z)
            out.append(f"L([{self.G.format_element(rep)}]): "
                       f"{_coords_str(self.G, lc, vec)}")
        return "; ".join(out)


def _coords_str(G, lc, vec):
    if isinstance(lc, SemidirectLc):
        if lc.key == ("one",):
            return "t" if vec[0] else "0"
        names = list(G.var_names) + ["S"]
        terms = [names[i] for i, c in enumerate(vec) if c]
        return "+".join(terms) if terms else "0"
    return _vec_str(vec)


def _vec_str(vec):
    if isinstance(vec, tuple) and vec and vec[0] == "at":
        return "(" + ",".join(str(c) for c in vec[2]) + ")"
    return "(" + ",".join(str(c) for c in vec) + ")"


def upsilon_eval(expr: ArfExpression) -> JValue:
    """Upsilon(<g,h>) = [1,t] in L([1]) when gh = (gh)^-1, else
    [h] in L([gh])."""
    if expr.flavor != GROUP:
        raise ArfError("Upsilon expects group pairs")
    G = expr.context
    if not gcl.has_exact_classes(G):
        raise UpsilonUnknown(f"family {G.family} has no exact class machinery")
    val = JValue(G)
    for g, h in expr.pairs:
        z = G.mul(g, h)
        tp = gst.type_of(G, z)
        if tp == 3:
            raise ArfError("product of involutions cannot be of type 3")
        if tp == 1:
            val.add_insert(z, None, 1)
        else:
            val.add_insert(z, h)
    return val


class DistinguishResult:
    def __init__(self, verdict, witness=None, transcript=(), same_image=False):
        self.verdict = verdict            # Distinct | SameImage | Equal | Unknown
        self.witness = witness
        self.transcript = list(transcript)
        self.same_image = same_image

    def __repr__(self):
        return f"DistinguishResult({self.verdict})"


def upsilon_distinguish(e1: ArfExpression, e2: ArfExpression) -> DistinguishResult:
    """Exact coordinate comparison in J(G); for two-ends descriptors a
    SameImage verdict upgrades to Equal by injectivity.

    The primary invariant is consulted as well, although equal Upsilon
    images already force equal omega images: every single-pair image
    carries the weight bit w = 1, so per-class pair counts are determined
    mod 2."""
    if e1.context is not e2.context:
        raise ArfError("expressions over different descriptors")
    G = e1.context
    try:
        v1 = upsilon_eval(e1)
        v2 = upsilon_eval(e2)
    except UpsilonUnknown as exc:
        return DistinguishResult("Unknown", transcript=[str(exc)])
    diff = v1 + v2
    if not diff.is_zero():
        lc, z, vec = diff.nonzero_parts()[0]
        rep = gcl.class_rep_element(G, z)
        return DistinguishResult(
            "Distinct", witness=(rep, vec),
            transcript=[f"images differ in L([{G.format_element(rep)}])"])
    from .kinv import omega
    if not (omega(e1) == omega(e2)):   # pragma: no cover - see docstring
        return DistinguishResult("Distinct", witness=("omega",),
                                 transcript=["primary Arf invariants differ"])
    if G.is_two_ends:
        return DistinguishResult(
            "Equal", same_image=True,
            transcript=["equal Upsilon images; Upsilon is injective for "
                        "two-ends groups, so the elements are equal"])
    return DistinguishResult("SameImage", same_image=True,
                             transcript=["equal Upsilon images"])


# ---------------------------------------------------------------------------
# Sigma(G) summands and the eta relations (finite groups)


class SigmaSummand:
    """The eta-isomorphism target for one z:
    type 1: (G_z)_#/<z> x C2;
    type 2: (Gbar_z x_{C2} C4)_#/<[z,t^2]>;
    type 3: (G_z)_#."""

    def __init__(self, G, z):
        self.G = G
        self.z = z
        self.type = gst.type_of(G, z)
        if self.type == 1:
            sub = gst.centralizer(G, z)
            self.sharp = gst.sharp_of_subgroup(sub)
            rows = list(self.sharp.context.space.basis())
            rows.append(self.sharp.coord(z))
            self.dim = self.sharp.dim + 1
            rows = [tuple(r) + (0,) for r in rows]
            self.context = fp.QuotientContext(self.dim, 2, rows)
        elif self.type == 2:
            sub = gst.extended_centralizer(G, z)
            members = list(sub.members)
            self._w = {g: (0 if G.conj(z, g) == z else 1) for g in members}
            pairs = [(g, j) for g in members for j in range(4)
                     if self._w[g] == j % 2]
            P = table_from_mul(
                pairs,
                lambda a, b: (G.mul(a[0], b[0]), (a[1] + b[1]) % 4),
                labels=[f"{G.format_element(g)}|t^{j}" for (g, j) in pairs])
            self.P = P
            self._pair_index = {pr: i for i, pr in enumerate(pairs)}
            self.sharp = gst.sharp_of_members(P, P.elements())
            rows = list(self.sharp.context.space.basis())
            rows.append(self.sharp.coord(self._pair_index[(z, 2)]))
            self.dim = self.sharp.dim
            self.context = fp.QuotientContext(self.dim, 2, rows)
        else:
            sub = gst.centralizer(G, z)
            self.sharp = gst.sharp_of_subgroup(sub)
            self.dim = self.sharp.dim
            self.context = fp.QuotientContext(self.dim, 2,
                                              self.sharp.context.space.basis())

    @property
    def quotient_dim(self):
        return self.context.quotient_dim

    def eta(self, tensor_part, y1, y2):
        """Coordinates of a cycle [sum a_i (x) g_i, y1, y2]; the y's are
        (n_z, n_zinv) bit pairs over the basis (z, z^-1)."""
        G, z = self.G, self.z
        zinv = G.inv(z)
        self._check_cycle(tensor_part, y1, y2)
        if self.type == 1:
            acc = G.identity
            for a, g in tensor_part:
                if a != z:
                    raise ArfError("type-1 chains live on k[z]")
                acc = G.mul(acc, g)
            # z = z^-1: both y-slots name the same basis element of k[z]
            v = tuple(self.sharp.coord(acc)) + ((y2[0] + y2[1]) % 2,)
            return self.context.reduce(v)
        if self.type == 2:
            acc = G.identity
            n = 0
            for a, g in tensor_part:
                acc = G.mul(acc, g)
                n += self._w[g]
                if a == zinv:
                    n += 2 * self._w[g]
            n += 2 * (y1[0] + y1[1] + y2[1])
            pair = (acc, n % 4)
            return self.context.reduce(self.sharp.coord(self._pair_index[pair]))
        acc = G.identity
        for a, g in tensor_part:
            acc = G.mul(acc, g)
        acc = G.mul(acc, G.power(z, (y1[0] + y1[1] + y2[0])))
        return self.context.reduce(self.sharp.coord(acc))

    def _check_cycle(self, tensor_part, y1, y2):
        G, z = self.G, self.z
        zinv = G.inv(z)
        # d_10^v (a (x) g) = g^-1 a g - a;  d_01^h (y1, y2) = y2 - y2^-1
        bal = {z: 0, zinv: 0}
        for a, g in tensor_part:
            bal[G.conj(a, G.inv(g))] += 1
            bal[a] -= 1
        bal[z] += y2[0] - y2[1]
        bal[zinv] += y2[1] - y2[0]
        if self.type == 1:
            ok = bal[z] % 2 == 0
        else:
            ok = bal[z] % 2 == 0 and bal[zinv] % 2 == 0
        if not ok:
            raise ArfError("chain is not a cycle")


def sigma_summand(G, z) -> SigmaSummand:
    return SigmaSummand(G, z)


def eta_relation_elements(G, z, g1, g2):
    """The six relation families of the H_1 presentation, instantiated at
    (z; g1, g2); each entry is (tensor_part, y1, y2)."""
    zinv = G.inv(z)
    gz_members = None
    out = []
    # 1: [g1^-1 z g1 (x) g2 + z (x) g1 + z (x) g1 g2, 0, 0]
    out.append(([(G.conj(z, G.inv(g1)), g2), (z, g1), (z, G.mul(g1, g2))],
                (0, 0), (0, 0)))
    # 2: [0, z + z^-1, 0]
    out.append(([], (1, 1), (0, 0)))
    # 3: [0, z, z + z^-1]
    out.append(([], (1, 0), (1, 1)))
    # 4: [z (x) z, 0, z + z^-1]
    out.append(([(z, z)], (0, 0), (1, 1)))
    # 5: [z (x) g + z^-1 (x) g, 0, z + g^-1 z g]
    conj = G.conj(z, G.inv(g1))
    y2 = [0, 0]
    y2[0] += 1
    if conj == z:
        y2[0] += 1
    elif conj == zinv:
        y2[1] += 1
    else:
        y2 = None
    if y2 is not None:
        out.append(([(z, g1), (zinv, g1)], (0, 0), (y2[0] % 2, y2[1] % 2)))
    # 6: [z (x) (g1 + g2 + g1 g2), 0, eps]
    w1 = 0 if G.conj(z, g1) == z else 1
    w2 = 0 if G.conj(z, g2) == z else 1
    eps = (1, 1) if (w1 and w2) else (0, 0)
    out.append(([(z, g1), (z, g2), (z, G.mul(g1, g2))], (0, 0), eps))
    return out


def j_group_dimension(G):
    """dim_F2 J(G) for a finite group (cross-checked against the homology
    model Coker(1 + vartheta))."""
    total = 0
    for part in gcl.cl_partition_finite(G):
        rep = min(part, key=G.key)
        total += l_of_class(G, rep).dim
    return total
