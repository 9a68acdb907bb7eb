"""The group-ring evaluation of the generalized Arf invariant.

For every z the group F(z) is a quotient of the mod-squares abelianization
of its (extended) centralizer by the subgroup generated by 2-power roots,
with an extra order-two marker in the self-inverse case.  J(G) is the
colimit of the F(z) along conjugation, squaring and inversion; Upsilon
sends a pair <g,h> to [1,t] or [h] in the summand of the class of gh.

Every summand backend speaks one protocol, and JValue calls nothing else:
`insert_entry(G, z, h, tbit)` is the payload of the generator [h] (with
t-bit) of F(z), `combine(a, b)` adds two payloads, `resolve(payload)` is the
canonical value of a payload (None when it is zero) and `show(G, value)`
prints a resolved value.  A payload is a residue modulo the summand's
relations, so it is canonical as it stands: a tuple for a finite L(c), and
a packed F_2 int (bit i = coordinate i), added by XOR, for a lattice or a
two-ends one.  A resolved value is a tuple, so values print and compare as
they always have.  An Upsilon pair reads one record per element z,
(L([z]), type of z) (`_summand`), and inserts the packed F(z) generator
(`FzData.bits`, from the K_# bits of `structure.SharpSpace`); two values
compare summand by summand, with no sum built.

Every K_#, F(z), Sigma summand and finite L(c) is one exact quotient
read from homomorphism forms on generators by `formspace.FormQuotient`
(`structure.SharpSpace`, `FzData`, `FiniteLc`).  A finite L(c) builds
F(z) at the least element of each conjugacy class only, so J(G) reads one
F(z) per class, and a type-3 z and z^-1 one between them; the other
members are transported by conjugation when the summand is first inserted
into.  The lattice products use closed forms; the two-ends pull-backs
walk the squaring chain of a class until it cycles (finite-order tail,
quotient by the loop map) or the transition maps become isomorphisms
(infinite-order tail).
"""
from __future__ import annotations

import functools
import operator
import threading
import weakref

from . import fp
from .fp import xor_sum
from .arf import ArfExpression, ArfError, GROUP
from .groups import classes as gcl
from .groups import structure as gst
from .groups.core import GroupError, SemidirectZnC2
from .memo import derived, derived_entry


class UpsilonUnknown(Exception):
    """Raised when a window-approximate computation cannot decide."""


# ---------------------------------------------------------------------------
# F(z)


class FzData:
    """F(z): the K_# of the extended centralizer K = Gbar_z modulo the
    2-power roots of z; type-1 classes carry an extra t coordinate, the
    last.  Gbar_z = {g : g z g^-1 in {z, z^-1}} is the centralizer unless z
    is of type 2: when z = z^-1, or when no g inverts z.

    w[i] is 1 when sharp.elements[i] conjugates z to z^-1, which only
    happens on type-2 summands.  `forms` are the K_# ones (`SharpSpace`)
    and the t column's, an unknown of its own; `constraints` the K_# ones
    and the roots' forms.  `context`, their `formspace.FormQuotient`, is
    built on its first read only: a finite L(c) never reads it."""

    def __init__(self, G, z):
        self.z = z
        self.type = gst.type_of(G, z)
        self.sharp = sharp = _sharp_of(G, gst.extended_centralizer(G, z))
        self.w = [int(self.type == 2 and G.conj(z, g) != z) for g in sharp.elements]
        self.roots = gcl.two_power_roots(G, z)
        self.has_t = self.type == 1
        self.dim = sharp.dim + self.has_t
        self.width = sharp.width + self.has_t
        self.forms = sharp.forms + [1 << sharp.width] if self.has_t else sharp.forms
        self.constraints = sharp.constraints + [sharp.form(r) for r in self.roots]

    @functools.cached_property
    def context(self):
        from .formspace import FormQuotient     # loaded on the first build
        return FormQuotient(self.forms, self.width, self.constraints)

    def bits(self, h, tbit=0):
        """The generator [h] with t-bit, packed: bit i is coordinate i, the
        t coordinate last."""
        bits = self.sharp.bits(h)
        if self.has_t:
            return bits | (tbit & 1) << self.sharp.dim
        if tbit:
            raise ArfError("no t coordinate on this summand")
        return bits


def _sharp_of(G, sub):
    """K_# of an extended centralizer, built once per member set: a finite
    K is keyed by its members, a sub-pull-back by its e-members, on which
    alone `sharp_of_pullback` depends.  So the elements of one centralizer,
    and the positions of a squaring chain (`PullbackLc`), share it."""
    if sub.kind == "finite":
        return derived_entry(G, "sharp", sub.members, gst.sharp_of_members, G, sub.members)
    if sub.kind == "pullback":
        return derived_entry(G, "pullback_sharp", sub.e_members, gst.sharp_of_pullback, sub)
    return gst.sharp_of_subgroup(sub)


def fz_data(G, z) -> FzData:
    return derived_entry(G, "fz", z, FzData, G, z)


def _arrow_column(G, src: FzData, dst: FzData, x, i):
    """Column i of the arrow F(z) -> F(z') induced by conjugation by x, or
    of the squaring arrow F(z) -> F(z^2) when x is None: the image of
    coordinate i of src, the t coordinate last, packed."""
    if i == src.sharp.dim:
        if not dst.has_t:
            # invariant: src has t, so is of type 1, as are its square 1 and its conjugates
            raise ArfError("no t coordinate on this summand")
        return 1 << (dst.dim - 1)
    g = src.sharp.elements[i]
    if x is None:
        return dst.bits(g, src.w[i] if dst.has_t else 0)
    return dst.bits(G.conj(g, x))


def _square_matrix(src: FzData, dst: FzData):
    """Packed columns of the squaring arrow F(z) -> F(z^2)."""
    return [_arrow_column(None, src, dst, None, i) for i in range(src.dim)]


def _conj_matrix(G, src: FzData, dst: FzData, x):
    """Packed columns of the arrow F(z) -> F(z') induced by conjugation by x."""
    return [_arrow_column(G, src, dst, x, i) for i in range(src.dim)]


# ---------------------------------------------------------------------------
# L(c) backends


class _ReducedLc:
    """Shared protocol of every backend: a payload is a vector reduced
    modulo `self.context`, so it is already canonical.  It is a tuple here;
    the lattice and two-ends backends pack it (`_PackedLc`)."""

    @property
    def dim(self):
        return self.context.quotient_dim

    combine = staticmethod(fp.add_vec)

    @staticmethod
    def resolve(vec):
        return vec if any(vec) else None

    def show(self, G, vec):
        return _vec_str(vec)


class _PackedLc(_ReducedLc):
    """A payload is a packed residue (bit i = coordinate i < `width`)."""

    combine = staticmethod(operator.xor)

    def resolve(self, bits):
        return fp.unpack(bits, self.width) if bits else None


class FiniteLc(_ReducedLc):
    """L(c) for a finite group: the direct sum of the F(z), z in c, modulo
    all conjugation, squaring and inversion arrows, built on one F(r) per
    conjugacy class.

    Coordinate i of F(z) is column offset[z] + i of the `ambient` columns,
    the `members` z in `G.key` order.  R, the span of the relations, is the
    sum of those of the F(z) and, for each arrow of z (conjugation by a
    generator x of G, and squaring) and each coordinate u of F(z), the row
    u + (its image, `_arrow_column`).  `context` is their
    `formspace.FormQuotient`, so no row over the ambient columns is
    eliminated.  Conjugation is an isomorphism F(z) -> F(x z x^-1), and
    C(z), inside K_z, acts trivially on F(z): the full subcategory on one
    representative per conjugacy class is final in the diagram (S. Mac
    Lane, Categories for the Working Mathematician, IX.3), and the
    unknowns are those of the representatives alone.

    The conjugacy classes of c are read from the conjugator rows of their
    least members r (`gcl.conjugators`); each r has a block of unknowns
    carrying F(r)'s forms.  A type-3 r whose inverse has the lower key
    reads F(r^-1) in place of F(r), so an inverse pair builds one F.  It
    is the same quotient: r and r^-1 have one centralizer, which is K for
    both (type 3), so one K_#, one set of forms and w = 0; the roots of r
    are the inverses of those of r^-1, and u_(g^-1) = u_g in the
    elementary abelian K_#, so the roots' forms span the same space.  C
    below is read only through its span, and fp keeps the one reduced
    echelon form of a span, so `dim` and the residues are those of F(r).
    A member z = y r y^-1 (y = 1 for z = r, else the first x of the row of
    r at z) has K_z = y K_r y^-1, and Q sends u_g at z to the form of
    y^-1 g y in F(r), and t at z to t at r.  The
    constraints C are F(r)'s and, for each r and generator g of K_r, the
    squaring row u_g(r) + u_{y'^-1 g y'}(r') + w(g) t(r'), where
    r^2 = y' r' y'^-1 with y' read from the row of r' (and t(r) + t(r')
    when r has a t column).  So `dim` reads F of the representatives only.
    The member layout (`offset`, `ambient`, each sorted K_z with its
    columns, and `context`) is built on the first `insert_entry` or
    `context` read, over the constraints already eliminated.

    Proof that FormQuotient applies.
    - Q is onto: the columns of r carry F(r)'s forms, which span its
      unknowns (`SharpSpace`; a t column is an unknown of its own).
    - ker Q lies in R.  The rows of a composite of arrows lie in R, since
      u + psi(phi(u)) = (u + phi(u)) + (v + psi(v)) for v = phi(u) (rows
      are linear in u); and conjugation by xy is conjugation by y, then
      by x, so every x in G, a word in the generators, has its rows in R.
      Conjugation by y^-1 sends u_g at z to u_{y^-1 g y} at r, and t to t,
      which Q sends to the same forms.  So v in ker Q is, modulo R, a v' on
      the columns of the representatives with Q(v') = 0.  There Q is
      F(r)'s, on unknowns of r's own, so v' lies in the F(r) relations.
    - Q(R) = C.  Each constraint is Q of a row of R: of an F(r) relation,
      or of the squaring row of r at g, whose target u_g at r^2 has the
      form of y'^-1 g y' in F(r') (the layout's conjugator of r^2 differs
      from y' by an element of C(r'), which acts trivially, see below).
      Conversely let f be a form on the unknowns that vanishes on C.  For
      each r, phi_r(k) = f(Q(u_k at r)) is a homomorphism K_r -> F_2 that
      kills the roots of r, and f(Q(u_g at z)) = phi_r(y^-1 g y).
      - The relations of F(z): g -> phi_r(y^-1 g y) is a homomorphism on
        K_z that kills the roots of z, the y-conjugates of those of r.
      - Conjugation by x, z2 = x z x^-1 = y2 r y2^-1: c = y2^-1 x y fixes
        r, so c lies in C(r), inside K_r, and phi_r(y2^-1 (x g x^-1) y2) =
        phi_r(c (y^-1 g y) c^-1) = phi_r(y^-1 g y): C(r) acts trivially on
        K_r,#.  A t row is f(t(r)) + f(t(r)) = 0.
      - Squaring, z^2 = (y y') r' (y y')^-1, as squaring commutes with
        conjugation.  With h = y^-1 g y in K_r, f(Q(row)) =
        phi_r(h) + phi_r'(y'^-1 h y') + w(h) f(t(r')), as w_z(g) = w_r(h)
        (g moves z iff h moves r).  This is a homomorphism of h on K_r (w
        is E(r) -> E(r) / C(r) = F_2 on a type-2 r, and 0 otherwise), 0 on
        the generators of K_r by the squaring rows: it is 0.  A t row is
        f(t(r)) + f(t(r')), a constraint.
      Two cases in words.  Type 2: K = E(z), and z^-1 = x z x^-1 lies in
      the class of z; the arrow F(z) -> F(z^-1) by such an x is one more
      conjugation, with c in C(r) as above, so u_g at z^-1 and u_g at z
      both go to the form of h in F(r), through y and through y x^-1.
      Type 1: z = z^-1, so z^2 = 1 = r' with y' = 1, and the t column of z
      is carried to that of its representative r by every conjugation
      row, and on to t(1) by the squaring row of r.

    The inversion arrow of a type-3 z (u_g -> u_g in F(z^-1), a quotient
    of the same C(z)_#) adds no row.  Let z have order 2^a m with m odd,
    y = z^(2^a) and g in C(z).  g centralizes every z^(2^j), so it lies in
    each K_(z^(2^j)) with no w bit, and the composite squaring arrows give
    u_g(z) = u_g(y) and u_g(z^-1) = u_g(y^-1) modulo R.  y has odd order,
    so it is 1 or of type 2 or 3:
    - y = 1 = y^-1, and u_g(z) = u_g(z^-1);
    - y is of type 2: conjugation by an x in E(y) with x y^-1 x^-1 = y
      sends u_g(y^-1) to u_{x g x^-1}(y) = u_g(y), as x and g lie in E(y);
    - y is of type 3: F(y) = 0 = F(y^-1).  An odd-order element is a
      square, so C(y)_# is spanned by the u_d of its 2-elements d; for d of
      order 2^b and e 2^b = 1 mod m, r = y^e d has r^(2^b) = y, and
      u_r = u_d since y^e is a square.  So u_d, the image of a root, is 0.
    `FormQuotient` then gives fp's residues bit for bit, R and the column
    order being the same whichever unknowns present them.
    """

    def __init__(self, G, members):
        self.members = tuple(sorted(members, key=G.key))
        # the member layout reads G through this: the summand lives in G's
        # store, so a strong reference would keep G alive in a cycle
        self._group = weakref.ref(G)
        self._classes = {}      # r -> (the conjugator row of r, F(r), its first unknown)
        rep = {}                # member -> the representative of its class
        width = 0
        for z in self.members:
            if z not in rep:
                row = gcl.conjugators(G, z)
                zi = G.inv(z)
                # type 3 iff the row of z has no z^-1 entry; see above
                fz = fz_data(G, zi if zi not in row and G.key(zi) < G.key(z) else z)
                self._classes[z] = (row, fz, width)
                rep.update(dict.fromkeys(row, z))
                width += fz.width
        rows = []
        for r, (_, src, base) in self._classes.items():
            rows += [c << base for c in src.constraints]
            r2 = G.mul(r, r)
            row2, dst, base2 = self._classes[rep[r2]]
            yinv = G.inv(_conjugator(G, row2, rep[r2], r2))
            index2, forms2 = dst.sharp.index, dst.forms
            for k, i in enumerate(src.sharp.gens):
                image = forms2[index2[G.conj(src.sharp.elements[i], yinv)]]
                if dst.has_t and src.w[i]:
                    image ^= forms2[-1]
                rows.append(1 << base + k ^ image << base2)
            if src.has_t:
                rows.append(src.forms[-1] << base ^ forms2[-1] << base2)
        self._constraints = fp.QuotientContext(width, 2, fp.distinct(rows))

    @property
    def dim(self):
        return self._constraints.quotient_dim

    def _layout(self):
        """(offset, ambient, columns, context), built on the first read:
        columns[z] is ({g: its column}, the t column or None) for a member
        z.  Racing first reads may build it twice, but each gets the one
        stored first."""
        layout = self.__dict__.get("_laid_out")
        if layout is None:
            layout = self.__dict__.setdefault("_laid_out", self._lay_out())
        return layout

    def _lay_out(self):
        from .formspace import FormQuotient     # loaded on the first layout
        G = self._group()
        if G is None:
            raise ArfError("the group of this summand is gone")
        cls = {z: (r, row, fz, base)
               for r, (row, fz, base) in self._classes.items() for z in row}
        q, offset, columns = [], {}, {}
        for z in self.members:
            r, row, fz, base = cls[z]
            y = _conjugator(G, row, r, z)
            # K_z = y K_r y^-1 in key order, each g with the form of
            # y^-1 g y in F(r)
            pairs = sorted(((G.conj(k, y), f << base)
                            for k, f in zip(fz.sharp.elements, fz.forms)),
                           key=lambda p: G.key(p[0]))
            offset[z] = at = len(q)
            q += [f for _, f in pairs]
            tcol = None
            if fz.has_t:
                tcol = len(q)
                q.append(fz.forms[-1] << base)
            columns[z] = ({g: at + i for i, (g, _) in enumerate(pairs)}, tcol)
        return offset, len(q), columns, FormQuotient.over(q, self._constraints)

    @property
    def offset(self):
        return self._layout()[0]

    @property
    def ambient(self):
        return self._layout()[1]

    @property
    def context(self):
        return self._layout()[3]

    def insert_entry(self, G, z, h, tbit=0):
        _, ambient, columns, context = self._layout()
        index, tcol = columns[z]
        if h not in index:
            raise GroupError("element outside subgroup")
        bits = 1 << index[h]
        if tcol is not None:
            bits |= (tbit % 2) << tcol
        elif tbit:
            raise ArfError("no t coordinate on this summand")
        return fp.unpack(context.reduce_packed(bits), ambient)


def _conjugator(G, row, r, z):
    """A y with z = y r y^-1: 1 for z = r, else the first x of the
    conjugator row of r at z."""
    return G.identity if z == r else row[z][0]


class SemidirectLc(_PackedLc):
    """Closed-form L(c) for Z^n x| C2 (cross-validated by windows):
    L([1]) = C2 on t; L([v]) = F_2{x_1..x_n, S} modulo the one row
    r = (v mod 2, 0), with identity arrows.

    The residue rule.  The reduced echelon form of the span of r is r
    itself, with its pivot at r's lowest set bit; so the residue of a
    packed (h mod 2, s) is that vector, plus r when it has that bit set.
    The key's v is primitive (`_lattice_key`), so r != 0 and `dim` is
    `width - 1`; L([1]) has width 1 and dim 1.  No elimination is run."""

    def __init__(self, G, key):
        self.key = key
        if key == ("one",):
            self.width, self._row = 1, 0
        else:
            self.width, self._row = G.rank + 1, gst.parity_bits(key[1])
        self._pivot = self._row & -self._row

    @property
    def dim(self):
        return self.width - (self._row != 0)

    def insert_entry(self, G, z, h, tbit=0):
        if self.key == ("one",):
            # F(z) for type-1 z has trivial sharp part; only t survives
            return tbit & 1
        v, s = h
        bits = gst.parity_bits(v) | (s & 1) << len(v)
        return bits ^ self._row if bits & self._pivot else bits

    def show(self, G, vec):
        names = ["t"] if self.key == ("one",) else list(G.var_names) + ["S"]
        return "+".join(n for n, c in zip(names, vec) if c)


class PullbackLc(_PackedLc):
    """L(c) for a two-ends group, along the squaring chain chain[k] =
    F(z0^(2^k)) of a base point z0.

    The chain (`zs`, `chain`, `maps`, `stable`, `context`) is built in
    `__init__` and never changes after it; only the transport table grows,
    one z at a time under its lock.
    Finite-order tail (`cyclic`): the classes of the chain cycle, and the
    colimit is F at the re-entry point `stable` modulo the loop map.
    Infinite-order tail: the chain grows until its last per + 1 positions
    have one quotient dimension (per is the squaring period of the fibre
    E), and the colimit is F(chain[stable]), a period before the end;
    `dim` rests on every later map being an isomorphism too.  Each z walks
    one arrow into F(chain[stable]), once: its squarings and the
    conjugation onto the position j that `power_conj_search` hits among
    the squares z0^(2^k), then the chain maps from j to stable.  A hit at
    j >= stable is conjugated onto F(chain[stable]) itself, on either tail
    (below), so a query never reads a position past the chain.  Arrows are
    packed columns (an image is the XOR of the columns of the set bits);
    the walked ones are kept reduced modulo `context`, so a payload is one
    packed residue.

    Why equal dimensions make the maps isomorphisms.  On a chain of finite
    order z0^2 has T-exponent 0 (a finite-order element of the infinite
    cyclic or dihedral quotient squares to 1), so squaring on E gives
    z_(pre+per+1) = z_(pre+1): the chain closes as a cycle before the
    dimension test first runs, at len(chain) > pre + per + 2.  So the test runs on the
    infinite-order tail only, and every map it looks at, maps[t] for
    t >= len(chain) - per - 1, has t >= pre + 2.  There F(z_t) and
    F(z_(t+1)) are quotients K_#/R_t and K_#/R_(t+1) of one K_# (below),
    and the squaring map has unit columns.  A 2-power root of z_t is one
    of z_(t+1), so R_t lies in R_(t+1), and the map is the quotient map
    K_#/R_t -> K_#/R_(t+1).  It is onto, so equal quotient dimensions
    make it an isomorphism: a rank test of its columns in F(z_(t+1))
    decides nothing more.

    The positions share one K_# per e-member set (`_sharp_of`), since
    `sharp_of_pullback` depends on G and the e-members only.  By the
    argument below every position k >= pre has the same e-members, so an
    infinite-order tail builds its K_# once from pre on (on
    `ch1-c2-c-c12` all 7 positions of a chain share one).

    Why a hit at j > stable on a non-cyclic chain needs no step.  Such a
    z0, with E-part e, has T-exponent t != 0 (else it has finite order),
    so no z_k = z0^(2^k) is of type 1: no F has a t column, and no
    squaring arrow a w bit.  K of z_k is a sub-pull-back whose e-members,
    like the type of z_k, are read from C_E(e_k) and the set I_E(e_k) of
    x with x e_k x^-1 = e_k^-1, e_k = e^(2^k) (in the dihedral family
    also from whether hom(x) has a reflection).  A conjugator of e_k commutes with,
    or inverts, e_k^2 too, so C_E(e_k) ⊆ C_E(e_(k+1)) and
    I_E(e_k) ⊆ I_E(e_(k+1)); for k >= pre the e_k cycle with period per,
    so these are equalities.  Hence every k >= pre (stable >= pre + 2)
    has the same e-members and `sharp_of_pullback` layout, and the
    squaring arrow u_g -> u_g has unit columns.  Being well defined, it
    maps the relations of F(z_k) into those of F(z_(k+1)); being an
    isomorphism, onto them.  So F(z_j) is F(chain[stable]), coordinates
    and residues alike, and a push to a common position adds nothing.

    Why a hit at j > stable on a cyclic chain needs no step either.  Let
    z_n = z_(n-1)^2 be the square that closes the cycle, x z_n x^-1 =
    z_stable, and K_k the subgroup of F(z_k) (C, or E for type 2).
    Conjugating z_k to z_k or to z_k^-1 does the same to z_k^2, so
    C(z_k) ⊆ C(z_(k+1)) and E(z_k) ⊆ E(z_(k+1)); z_k^-1 ~ z_k gives
    z_(k+1)^-1 ~ z_(k+1), and z_n has the type of z_stable, so the types
    agree around the cycle (type 1 only on the cycle of 1, of length 1).
    So K_stable ⊆ ... ⊆ K_n = x^-1 K_stable x, where K is a sub-pull-back
    fixed by its e-members or a finite subgroup: both ends have as many
    e-members (or members), so every inclusion is an equality, and every
    position of the cycle has the same `SharpSpace` layout.  The squaring
    map u_g -> u_g then has unit columns (no w bit: a t column only on
    the cycle of 1, where w = 0).  A 2-power root of z_k is one of z_(k+1),
    so the relations grow along the cycle, and the conjugation by x maps
    those of F(z_n) onto those of F(z_stable), of the same dimension: they
    are equal too.  So F(z_j) is F(chain[stable]) for stable <= j < n, the
    loop map is the conjugation that closes the cycle, and riding on around
    the cycle from j sends u to loop(u) = u modulo the loop rows
    u + loop(u) of `context`.
    """

    MAX_CHAIN = 64

    def __init__(self, G, z0):
        self.chain = [fz_data(G, z0)]
        self.zs = [z0]
        self.maps = []      # maps[k]: F(chain[k]) -> F(chain[k+1]) columns
        self.cyclic = False
        stable = None
        loop_rows = []
        pre, per = gcl.squaring_preperiod(G.E)
        for _ in range(self.MAX_CHAIN):
            z_next = G.mul(self.zs[-1], self.zs[-1])
            nxt = fz_data(G, z_next)
            self.maps.append(_square_matrix(self.chain[-1], nxt))
            hit = None
            for j in range(len(self.zs)):
                x = gcl.conj_witness(G, z_next, self.zs[j])
                if x is not None:
                    hit = (j, x)
                    break
            if hit is not None:
                j, x = hit
                cycle_close = _conj_matrix(G, nxt, self.chain[j], x)
                loop = _compose(self.chain[j].dim, self.maps[j:] + [cycle_close])
                loop_rows = [(1 << i) ^ w for i, w in enumerate(loop)]
                stable = j
                self.cyclic = True
                break
            self.chain.append(nxt)
            self.zs.append(z_next)
            # the maps from pre on are onto, so equal dims make them
            # isomorphisms (see above)
            if len(self.chain) > pre + per + 2 and len(
                    {fz.context.quotient_dim for fz in self.chain[-per - 1:]}) == 1:
                stable = len(self.chain) - per - 1
                break
        if stable is None:
            raise UpsilonUnknown("squaring chain failed to stabilize")
        self.stable = stable
        self.width = self.chain[stable].dim
        self.context = self.chain[stable].context
        if self.cyclic:
            self.context = self.context.extended(loop_rows)
        self._transport = {}    # z -> reduced columns of its arrow
        # first queries of one z build its transport once, under this lock
        self._transport_lock = threading.Lock()

    # -- linear transport ----------------------------------------------------

    def insert_entry(self, G, z, h, tbit=0):
        """The packed residue of an F(z)-generator in F(chain[stable])."""
        cols = self._transport.get(z)
        if cols is None:
            with self._transport_lock:
                cols = self._transport.get(z)
                if cols is None:
                    cols = self._transport[z] = self._walk(G, z)
        return xor_sum(fz_data(G, z).bits(h, tbit), cols)

    def _walk(self, G, z):
        """The reduced columns of the arrow F(z) -> F(chain[stable]), built
        once per z.  Targets run ahead of the chain as z0^(2^k), elements
        only: a hit at j >= stable is conjugated onto F(chain[stable])."""
        src = fz_data(G, z)
        targets = list(self.zs)
        reach = 0 if self.cyclic else gcl.chain_reach(G, z, self.zs[0])
        while len(targets) < reach:
            targets.append(G.mul(targets[-1], targets[-1]))
        hit = gcl.power_conj_search(G, z, targets)
        if hit is None:
            raise ArfError("element class does not match this summand")
        a, j, x, eps = hit
        # x (z^(2^a))^eps x^-1 = targets[j]; F(w) and F(w^-1) share coords
        steps = []
        cur = src
        for _ in range(a):
            nxt = fz_data(G, G.mul(cur.z, cur.z))
            steps.append(_square_matrix(cur, nxt))
            cur = nxt
        # from stable on, F(targets[j]) is F(chain[stable]) on either tail
        # (see above)
        steps.append(_conj_matrix(G, cur, self.chain[min(j, self.stable)], x))
        steps += self.maps[j:self.stable]
        return [self.context.reduce_packed(c) for c in _compose(src.dim, steps)]


def _compose(dim, steps):
    """Packed columns of the composite of the arrows `steps` (each given by
    its packed columns), applied in order to F_2^dim."""
    cols = [1 << i for i in range(dim)]
    for step in steps:
        cols = [xor_sum(c, step) for c in cols]
    return cols


# ---------------------------------------------------------------------------
# J(G) and Upsilon


def _summand(G, z):
    """(L([z]), the type of z): one record per element queried, so an
    Upsilon pair reads its summand and type in one lookup."""
    return derived_entry(G, "summand", z, _summand_record, G, z)


def _summand_record(G, z):
    return l_of_class(G, z), gst.type_of(G, z)


def l_of_class(G, z):
    """The colimit summand L([z])."""
    table = derived(G, "lc", dict)
    key = gcl.class_key(G, z)
    lc = table.get(key)
    if lc is None:
        if G.is_finite:
            lc = FiniteLc(G, gcl.cl_part(G, z))
        elif isinstance(G, SemidirectZnC2):
            lc = SemidirectLc(G, key)
        else:
            lc = PullbackLc(G, z)
        lc = table.setdefault(key, lc)
    return lc


class JValue:
    """An element of J(G) = sum over classes of L(c): for each summand met,
    the class witness inserted first and the summand's payload.  Summands
    are read and displayed in the order of their class representatives."""

    def __init__(self, G):
        self.G = G
        self.parts = {}   # lc -> [class witness z, payload]

    def add_insert(self, z, h=None, tbit=0):
        """Add the generator [h] (h = 1 when None) with t-bit of F(z)."""
        lc = _summand(self.G, z)[0]
        h = self.G.identity if h is None else h
        self._accumulate(lc, z, lc.insert_entry(self.G, z, h, tbit))

    def _accumulate(self, lc, z, payload):
        part = self.parts.get(lc)
        if part is None:
            self.parts[lc] = [z, payload]
        else:
            part[1] = lc.combine(part[1], payload)

    def __add__(self, other):
        if other.G is not self.G:
            raise ArfError("values over different descriptors")
        out = JValue(self.G)
        out.parts = {lc: list(part) for lc, part in self.parts.items()}
        for lc, (z, p) in other.parts.items():
            out._accumulate(lc, z, p)
        return out

    def nonzero_parts(self):
        """(lc, class representative, resolved value) of each nonzero
        summand, least representative by `G.key` first."""
        out = []
        for lc, (z, p) in self.parts.items():
            value = lc.resolve(p)
            if value is not None:
                out.append((lc, gcl.class_rep_element(self.G, z), value))
        out.sort(key=lambda part: self.G.key(part[1]))
        return out

    def is_zero(self):
        return all(lc.resolve(p) is None for lc, (_, p) in self.parts.items())

    def __eq__(self, other):
        """Summand by summand, with no sum built; values over different
        descriptors are never equal."""
        if not isinstance(other, JValue) or other.G is not self.G:
            return False
        mine, theirs = self.parts, other.parts
        for lc, (_, p) in mine.items():
            part = theirs.get(lc)
            if lc.resolve(p if part is None else lc.combine(p, part[1])) is not None:
                return False
        return all(lc.resolve(q) is None for lc, (_, q) in theirs.items() if lc not in mine)

    def display(self):
        parts = self.nonzero_parts()
        if not parts:
            return "0"
        return "; ".join(f"L([{self.G.format_element(rep)}]): {lc.show(self.G, value)}"
                         for lc, rep, value in parts)


def _vec_str(vec):
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
        lc, tp = _summand(G, z)
        if tp == 3:
            # invariant: ArfExpression admits only involution pairs, and (gh)^-1 = h (gh) h^-1
            raise ArfError("product of involutions cannot be of type 3")
        if tp == 1:
            val._accumulate(lc, z, lc.insert_entry(G, z, G.identity, 1))
        else:
            val._accumulate(lc, z, lc.insert_entry(G, z, h))
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

    A Distinct witness is (rep, vec) for the differing summand whose class
    representative `class_rep_element` is least by `G.key`, the first
    summand `JValue.display` prints; vec is its resolved value.  So the
    witness does not depend on the order the pairs are met in, apart from
    the representative of a two-ends summand: the first element of its
    class that the pairs meet.

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
        _, rep, vec = diff.nonzero_parts()[0]
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
    type 3: (G_z)_#.

    Type 2 is read from Gbar_z, with no group built for the pair group
    P = {(g, j) : g in Gbar_z, j = w(g) mod 2}, where w(g) = 1 iff g
    inverts z.  With the section s(g) = (g, w(g)) and the central
    t = (1, 2) of order 2, s(a) s(b) = s(ab) t^(w(a) w(b)), as w is a
    homomorphism.  So P_# is the `SharpSpace` walk on the members of
    Gbar_z with the 2-cocycle carry(a, b) = w(a) w(b) and t as its last
    unknown and coordinate, and (z, t^2) = s(z) t, as w(z) = 0."""

    def __init__(self, G, z):
        from .formspace import FormQuotient     # loaded on the first build
        self.G = G
        self.z = z
        self.type = gst.type_of(G, z)
        if self.type == 1:
            # F(z)'s forms, the C2 coordinate on its t column, z in place
            # of the roots
            fz = fz_data(G, z)
            self.sharp = fz.sharp
            self.context = FormQuotient(fz.forms, fz.width,
                                        fz.sharp.constraints + [fz.sharp.form(z)])
        elif self.type == 2:
            members = list(gst.extended_centralizer(G, z).members)
            self._w = w = {g: int(G.conj(z, g) != z) for g in members}
            self._index, gens, forms, width, constraints = gst.walk(
                G, members, lambda a, b: w[a] & w[b])
            t = 1 << len(gens)
            self._tbit = 1 << len(members)
            self.context = FormQuotient(forms + [t], width,
                                        constraints + [forms[self._index[z]] ^ t])
        else:
            self.sharp = _sharp_of(G, gst.extended_centralizer(G, z))
            self.context = self.sharp.context
        self.dim = self.context.dim

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
                    # invariant: _check_cycle refused every a outside {z, z^-1} = {z}
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
            # (acc, n mod 4) = s(acc) t^((n - w(acc)) / 2), and n = w(acc)
            # mod 2, as w is a homomorphism: the t bit is bit 1 of n
            bits = 1 << self._index[acc]
            if n & 2:
                bits |= self._tbit
            return fp.unpack(self.context.reduce_packed(bits), self.dim)
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
        try:
            for a, g in tensor_part:
                bal[G.conj(a, G.inv(g))] += 1
                bal[a] -= 1
        except KeyError:
            raise ArfError("chain leaves k[z] + k[z^-1]") from None
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
    # any member of a part names its summand
    return sum(l_of_class(G, next(iter(part))).dim for part in gcl.cl_partition_finite(G))
