"""The three workloads.

Each workload is built in two steps.  The constructor turns the seed into
plain input data (tables, element tuples, relation steps); it may use a
scratch descriptor of the program to enumerate a group, and it is not
timed.  `setup()` is the timed set-up: it builds fresh descriptors from
those inputs, warms what the workload keeps warm, and returns one round of
operations.  An operation is a `run` callable (timed; all program calls
happen here) and a `check` callable that judges its result and returns
None or a one-line reason.  Every round holds the same operations, so a
run is a whole number of rounds.
"""
from __future__ import annotations

import random

import checks as ck

from arfkit import arf, cli, k2diff, kinv, upsilon as ups
from arfkit import groups as G
from arfkit import homology as H
from arfkit.groups import classes as gcl
from arfkit.rings import PolyRing


class _Deck:
    """Seeded draws from a pool, dealt from a shuffle of the whole pool and
    reshuffled when it runs out.  Every seed then draws each member about
    equally often, so the cost of a round depends far less on the seed than
    with independent draws."""

    def __init__(self, rng, pool):
        self.rng = rng
        self.pool = list(pool)
        self.left = []

    def draw(self):
        if not self.left:
            self.left = list(self.pool)
            self.rng.shuffle(self.left)
        return self.left.pop()


class Op:
    __slots__ = ("kind", "run", "check")

    def __init__(self, kind, run, check):
        self.kind = kind
        self.run = run
        self.check = check


def _table_input(Gx):
    """Elements of a finite descriptor and its multiplication table on
    their indices."""
    els = Gx.elements()
    idx = {g: i for i, g in enumerate(els)}
    rows = [[idx[Gx.mul(a, b)] for b in els] for a in els]
    return els, idx, ck.Table(rows)


# ---------------------------------------------------------------------------
# value-group-build


class ValueGroupBuild:
    """Cold J(G) and Coker(1 + vartheta) builds over the catalogue groups of
    order at most MAX_ORDER.

    The seed relabels every group: its table reaches the program with the
    elements in a seeded order, so the F_2 eliminations see their rows in a
    new order.  The seed also orders the sweep, which spreads groups of one
    size over the run instead of timing them back to back."""

    # the 14 groups of order 16 would take two thirds of a sweep (about 18 s
    # of 26 s), too long a round for every group to be timed several times
    # in a run
    MAX_ORDER = 15

    def __init__(self, seed):
        rng = random.Random(seed)
        self.inputs = [self._relabel(rng, Gx) for Gx in G.groups_upto(self.MAX_ORDER)]
        rng.shuffle(self.inputs)

    def setup(self):
        """Nothing to build ahead: every operation starts from its table."""
        return [Op("group", self._run(name, labels, table.rows), self._check(table))
                for name, labels, table in self.inputs]

    @staticmethod
    def _relabel(rng, Gx):
        els = Gx.elements()
        n = len(els)
        new = list(range(n))
        rng.shuffle(new)                      # old index -> new index
        idx = {g: i for i, g in enumerate(els)}
        labels = [None] * n
        rows = [[0] * n for _ in range(n)]
        for a in els:
            labels[new[idx[a]]] = Gx.format_element(a)
            for b in els:
                rows[new[idx[a]]][new[idx[b]]] = new[idx[Gx.mul(a, b)]]
        return Gx.name, labels, ck.Table(rows)

    @staticmethod
    def _run(name, labels, rows):
        def run():
            Gx = G.group_from_json({"family": "finite_table", "labels": labels,
                                    "table": rows, "name": name})
            parts = gcl.cl_partition_finite(Gx)
            j_dim = ups.j_group_dimension(Gx)
            A = H.group_algebra(Gx, 2)
            h0_dim = H.space(A, "H0").dim
            coker_dim = H.coker_one_plus_vartheta(A).dim
            return parts, j_dim, h0_dim, coker_dim
        return run

    @staticmethod
    def _check(table):
        def check(res):
            parts, j_dim, h0_dim, coker_dim = res
            return (ck.check_value_group(j_dim, coker_dim)
                    or ck.check_h0(table, h0_dim)
                    or ck.check_cl_partition(table, parts))
        return check


# ---------------------------------------------------------------------------
# finite-queries


class _FiniteInput:
    """One finite group of the query workload: its table and the
    brute-force data the checks use."""

    def __init__(self, Gx):
        self.name = Gx.name
        self.els, self.idx, self.table = _table_input(Gx)
        self.parts = self.table.cl_partition()
        self.cls = ck.class_of(self.parts)
        self.invs = self.table.involutions()
        self.reps = [min(c) for c in self.table.conjugacy_classes()]
        self.ext = {z: self.table.extended_centralizer(z) for z in self.reps}


def _finite_groups():
    """The 42-group catalogue and the paper's order-24 groups, as fresh
    descriptors."""
    return G.groups_upto(16) + [G.group_order24(), G.symmetric_group(4)]


def _eta_instances(t, z, g1, g2):
    """The six relation families of the H_1 presentation at (z; g1, g2),
    as (tensor part, y1, y2) over element indices."""
    zi, g1i = t.inv[z], t.inv[g1]
    g12 = t.mul(g1, g2)
    out = [
        ([(t.conj(z, g1i), g2), (z, g1), (z, g12)], (0, 0), (0, 0)),
        ([], (1, 1), (0, 0)),
        ([], (1, 0), (1, 1)),
        ([(z, z)], (0, 0), (1, 1)),
    ]
    c = t.conj(z, g1i)
    if c in (z, zi):
        y2 = (0, 0) if c == z else (1, 1)
        out.append(([(z, g1), (zi, g1)], (0, 0), y2))
    both = t.conj(z, g1) != z and t.conj(z, g2) != z
    out.append(([(z, g1), (z, g2), (z, g12)], (0, 0), (1, 1) if both else (0, 0)))
    return out


class FiniteQueries:
    """Warm queries on finite groups: Upsilon and omega of involution pairs,
    Upsilon distinguish, and SigmaSummand.eta on eta-relation instances.

    L(c) for every class and the Sigma summand of every conjugacy class are
    built in set-up, for the catalogue and the paper's order-24 groups."""

    # operations per group per round: (kind, count)
    MIX = (("upsilon", 30), ("distinguish", 6), ("distinguish-rewrite", 6),
           ("eta", 18))

    def __init__(self, seed):
        rng = random.Random(seed)
        self.groups = [_FiniteInput(Gx) for Gx in _finite_groups()]
        self.plan = []       # (group number, kind, data)
        for gi, gin in enumerate(self.groups):
            for kind, count in self.MIX:
                for k in range(count):
                    self.plan.append((gi, kind, self._draw(rng, gin, kind, k)))
        rng.shuffle(self.plan)

    @staticmethod
    def _pairs(rng, gin, n):
        return [(rng.choice(gin.invs), rng.choice(gin.invs)) for _ in range(n)]

    def _draw(self, rng, gin, kind, k):
        """Inputs of the k-th operation of a kind on a group; expressions
        have 1, 2 or 3 pairs in turn, so every seed gives the same mix."""
        t = gin.table
        n = 1 + k % 3
        if kind == "upsilon":
            return self._pairs(rng, gin, n)
        if kind == "distinguish":
            return self._pairs(rng, gin, n), self._pairs(rng, gin, n)
        if kind == "distinguish-rewrite":
            p1 = self._pairs(rng, gin, n)
            x = rng.randrange(t.n)
            k = rng.randrange(len(p1))
            p2 = list(p1)
            p2[k] = (t.conj(p1[k][0], x), t.conj(p1[k][1], x))
            return p1, p2
        z = rng.choice(gin.reps)
        g1, g2 = rng.choice(gin.ext[z]), rng.choice(gin.ext[z])
        insts = _eta_instances(t, z, g1, g2)
        return z, insts[rng.randrange(len(insts))]

    def setup(self):
        built = []
        for gin, Gx in zip(self.groups, _finite_groups()):
            for part in gcl.cl_partition_finite(Gx):
                ups.l_of_class(Gx, min(part, key=Gx.key))
            sigma = {z: ups.sigma_summand(Gx, gin.els[z]) for z in gin.reps}
            built.append((Gx, sigma))
        ops = []
        for gi, kind, data in self.plan:
            Gx, sigma = built[gi]
            ops.append(self._op(self.groups[gi], Gx, sigma, kind, data))
        return ops

    @staticmethod
    def _expr(gin, Gx, pairs):
        els = gin.els
        return arf.ArfExpression(arf.GROUP, Gx, [(els[a], els[b]) for a, b in pairs])

    @staticmethod
    def _pairs_idx(e, idx):
        """The pairs of an expression, after mod-2 cancellation, as indices."""
        return [(idx[a], idx[b]) for a, b in e.pairs]

    def _op(self, gin, Gx, sigma, kind, data):
        idx, t, cls = gin.idx, gin.table, gin.cls
        if kind == "upsilon":
            e = self._expr(gin, Gx, data)

            def run():
                return ups.upsilon_eval(e).is_zero(), kinv.omega(e).reps

            def check(res):
                is_zero, reps = res
                return (ck.check_single_pair_upsilon(len(e.pairs), is_zero)
                        or ck.check_omega(t, cls, self._pairs_idx(e, idx),
                                          [idx[r] for r in reps]))
            return Op(kind, run, check)
        if kind in ("distinguish", "distinguish-rewrite"):
            e1, e2 = (self._expr(gin, Gx, p) for p in data)

            def run():
                return ups.upsilon_distinguish(e1, e2).verdict

            if kind == "distinguish":
                differs = ck.odd_classes(t, cls, self._pairs_idx(e1, idx)) != \
                    ck.odd_classes(t, cls, self._pairs_idx(e2, idx))

                def check(verdict):
                    return ck.check_distinct(differs, verdict,
                                             {"Distinct", "SameImage"})
            else:
                def check(verdict):
                    return ck.check_equal_verdict(verdict, "SameImage")
            return Op(kind, run, check)
        z, (tensor, y1, y2) = data
        els = gin.els
        summand = sigma[z]
        tensor_els = [(els[a], els[g]) for a, g in tensor]

        def run():
            return summand.eta(tensor_els, y1, y2)
        return Op(kind, run, ck.check_zero)


# ---------------------------------------------------------------------------
# rewrite-battery

GROUP_NAMES = ("ch1-c2-c-c12", "ch1-c-by-d4", "pb-cyclic-c4", "ch2-plane",
               "ch4-xyz")
TWO_ENDS = ("ch1-c2-c-c12", "ch1-c-by-d4", "pb-cyclic-c4")
GROUP_RELATIONS = ("Swap", "Absorb", "Conj", "PowerTwo", "CentralAbsorb",
                   "FiniteOrderCancel")
RING_RELATIONS = ("Swap", "Absorb", "BilinearSplit")


def _rings():
    return {"Z[X,Y]": PolyRing(["X", "Y"], coeff="Z"), "plane": k2diff.plane_ring()}


class RewriteBattery:
    """Relation rewrites checked by every invariant, two-ends distinguish
    and the bundled scenarios, with per-element caches warmed in set-up."""

    # ch1-c2-c-c12 operations are 83 % of a round, so the median operation
    # lies near the 40th percentile of theirs, not on the step up from the
    # cheap operations
    GROUP_REWRITES = {"ch1-c2-c-c12": 160, "ch1-c-by-d4": 3, "pb-cyclic-c4": 3,
                      "ch2-plane": 3, "ch4-xyz": 3}
    RING_REWRITES = 3           # per ring
    DISTINGUISH = 4             # per two-ends group, half of them rewrites
    PAIR_POOL = 216             # pairs per group, about one round's draws

    def __init__(self, seed):
        rng = random.Random(seed)
        self.plan = []
        for name, count in self.GROUP_REWRITES.items():
            Gx = G.builtin_group(name)
            pools = self._pools(rng, Gx)
            for k in range(count):
                self.plan.append(("group-rewrite", name,
                                  self._group_rewrite(rng, Gx, pools, k)))
            if name in TWO_ENDS:
                for k in range(self.DISTINGUISH):
                    if k % 2:
                        self.plan.append(("distinguish-rewrite", name,
                                          self._group_rewrite(rng, Gx, pools, k)))
                    else:
                        n = 1 + k // 2 % 2
                        self.plan.append(("distinguish", name,
                                          (self._pairs(pools[1], n),
                                           self._pairs(pools[1], n))))
        for name, ring in _rings().items():
            for k in range(self.RING_REWRITES):
                self.plan.append(("ring-rewrite", name,
                                  self._ring_rewrite(rng, ring, k)))
        for name in cli.scenario_names():
            self.plan.append(("scenario", name, None))
        rng.shuffle(self.plan)

    @staticmethod
    def _pools(rng, Gx):
        """Involutions of the window, a deck of pairs of them, a deck of
        conjugators and the central involutions.

        The pairs are a fixed spread of all ordered pairs of window
        involutions, at most PAIR_POOL of them, the same for every seed; a
        round draws about as many pairs as the pool holds, so every seed
        evaluates nearly the same pairs, in other combinations, relations
        and order.  Cost per pair varies by more than 10x on the two-ends
        groups, and independent draws made the round's cost a matter of
        the seed."""
        invs = Gx.involutions(window=3)
        conj_pool = Gx.window_elements(2)
        centrals = [c for c in invs
                    if all(Gx.mul(c, x) == Gx.mul(x, c) for x in conj_pool)]
        pairs = [(g, h) for g in invs for h in invs]
        pairs = pairs[::-(-len(pairs) // RewriteBattery.PAIR_POOL)]
        return invs, _Deck(rng, pairs), _Deck(rng, conj_pool), centrals

    @staticmethod
    def _pairs(deck, n):
        while True:
            pairs = [deck.draw() for _ in range(n)]
            if len(set(pairs)) == n:
                return pairs

    def _group_rewrite(self, rng, Gx, pools, k):
        """(pairs, relation, pair index, params) for one applicable step.

        The k-th rewrite of a group takes its relation, its number of pairs
        and its power from k, so every seed gives the same mix; the seed
        picks the elements."""
        invs, pair_deck, conj_deck, centrals = pools
        rel = GROUP_RELATIONS[k % len(GROUP_RELATIONS)]
        npairs = 1 + k // len(GROUP_RELATIONS) % 2
        if rel == "FiniteOrderCancel":
            found = self._cancellable(rng, Gx, invs)
            if found is not None:
                return found
            rel = "Swap"
        pairs = self._pairs(pair_deck, npairs)
        e = arf.ArfExpression(arf.GROUP, Gx, pairs)
        idx = rng.randrange(len(e.pairs))
        if rel == "Conj":
            params = (conj_deck.draw(),)
        elif rel == "PowerTwo":
            params = (1 + k // (2 * len(GROUP_RELATIONS)) % 2,)
        elif rel == "CentralAbsorb":
            g, h = e.sorted_pairs()[idx]
            ok = [c for c in centrals
                  if Gx.mul(c, g) == Gx.mul(g, c) and Gx.mul(c, h) == Gx.mul(h, c)]
            if ok:
                params = (rng.choice(ok),)
            else:
                rel, params = "Swap", ()
        else:
            params = ()
        return e.sorted_pairs(), rel, idx, params

    @staticmethod
    def _cancellable(rng, Gx, invs):
        """A two-pair expression with a FiniteOrderCancel instance, found by
        seeded search (None when the search comes up empty)."""
        for _ in range(50):
            a, b, c = rng.choice(invs), rng.choice(invs), rng.choice(invs)
            if Gx.order_of(Gx.mul(a, b)) is None:
                continue
            z = Gx.mul(a, c)
            az, bz = Gx.mul(a, z), Gx.mul(b, z)
            if (a, az) == (b, bz) or Gx.mul(az, az) != Gx.identity or \
                    Gx.mul(bz, bz) != Gx.identity:
                continue
            e = arf.ArfExpression(arf.GROUP, Gx, [(a, az), (b, bz)])
            sp = e.sorted_pairs()
            i, j = sp.index((a, az)), sp.index((b, bz))
            return sp, "FiniteOrderCancel", 0, (i, j, 0)
        return None

    @staticmethod
    def _ring_elem(rng, ring):
        lo = -2 if ring.laurent else 0
        acc = ring.zero()
        for _ in range(rng.randint(1, 2)):
            e = (rng.randint(lo, 2), rng.randint(lo, 2))
            acc = ring.add(acc, ring.monomial(e, 1 if ring.p else rng.randint(-2, 2)))
        return acc

    def _ring_rewrite(self, rng, ring, k):
        elem = lambda: self._ring_elem(rng, ring)
        if ring.p == 0 and k % 10 == 0:
            # a Gamma_1 = 2R pair, droppable by relation 4
            d = elem()
            pairs, rel = [(elem(), ring.add(d, d))], "GammaDrop"
        else:
            while True:
                pairs = [(elem(), elem()) for _ in range(1 + k // 3 % 2)]
                e = arf.ArfExpression(arf.RING, ring, pairs)
                if not e.is_zero():
                    break
            rel = RING_RELATIONS[k % len(RING_RELATIONS)]
        e = arf.ArfExpression(arf.RING, ring, pairs)
        idx = rng.randrange(len(e.pairs))
        params = (elem(),) if rel == "BilinearSplit" else ()
        return e.sorted_pairs(), rel, idx, params

    def setup(self):
        groups = {name: G.builtin_group(name) for name in GROUP_NAMES}
        # L(c) summands of a two-ends group are kept in a list scanned in
        # order of creation, so the order decides what every later lookup
        # costs; build them in one seed-independent order first
        for name in TWO_ENDS:
            Gx = groups[name]
            invs = Gx.involutions(window=3)
            for z in sorted({Gx.mul(g, h) for g in invs for h in invs}, key=Gx.key):
                ups.l_of_class(Gx, z)
        rings = _rings()
        scenarios = {name: cli.load_scenario(name) for name in cli.scenario_names()}
        ops = []
        for kind, name, data in self.plan:
            if kind == "scenario":
                ops.append(self._scenario_op(scenarios[name]))
                continue
            if kind == "ring-rewrite":
                op = self._ring_op(rings[name], data)
            else:
                op = self._group_op(kind, groups[name], data)
            op.kind = f"{kind} {name}"
            ops.append(op)
        # F(z) of every product the round will evaluate, rewrites included
        for kind, name, data in self.plan:
            if name in TWO_ENDS:
                Gx = groups[name]
                for e in self._expressions(kind, Gx, data):
                    for g, h in e.pairs:
                        ups.fz_data(Gx, Gx.mul(g, h))
        return ops

    @staticmethod
    def _expressions(kind, Gx, data):
        if kind == "distinguish":
            return [arf.ArfExpression(arf.GROUP, Gx, p) for p in data]
        pairs, rel, idx, params = data
        e = arf.ArfExpression(arf.GROUP, Gx, pairs)
        return [e, arf.apply_step(e, arf.DerivationStep(rel, idx, params))]

    @staticmethod
    def _group_op(kind, Gx, data):
        if kind == "distinguish":
            e1, e2 = (arf.ArfExpression(arf.GROUP, Gx, p) for p in data)

            def run():
                return (ups.upsilon_distinguish(e1, e2).verdict,
                        kinv.omega(e1) == kinv.omega(e2))

            def check(res):
                verdict, same_omega = res
                return ck.check_distinct(not same_omega, verdict,
                                         {"Distinct", "Equal"})
            return Op(kind, run, check)
        pairs, rel, idx, params = data
        e = arf.ArfExpression(arf.GROUP, Gx, pairs)
        step = arf.DerivationStep(rel, idx, params)
        if kind == "distinguish-rewrite":
            def run():
                return ups.upsilon_distinguish(e, arf.apply_step(e, step)).verdict

            def check(verdict):
                return ck.check_equal_verdict(verdict, "Equal")
            return Op(kind, run, check)

        def run():
            e2 = arf.apply_step(e, step)
            return (kinv.omega(e) == kinv.omega(e2),
                    kinv.omega1(e) == kinv.omega1(e2),
                    ups.upsilon_eval(e) == ups.upsilon_eval(e2))
        return Op(kind, run, _unchanged("omega", "omega1", "Upsilon"))

    @staticmethod
    def _ring_op(ring, data):
        pairs, rel, idx, params = data
        e = arf.ArfExpression(arf.RING, ring, pairs)
        step = arf.DerivationStep(rel, idx, params)

        def run():
            e2 = arf.apply_step(e, step)
            return (kinv.omega(e) == kinv.omega(e2),
                    kinv.omega1(e, 2) == kinv.omega1(e2, 2),
                    k2diff.total_invariant(e) == k2diff.total_invariant(e2))
        return Op("ring-rewrite", run, _unchanged("omega", "omega1", "total invariant"))

    @staticmethod
    def _scenario_op(data):
        def run():
            return cli.run_scenario(data)

        def check(results):
            bad = [r["label"] for r in results if not r["ok"]]
            return f"scenario {data['name']}: failed {bad}" if bad else None
        return Op("scenario", run, check)


def _unchanged(*names):
    """Check of a rewrite: the comparisons are made inside the timed call,
    since equality of invariant values is exact arithmetic of the program."""
    return lambda flags: ck.check_unchanged(names, flags)


WORKLOADS = {
    "value-group-build": ValueGroupBuild,
    "finite-queries": FiniteQueries,
    "rewrite-battery": RewriteBattery,
}
