"""Independent answers, computed by brute force from a multiplication table.

Nothing here calls arfkit: every function works on a table (a list of rows
of element indices) and on the program's answers translated to indices, so
the benchmark can check those answers against computations made apart from
the program.
Each check returns None when the answer is right and a one-line reason when
it is wrong; `self_test` plants a wrong answer for each check and requires
the check to reject it.
"""
from __future__ import annotations


class Table:
    """A finite group as a multiplication table on indices 0..n-1."""

    def __init__(self, rows):
        self.rows = [list(r) for r in rows]
        n = len(self.rows)
        self.n = n
        self.identity = next(e for e in range(n)
                             if all(self.rows[e][x] == x for x in range(n)))
        self.inv = [next(b for b in range(n) if self.rows[a][b] == self.identity)
                    for a in range(n)]

    def mul(self, a, b):
        return self.rows[a][b]

    def conj(self, g, x):
        """x g x^-1."""
        return self.rows[self.rows[x][g]][self.inv[x]]

    def conjugacy_classes(self):
        seen, out = set(), []
        for g in range(self.n):
            if g not in seen:
                orbit = frozenset(self.conj(g, x) for x in range(self.n))
                seen |= orbit
                out.append(orbit)
        return out

    def cl_partition(self):
        """Classes of the equivalence generated by g ~ g^-1, g ~ g^2 and
        g ~ x g x^-1: connected components of the graph of those moves."""
        adj = [set() for _ in range(self.n)]
        for g in range(self.n):
            moves = [self.inv[g], self.rows[g][g]]
            moves += [self.conj(g, x) for x in range(self.n)]
            for h in moves:
                adj[g].add(h)
                adj[h].add(g)
        seen, out = set(), []
        for g in range(self.n):
            if g in seen:
                continue
            comp, todo = {g}, [g]
            while todo:
                for h in adj[todo.pop()]:
                    if h not in comp:
                        comp.add(h)
                        todo.append(h)
            seen |= comp
            out.append(frozenset(comp))
        return out

    def extended_centralizer(self, z):
        """{g : g z g^-1 in {z, z^-1}}."""
        return [g for g in range(self.n) if self.conj(z, g) in (z, self.inv[z])]

    def involutions(self):
        return [g for g in range(self.n) if self.rows[g][g] == self.identity]


def class_of(partition):
    """Element index -> class number."""
    return {g: k for k, part in enumerate(partition) for g in part}


def odd_classes(table, cls, pairs):
    """Classes of cl(G) hit an odd number of times by the products a b of
    the pairs (a, b) of involutions; this is the support of omega."""
    count = {}
    for a, b in pairs:
        k = cls[table.mul(a, b)]
        count[k] = count.get(k, 0) ^ 1
    return frozenset(k for k, c in count.items() if c)


# -- checks ------------------------------------------------------------------


def check_cl_partition(table, got):
    """`got`: the program's partition, as collections of element indices."""
    want = set(table.cl_partition())
    have = {frozenset(p) for p in got}
    if have != want:
        return f"cl(G) has {len(have)} classes, brute force gives {len(want)} " \
               f"(or the same number with different members)"
    return None


def check_h0(table, h0_dim):
    n = len(table.conjugacy_classes())
    if h0_dim != n:
        return f"dim H0(F_2[G]) = {h0_dim} but G has {n} conjugacy classes"
    return None


def check_value_group(j_dim, coker_dim):
    if j_dim != coker_dim:
        return f"dim J(G) = {j_dim} but dim Coker(1 + vartheta) = {coker_dim}"
    return None


def check_omega(table, cls, pairs, reps):
    """`reps`: element indices of the program's omega value, one per class."""
    got = [cls[r] for r in reps]
    if len(set(got)) != len(got):
        return "omega lists two representatives of one class"
    want = odd_classes(table, cls, pairs)
    if frozenset(got) != want:
        return f"omega has support {sorted(got)}, pair parities give {sorted(want)}"
    return None


def check_single_pair_upsilon(npairs, is_zero):
    if npairs == 1 and is_zero:
        return "Upsilon of a single involution pair is 0"
    return None


def check_distinct(omega_differs, verdict, allowed):
    if verdict not in allowed:
        return f"verdict {verdict!r} is not one of {sorted(allowed)}"
    if omega_differs and verdict != "Distinct":
        return f"omega values differ but the verdict is {verdict!r}"
    return None


def check_equal_verdict(verdict, want):
    if verdict != want:
        return f"a rewrite of an expression was judged {verdict!r}, not {want!r}"
    return None


def check_zero(vec):
    if any(vec):
        return f"an eta-relation instance maps to {tuple(vec)}, not 0"
    return None


def check_unchanged(names, unchanged):
    """`unchanged`: for each invariant in `names`, whether it kept its value
    under a rewrite."""
    for name, same in zip(names, unchanged):
        if not same:
            return f"{name} changed under a rewrite"
    return None


# -- self-test ---------------------------------------------------------------


def _s3():
    """S3 as a table: index i + 3j stands for r^i s^j, with s r s = r^-1."""
    def mul(a, b):
        (j, i), (l, k) = divmod(a, 3), divmod(b, 3)
        return (i + (k if j == 0 else -k)) % 3 + 3 * ((j + l) % 2)
    return Table([[mul(a, b) for b in range(6)] for a in range(6)])


def self_test():
    """Plant one wrong answer per check; return the names of the trials
    that went the wrong way (an empty list means every check works)."""
    t = _s3()
    r, r2, s, rs = 1, 2, 3, 4
    parts = t.cl_partition()          # {1, s, rs, r^2 s} and {r, r^2}
    cls = class_of(parts)
    pairs = [(s, rs)]                 # s * rs = r^2: omega is [r]
    trials = {
        "cl partition accepts the right answer":
            check_cl_partition(t, parts) is None,
        "cl partition rejects merged classes":
            check_cl_partition(t, [frozenset(range(6))]) is not None,
        "cl partition rejects split classes":
            check_cl_partition(t, [{g} for g in range(6)]) is not None,
        "h0 accepts 3 classes": check_h0(t, 3) is None,
        "h0 rejects 4 classes": check_h0(t, 4) is not None,
        "omega accepts [r]": check_omega(t, cls, pairs, [r]) is None,
        "omega rejects [1]": check_omega(t, cls, pairs, [0]) is not None,
        "omega rejects 0": check_omega(t, cls, pairs, []) is not None,
        "omega rejects [r] + [r^2]": check_omega(t, cls, pairs, [r, r2]) is not None,
        "value group rejects 2 != 1": check_value_group(2, 1) is not None,
        "Upsilon rejects a zero single pair":
            check_single_pair_upsilon(1, True) is not None,
        "distinguish rejects SameImage for differing omega":
            check_distinct(True, "SameImage", {"Distinct", "SameImage"}) is not None,
        "distinguish rejects Unknown":
            check_distinct(False, "Unknown", {"Distinct", "SameImage"}) is not None,
        "rewrite verdict rejects Distinct":
            check_equal_verdict("Distinct", "SameImage") is not None,
        "eta rejects a nonzero image": check_zero((0, 1)) is not None,
        "invariants reject a change":
            check_unchanged(("omega", "Upsilon"), (True, False)) is not None,
    }
    return [name for name, ok in trials.items() if not ok]
