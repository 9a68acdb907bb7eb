"""Command-line front end.

Deterministic output; exit code 0 on success, 2 for honest Unknown or
Inconclusive results, 1 on errors.  An ArfkitError (bad input, or a refused
computation such as an algebra past the homology dimension guard) is
reported as one line on stderr, and so is a command line that click cannot
parse (a missing or unknown option, a bad choice).
"""
from __future__ import annotations

import json
import sys
from importlib import resources

import click

from . import ArfkitError, arf, k2diff, kinv, need, upsilon as ups
from .groups import classes as gcl
from .groups import core as gcore
from .homology import (algebras as halg, chains as hch, operations as hops,
                       morita as hmor)
from .rings.base import PolyRing, RingError


EXIT_UNKNOWN = 2


def _read_json(path, what, error):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise error(f"cannot read {what} {path!r}: {exc}") from exc


def load_group(spec):
    if spec.startswith("builtin:"):
        return gcore.builtin_group(spec.split(":", 1)[1])
    return gcore.group_from_json(_read_json(spec, "group file", gcore.GroupError))


RINGS = {
    "plane": k2diff.plane_ring,
    "zxy": lambda: PolyRing(["X", "Y"], coeff="Z"),
    "f2xy-inv": lambda: PolyRing(["X", "Y"], coeff="F2", laurent=True,
                                 involution="inverse"),
}


def ring_by_name(name):
    try:
        build = RINGS[name]
    except KeyError:
        raise RingError(f"unknown ring {name!r}; known rings: "
                        + ", ".join(sorted(RINGS))) from None
    return build()


# click >= 8.2 raises this usage error for a bare `arfkit`
_NO_ARGS_HELP = getattr(click.exceptions, "NoArgsIsHelpError", ())


def _one_line(exc):
    """A refusal as click's plain error: one `Error: ...` line, exit 1.  A
    usage error of click's own would print a usage block and exit 2, the
    code of an honest Unknown; its message is joined onto one line."""
    if isinstance(exc, click.UsageError):
        return click.ClickException(" ".join(exc.format_message().split()))
    return click.ClickException(str(exc))


class _Main(click.Group):
    def make_context(self, *args, **kwargs):
        try:
            return super().make_context(*args, **kwargs)
        except _NO_ARGS_HELP as exc:
            # a bare `arfkit` prints its help and exits 0, as --help does
            click.echo(exc.format_message())
            raise click.exceptions.Exit(0) from None
        except click.UsageError as exc:
            raise _one_line(exc) from exc

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (ArfkitError, click.UsageError) as exc:
            raise _one_line(exc) from exc


@click.group(cls=_Main)
def main():
    """Exact Arf-type invariants over rings with anti-structure."""


@main.command("classes")
@click.argument("group")
@click.option("--window", type=int, default=None)
@click.option("--method", type=click.Choice(["auto", "window"]), default="auto")
@click.option("--json", "as_json", is_flag=True)
def classes_cmd(group, window, method, as_json):
    """cl(G): the classes of g ~ g^-1 ~ hgh^-1 ~ g^2."""
    G = load_group(group)
    cls = gcl.cl_classes(G, window=window, method=method)
    approx = any(c.approximate for c in cls)
    if as_json:
        click.echo(json.dumps({
            "classes": [c.label() for c in cls],
            "approximate": approx}))
    else:
        click.echo(", ".join(c.label() for c in cls))
        if approx:
            click.echo("(window approximation: classes may merge at larger windows)")
    sys.exit(EXIT_UNKNOWN if approx else 0)


@main.command("involutions")
@click.argument("group")
@click.option("--window", type=int, default=None)
def involutions_cmd(group, window):
    G = load_group(group)
    out = G.involutions(window=window)
    click.echo(", ".join(G.format_element(g) for g in out))


@main.command("arf-eval")
@click.argument("expr")
@click.option("--invariant", type=click.Choice(["omega", "omega1", "total", "upsilon"]),
              required=True)
@click.option("--group", "group_spec", default=None)
@click.option("--ring", "ring_spec", default=None)
@click.option("--reduced", is_flag=True, help="parse <<a,b>> reduced generators")
@click.option("--json", "as_json", is_flag=True)
def arf_eval_cmd(expr, invariant, group_spec, ring_spec, reduced, as_json):
    """Evaluate an invariant on an expression "<w1, w2> + <w3, w4>"."""
    if group_spec:
        ctx = load_group(group_spec)
        flavor = arf.GROUP
    elif ring_spec:
        ctx = ring_by_name(ring_spec)
        flavor = arf.REDUCED if reduced else arf.RING
    else:
        raise ArfkitError("arf-eval needs one of --group/--ring")
    e = arf.parse_expression(flavor, ctx, expr)
    if invariant == "omega":
        out = kinv.omega(e).display()
    elif invariant == "omega1":
        out = kinv.omega1(e).display()
    elif invariant == "total":
        k, q = k2diff.total_invariant(e)
        out = f"({k.display()}, {q.display()})"
    else:
        try:
            out = ups.upsilon_eval(e).display()
        except ups.UpsilonUnknown as exc:
            click.echo(f"Unknown: {exc}")
            sys.exit(EXIT_UNKNOWN)
    click.echo(json.dumps({"value": out}) if as_json else out)


@main.command("derive-check")
@click.argument("group")
@click.argument("derivation", type=click.Path(exists=True))
@click.option("--json", "as_json", is_flag=True)
def derive_check_cmd(group, derivation, as_json):
    """Verify a derivation file {"start": ..., "steps": [...], "target": ...}."""
    G = load_group(group)
    data = _read_json(derivation, "derivation file", arf.ArfError)
    ok, transcript = _run_derivation(G, data)
    if as_json:
        click.echo(json.dumps({"ok": ok, "transcript": transcript}))
    else:
        for line in transcript:
            click.echo(line)
        click.echo("PASS" if ok else "FAIL")
    sys.exit(0 if ok else 1)


def _run_derivation(G, data):
    start, target, steps = (need(data, key, arf.ArfError, "derivation file", kind)
                            for key, kind in (("start", str), ("target", str),
                                              ("steps", list)))
    start = arf.parse_expression(arf.GROUP, G, start)
    target = arf.parse_expression(arf.GROUP, G, target)
    steps = arf.steps_from_json(steps)
    return arf.check_derivation(start, steps, target)


@main.command("distinguish")
@click.argument("group")
@click.argument("expr1")
@click.argument("expr2")
@click.option("--json", "as_json", is_flag=True)
def distinguish_cmd(group, expr1, expr2, as_json):
    """Exact Upsilon comparison of two expressions."""
    G = load_group(group)
    e1 = arf.parse_expression(arf.GROUP, G, expr1)
    e2 = arf.parse_expression(arf.GROUP, G, expr2)
    r = ups.upsilon_distinguish(e1, e2)
    if as_json:
        click.echo(json.dumps({"verdict": r.verdict,
                               "transcript": r.transcript}))
    else:
        click.echo(r.verdict)
        for line in r.transcript:
            click.echo("  " + line)
    sys.exit(EXIT_UNKNOWN if r.verdict == "Unknown" else 0)


@main.command("homology")
@click.argument("which", type=click.Choice(["H0", "H1", "HC0", "HC1", "HQ1"]))
@click.option("--group-algebra", "group_spec", default=None)
@click.option("--p", type=int, default=2)
@click.option("--algebra", "algebra_path", type=click.Path(exists=True), default=None)
@click.option("--json", "as_json", is_flag=True)
def homology_cmd(which, group_spec, p, algebra_path, as_json):
    """Print the dimension of a low-degree homology group."""
    if algebra_path:
        A = halg.algebra_from_json(_read_json(algebra_path, "algebra file",
                                             halg.AlgebraError))
    elif group_spec:
        A = halg.group_algebra(load_group(group_spec), p)
    else:
        raise ArfkitError("homology needs one of --algebra/--group-algebra")
    hs = hch.homology(A, which)
    if as_json:
        click.echo(json.dumps({"which": which, "dim": hs.dim}))
    else:
        click.echo(f"{which}({A.name}): dimension {hs.dim}")


@main.command("theta")
@click.argument("which", type=click.Choice(["h0", "h1"]))
@click.option("--group-algebra", "group_spec", required=True)
@click.option("--p", type=int, default=2)
@click.option("--element", default=None, help="group word for the H0 class")
def theta_cmd(which, group_spec, p, element):
    """Apply the reduced power operation to a class."""
    G = load_group(group_spec)
    A = halg.group_algebra(G, p)
    if which == "h0":
        g = G.parse_element(element or "1")
        cls = hops.space(A, "H0").class_of(A.basis_vec(g))
        out = hops.theta_p_h0(A, cls)
        click.echo(f"theta_{p}[{G.format_element(g)}] -> {A.format_vec(out.reduced())}")
    else:
        h1 = hops.space(A, "H1")
        if not h1.basis:
            click.echo("H1 = 0")
            return
        cls = h1.class_of(h1.basis[0])
        out = hops.theta_p_h1(A, cls)
        click.echo(f"theta_{p} of a basis H1 class -> HC1 vector {out.reduced()}")


@main.command("morita-check")
@click.option("--group", "group_spec", default=None,
              help="base R = F2[G]; default R = F2")
@click.option("--m", type=int, default=2)
@click.option("--levels", type=int, default=2)
def morita_check_cmd(group_spec, m, levels):
    """Verify Tr.iota = 1 and b chi + chi b = 1 - iota Tr."""
    import itertools
    R = halg.field_algebra(2) if not group_spec else \
        halg.group_algebra(load_group(group_spec), 2)
    A = halg.matrix_algebra(R, m)
    for k in range(1, levels + 1):
        for key in itertools.product(range(R.dim), repeat=k):
            if hmor.trace_chain(A, k, hmor.iota_chain(A, k, {key: 1})) != {key: 1}:
                click.echo(f"Tr.iota = 1 FAILS at level {k}")
                sys.exit(1)
        click.echo(f"Tr.iota = 1 on R^{k}: ok")
    for k in range(1, levels + 1):
        for key in itertools.product(range(A.dim), repeat=k):
            ch = {key: 1}
            lhs = hch.boundary(A, k + 1, hmor.chi(A, k, ch))
            if k > 1:
                lhs = hch.t_add(A.p, lhs, hmor.chi(A, k - 1, hch.boundary(A, k, ch)))
            rhs = hch.t_add(A.p, ch, hch.t_neg(A.p, hmor.iota_chain(
                A, k, hmor.trace_chain(A, k, ch))))
            if lhs != rhs:
                click.echo(f"homotopy identity FAILS at level {k}")
                sys.exit(1)
        click.echo(f"b chi + chi b = 1 - iota Tr on A^{k}: ok")


# ---------------------------------------------------------------------------
# scenarios


def scenario_names():
    root = resources.files("arfkit") / "scenarios"
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".json"))


def load_scenario(name):
    if name not in scenario_names():
        raise ArfkitError(f"unknown scenario {name!r}; known scenarios: "
                          + ", ".join(scenario_names()))
    path = resources.files("arfkit") / "scenarios" / f"{name}.json"
    return json.loads(path.read_text())


@main.command("scenario")
@click.argument("name", required=False)
@click.option("--list", "list_all", is_flag=True)
@click.option("--json", "as_json", is_flag=True)
def scenario_cmd(name, list_all, as_json):
    """Run a named scenario reproducing a worked example."""
    if list_all or not name:
        for n in scenario_names():
            click.echo(n)
        return
    data = load_scenario(name)
    results = run_scenario(data)
    ok = all(r["ok"] for r in results)
    if as_json:
        click.echo(json.dumps({"name": name, "ok": ok, "checks": results}))
    else:
        click.echo(f"scenario {name}: {data.get('description', '')}")
        for r in results:
            status = "ok" if r["ok"] else "FAIL"
            click.echo(f"  [{status}] {r['label']}  {r['provenance']}")
        click.echo("PASS" if ok else "FAIL")
    sys.exit(0 if ok else 1)


def run_scenario(data):
    """The results of a scenario's checks; malformed data raises an
    ArfkitError naming what is wrong."""
    G = load_group(need(data, "group", ArfkitError, "scenario", str))
    results = []
    for check in need(data, "checks", ArfkitError, "scenario", list):
        kind = need(check, "kind", ArfkitError, "scenario check", str)
        if kind not in _CHECKS:
            raise ArfkitError(f"unknown scenario check kind {kind!r}; known kinds: "
                              + ", ".join(sorted(_CHECKS)))
        ok, label = _CHECKS[kind](G, check)
        results.append({"ok": bool(ok), "label": label,
                        "provenance": check.get("provenance", "")})
    return results


def _field(obj, key, kind=object, what=None):
    """obj[key] of a scenario check (or of its part `what`)."""
    return need(obj, key, ArfkitError, what or f"{obj.get('kind')} check", kind)


def _check_classes(G, check):
    cls = gcl.cl_classes(G, window=check.get("window"))
    got = [c.label() for c in cls]
    return got == _field(check, "expect", list), f"cl(G) = {', '.join(got)}"


def _check_omega(G, check):
    expr = _field(check, "expr", str)
    val = kinv.omega(arf.parse_expression(arf.GROUP, G, expr))
    expect = kinv.omega(arf.parse_expression(arf.GROUP, G, _field(check, "expect", str)))
    return val == expect, f"omega({expr}) = {val.display()}"


def _check_omega_basis(G, check):
    vals = [kinv.omega(arf.parse_expression(arf.GROUP, G, t))
            for t in _field(check, "exprs", list)]
    distinct = all(not (vals[i] == vals[j])
                   for i in range(len(vals)) for j in range(i + 1, len(vals)))
    nonzero = all(not v.is_zero() for v in vals)
    return distinct and nonzero, "omega images independent"


def _check_derivation(G, check):
    ok, transcript = _run_derivation(G, check)
    return ok, f"derivation of {check['target']}: {len(check['steps'])} steps"


def _check_distinguish(G, check):
    e1 = arf.parse_expression(arf.GROUP, G, _field(check, "expr1", str))
    e2 = arf.parse_expression(arf.GROUP, G, _field(check, "expr2", str))
    r = ups.upsilon_distinguish(e1, e2)
    want = _field(check, "expect", str)
    ok = r.verdict == want or (want == "SameImage" and r.same_image)
    return ok, f"distinguish -> {r.verdict}"


def _check_upsilon(G, check):
    expr = _field(check, "expr", str)
    val = ups.upsilon_eval(arf.parse_expression(arf.GROUP, G, expr))
    label = f"Upsilon({expr}) = {val.display()}"
    if check.get("expect") == "zero":
        return val.is_zero(), label
    if "expect_pair" in check:
        pair = _field(check, "expect_pair", dict)
        z = G.parse_element(_field(pair, "class_of", str, "expect_pair"))
        want = ups.JValue(G)
        h = pair.get("element")
        want.add_insert(z, G.parse_element(h) if h else None, pair.get("tbit", 0))
        return val == want, label
    return not val.is_zero(), label


def _check_upsilon_table(G, check):
    """Families are given by affine exponent patterns [[ci, cj, c0], ...]
    evaluated at every (i, j) in the window.  Each family's patterns are
    read and checked once, before any instance is evaluated."""
    rng = range(-check.get("range", 3), check.get("range", 3) + 1)
    families = []
    for fam in _field(check, "families", list):
        g, h = (_table_pattern(_field(fam, key, list, "upsilon-table family"))
                for key in ("g", "h"))
        image = None if fam.get("t") else _table_pattern(
            _field(fam, "image", list, "upsilon-table family"))
        families.append((g, h, image))
    ok = True
    n = 0
    for i in rng:
        for j in rng:
            for g_pat, h_pat, image_pat in families:
                g, h = _table_element(g_pat, i, j), _table_element(h_pat, i, j)
                val = ups.upsilon_eval(arf.ArfExpression(arf.GROUP, G, [(g, h)]))
                want = ups.JValue(G)
                z = G.mul(g, h)
                if image_pat is None:
                    want.add_insert(z, None, 1)
                else:
                    want.add_insert(z, _table_element(image_pat, i, j))
                if not (val == want) or val.is_zero():
                    ok = False
                n += 1
    return ok, f"Upsilon table over {n} instances"


def _table_pattern(pattern):
    """`pattern`, once it is checked to be [[ci, cj, c0], [ci, cj, c0], s]
    with integer entries."""
    try:
        (ax, bx, cx), (ay, by, cy), s = pattern
    except (TypeError, ValueError):
        ints = False
    else:
        ints = all(type(c) is int for c in (ax, bx, cx, ay, by, cy, s))
    if not ints:
        raise ArfkitError(f"upsilon-table pattern {pattern!r} is not "
                          "[[ci, cj, c0], [ci, cj, c0], s]")
    return pattern


def _table_element(pattern, i, j):
    (ax, bx, cx), (ay, by, cy), s = pattern
    return ((ax * i + bx * j + cx, ay * i + by * j + cy), s)


def _check_lc_dim(G, check):
    class_of = _field(check, "class_of", str)
    lc = ups.l_of_class(G, G.parse_element(class_of))
    return lc.dim == _field(check, "dim", int), f"dim L([{class_of}]) = {lc.dim}"


def _check_decide(G, check):
    ring_by_name(_field(check, "ring", str))
    e = arf.parse_expression(arf.GROUP, G, _field(check, "expr", str))
    _, q = k2diff.plane_group_invariant(e)
    verdict = "Zero" if q.is_zero() else "NonZero"
    return verdict == _field(check, "expect", str), f"Omega-part of psi image: {verdict}"


def _check_homology_upsilon(G, check):
    A = halg.group_algebra(G, 2)
    cok = hops.coker_one_plus_vartheta(A)
    element = _field(check, "element", str)
    g = G.parse_element(element)
    v = cok.upsilon_pair(A.basis_vec(g), A.basis_vec(g))
    ok = any(v) == (_field(check, "expect", str) == "nonzero")
    return ok, f"homology Upsilon(<{element},{element}>) " \
               f"{'non' if any(v) else ''}zero"


_CHECKS = {
    "classes": _check_classes,
    "omega": _check_omega,
    "omega-basis": _check_omega_basis,
    "derivation": _check_derivation,
    "distinguish": _check_distinguish,
    "upsilon": _check_upsilon,
    "upsilon-table": _check_upsilon_table,
    "lc-dim": _check_lc_dim,
    "decide": _check_decide,
    "homology-upsilon": _check_homology_upsilon,
}


if __name__ == "__main__":
    main()
