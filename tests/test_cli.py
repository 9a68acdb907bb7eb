import copy
import functools
import hashlib
import json
import re

import pytest
from click.testing import CliRunner

import arfkit.groups as G
import arfkit.homology.morita as hmor
from arfkit import ArfkitError
from arfkit.cli import load_scenario, main, run_scenario, scenario_names


@pytest.fixture()
def runner():
    return CliRunner()


def test_classes_order24(runner):
    r = runner.invoke(main, ["classes", "builtin:ch1-order24"])
    assert r.exit_code == 0
    assert r.output.strip() == "[1], [X]"


def test_classes_deterministic(runner):
    a = runner.invoke(main, ["classes", "builtin:ch2-plane", "--window", "2"])
    b = runner.invoke(main, ["classes", "builtin:ch2-plane", "--window", "2"])
    assert a.output == b.output and a.exit_code == 0


def test_classes_window_only_exit_code(runner):
    r = runner.invoke(main, ["classes", "builtin:ch2-plane", "--window", "2",
                             "--method", "window"])
    assert r.exit_code == 2   # honest Unknown: approximation flagged


def test_homology_help_says_what_the_command_prints(runner):
    # the command prints the dimension only, plain or as JSON
    r = runner.invoke(main, ["homology", "--help"])
    assert r.exit_code == 0
    assert "Print the dimension of a low-degree homology group." in r.output
    assert "basis" not in r.output
    r = runner.invoke(main, ["homology", "HQ1", "--group-algebra", "builtin:c2"])
    assert r.exit_code == 0 and r.output.startswith("HQ1(") and "dimension" in r.output


def test_involutions(runner):
    r = runner.invoke(main, ["involutions", "builtin:c4"])
    assert r.exit_code == 0 and r.output.strip() == "1, g^2"


def test_arf_eval_omega(runner):
    r = runner.invoke(main, ["arf-eval", "<X^2*S, S>", "--invariant", "omega",
                             "--group", "builtin:ch1-order24"])
    assert r.exit_code == 0 and r.output.strip() == "[X]"


def test_arf_eval_upsilon(runner):
    r = runner.invoke(main, ["arf-eval", "<1, 1>", "--invariant", "upsilon",
                             "--group", "builtin:ch2-plane"])
    assert r.exit_code == 0 and r.output.strip() == "L([1]): t"


def test_arf_eval_total(runner):
    r = runner.invoke(main, ["arf-eval", "<<X, Y>>", "--invariant", "total",
                             "--ring", "zxy", "--reduced"])
    assert r.exit_code == 0 and "w:" in r.output


def test_distinguish(runner):
    r = runner.invoke(main, ["distinguish", "builtin:ch2-plane",
                             "<S, S*Y^2>", "<S*X, S*X*Y^2>"])
    assert r.exit_code == 0 and r.output.splitlines()[0] == "Distinct"


def test_derive_check(runner, tmp_path):
    data = {
        "start": "<Y^8*S, S>",
        "target": "<Y^4*S, S>",
        "steps": [
            {"relation": "Swap", "pair": 0},
            {"relation": "Absorb", "pair": 0, "params": ["Y^4*S"], "reverse": True},
            {"relation": "Swap", "pair": 0},
        ],
    }
    p = tmp_path / "chain.json"
    p.write_text(json.dumps(data))
    r = runner.invoke(main, ["derive-check", "builtin:ch1-c-by-d4", str(p)])
    assert r.exit_code == 0 and r.output.strip().endswith("PASS")


def test_homology_cmd(runner):
    r = runner.invoke(main, ["homology", "H0", "--group-algebra", "builtin:s3"])
    assert r.exit_code == 0 and "dimension 3" in r.output


def test_morita_cmd(runner):
    r = runner.invoke(main, ["morita-check", "--m", "2", "--levels", "2"])
    assert r.exit_code == 0 and "ok" in r.output


def test_morita_cmd_reports_a_failed_trace(runner, monkeypatch):
    # the check is an explicit comparison, so it also runs under python -O
    monkeypatch.setattr(hmor, "trace_chain", lambda A, k, chain: {})
    r = runner.invoke(main, ["morita-check", "--m", "2", "--levels", "2"])
    assert r.exit_code == 1
    assert r.output.strip() == "Tr.iota = 1 FAILS at level 1"


def test_scenarios_all_pass(runner):
    names = scenario_names()
    assert len(names) >= 7
    for name in names:
        r = runner.invoke(main, ["scenario", name])
        assert r.exit_code == 0, (name, r.output)
        assert r.output.strip().endswith("PASS")



def _planted(name, edit):
    data = copy.deepcopy(load_scenario(name))
    edit(data)
    return data


@pytest.mark.parametrize("make, message", [
    (lambda: {}, "scenario lacks 'group'"),
    (lambda: {"group": "builtin:c2"}, "scenario lacks 'checks'"),
    (lambda: {"group": "builtin:c2", "checks": 5}, "scenario: 'checks' is int, not list"),
    (lambda: [], "scenario is not a JSON object"),
    (lambda: _planted("hq1-c2-upsilon", lambda d: d["checks"].append(5)),
     "scenario check is not a JSON object"),
    (lambda: _planted("hq1-c2-upsilon", lambda d: d["checks"][0].update(kind="nope")),
     "unknown scenario check kind 'nope'"),
    (lambda: _planted("hq1-c2-upsilon", lambda d: d["checks"][0].pop("kind")),
     "scenario check lacks 'kind'"),
    (lambda: _planted("ch4-upsilon-table", lambda d: d["checks"][2].pop("class_of")),
     "lc-dim check lacks 'class_of'"),
    (lambda: _planted("ch4-upsilon-table", lambda d: d["checks"][2].update(dim="2")),
     "lc-dim check: 'dim' is str, not int"),
    (lambda: _planted("ch4-upsilon-table", lambda d: d["checks"][0]["expect_pair"].clear()),
     "expect_pair lacks 'class_of'"),
    (lambda: _planted("ch4-upsilon-table", lambda d: d["checks"][1]["families"][0].pop("h")),
     "upsilon-table family lacks 'h'"),
    (lambda: _planted("ch4-upsilon-table",
                      lambda d: d["checks"][1]["families"][0].update(g=[1, 2])),
     "upsilon-table pattern [1, 2] is not"),
    (lambda: _planted("ch4-upsilon-table",
                      lambda d: d["checks"][1]["families"][0].update(g=[[2, 0, "x"], [0, 2, 1], 1])),
     "upsilon-table pattern [[2, 0, 'x'], [0, 2, 1], 1] is not"),
    (lambda: _planted("ch4-upsilon-table",
                      lambda d: d["checks"][1]["families"][5].update(image=[[0, 0, 1], [0, 0, 0]])),
     "upsilon-table pattern [[0, 0, 1], [0, 0, 0]] is not"),
    (lambda: _planted("ch2-sec5-distinct", lambda d: d["checks"][1].pop("expr2")),
     "distinguish check lacks 'expr2'"),
])
def test_run_scenario_rejects_malformed_data(make, message):
    with pytest.raises(ArfkitError, match=re.escape(message)):
        run_scenario(make())


def test_scenario_json_deterministic(runner):
    a = runner.invoke(main, ["scenario", "ch1-order24-basis", "--json"])
    b = runner.invoke(main, ["scenario", "ch1-order24-basis", "--json"])
    assert a.output == b.output
    payload = json.loads(a.output)
    assert payload["ok"] is True


# sha256 of `scenario <name> --json`, taken before the two-ends and lattice
# summands moved to packed payloads; every bundled scenario is pinned
SCENARIO_PINS = {
    "ch1-d4ext-chain": "08aff7056690e5490a1465064aa47a084a21f8cd1bd1f7386a5456daf2dc3c7b",
    "ch1-order24-basis": "94a4599cdb9b93df210972ae5696ad4cb7d233fe59e6c90307581abc9c482659",
    "ch2-sec5-distinct": "94e1df19a15151cb8f16a8c3ebb80f0cf720e64617c4efce9ff75de497aaa51a",
    "ch2-sec5-equality": "8a30e449e018d6b4e871ca63d6af8fd005fb8b3df5ccb5f4411672bd686bebcc",
    "ch4-upsilon-table": "c6bb7c4032c96e4b670f49728df780418f1ed399c6cfed445cb10a025b1ddb9f",
    "ch4-xi-open": "e37590a9c660ba322021726f0965897387849d4607c834b6d91d8e1297d0e490",
    "hq1-c2-upsilon": "c94b36539020923fed5ce6c3fa9a6021b8b2a830917706a82d21977bac04dca9",
}


def test_every_scenario_is_pinned():
    assert sorted(SCENARIO_PINS) == sorted(scenario_names())


@pytest.mark.parametrize("name", sorted(SCENARIO_PINS))
def test_scenario_json_is_pinned(runner, name):
    r = runner.invoke(main, ["scenario", name, "--json"])
    assert r.exit_code == 0
    assert hashlib.sha256(r.output.encode()).hexdigest() == SCENARIO_PINS[name]


# `arf-eval --invariant omega1` on these expressions, plain and --json, in
# this order: sha256 of all outputs per group or ring, taken while group
# expressions still multiplied out their unit to compare classes
OMEGA1_EXPRESSIONS = {
    "builtin:ch1-order24": [
        "<S, X^2*S> + <S, X^2*S> + <S, X^6> + <S, X^4*S>",
        "<X^10*S, X^10*S>",
        "<1, S>",
        "<X^10*S, X^4*S> + <X^10*S, X^6> + <X^4*S, S> + <X^6*S, X^4*S>",
        "<X^6*S, 1>",
        "<X^6*S, X^6*S> + <X^6, X^4*S>",
        "<X^2*S, S>",
        "<X^4*S, X^4*S> + <X^4*S, X^2*S> + <X^6, X^10*S> + <S, S>",
    ],
    "builtin:ch1-c2-c-c12": [
        "<(1,2|y^8*s), (1,-1|y^8*s)> + <(1,-1|s), (1,2|y^8*s)> + <(1,0|y^4*s), (1,0|s)>",
        "<(1,-2|y^6*s), (1,-1|s)> + <(1,0|y^4*s), (1,1|s)>",
        "<(1,1|y^10*s), (1,-1|y^10*s)> + <(1,0|y^10*s), (1,1|y^10*s)>",
        "<(1,2|y^8*s), (1,1|y^6*s)>",
        "<(1,0|y^4*s), (1,-1|y^6*s)> + <(1,2|y^2*s), (1,1|y^2*s)> + <(1,0|y^2*s), (1,1|y^6*s)>",
        "<(1,-2|y^2*s), (1,2|y^4*s)>",
        "<(1,2|y^4*s), (1,2|y^4*s)> + <(1,-2|y^6*s), (1,-2|s)> + <(1,-2|y^6*s), (1,1|s)>",
        "<(1,1|y^8*s), (1,2|y^10*s)> + <(1,2|s), (1,1|y^10*s)> + <(1,0|s), (1,0|y^8*s)>"
        " + <(1,0|y^10*s), (1,1|y^6*s)>",
    ],
    "builtin:ch2-plane": [
        "<X^-2*Y*S, X^-1*Y^2*S> + <X^2*S, X^-2*Y^-1*S> + <X^2*Y^2*S, X*S>",
        "<X^-1*S, X*Y^-1*S>",
        "<X^2*Y^-1*S, X*Y^2*S>",
        "<Y^-1*S, X*Y^2*S> + <Y^-1*S, X^-1*Y*S> + <X^-1*S, Y*S> + <Y^-1*S, X^2*Y^-2*S>",
        "<X^-1*Y^2*S, X^2*S> + <1, Y^-1*S> + <1, Y^2*S>",
        "<X^2*Y^2*S, X^-2*Y^-1*S> + <X^-2*Y^2*S, X^2*Y^2*S> + <X^-1*Y^-1*S, X^-2*Y*S>"
        " + <X*Y^-2*S, X*Y^2*S>",
        "<Y*S, X^-2*Y*S> + <X^-2*Y^2*S, X^-2*Y^-2*S>",
        "<X^-2*Y^-1*S, X^-2*Y^-2*S>",
    ],
    "zxy": [
        "<X, X + Y>",
        "<X*Y, X^2 - Y>",
        "<Y, X*Y> + <Y, X*Y>",
        "<Y, X + Y> + <2*X, 2*X> + <X + Y, X + Y>",
        "<-3, -3> + <X*Y, X^2 - Y> + <Y, 1>",
        "<X*Y, X*Y> + <X*Y, X + Y> + <X^2 - Y, 2*X>",
        "<X*Y, 1>",
        "<2*X, 1>",
    ],
    "plane": [
        "<X*Y^-1, Y> + <1, 1>",
        "<X*Y^-1, X^2 + Y^-1> + <X*Y^-1, Y^-1>",
        "<Y^-1, Y^-1>",
        "<1, X>",
        "<X*Y, X*Y>",
        "<1, X^2 + Y^-1> + <X*Y, 1>",
        "<X*Y^-1, X*Y> + <X, 1>",
        "<X*Y, 1> + <X^2 + Y^-1, 1>",
    ],
}
OMEGA1_PINS = {
    "builtin:ch1-order24": "20aaf6cb892cf1e69603babfbe51ce1035b098eb3b21934cea7bceb4e709ee60",
    "builtin:ch1-c2-c-c12": "1e21102b9e282c5ec8f29414dded9929e828e821bfe8729df3a9dad72ffa086e",
    "builtin:ch2-plane": "178b54b3a681fa91f6ff6096d84b8bdc8c755a0cca83caea9942ad97d2958944",
    "zxy": "20b933c7da7ef3916831e928a895a63847f6efa84f426d3ece423c2d7d865bab",
    "plane": "54015bd1f2c712ea9007c51f40baf9bea81cd7bc9f8d6acf114ebc98b1f46d86",
}


@pytest.mark.parametrize("context", sorted(OMEGA1_PINS))
def test_arf_eval_omega1_is_pinned(runner, context):
    option = "--group" if context.startswith("builtin:") else "--ring"
    digest = hashlib.sha256()
    for expr in OMEGA1_EXPRESSIONS[context]:
        for extra in ([], ["--json"]):
            r = runner.invoke(main, ["arf-eval", expr, "--invariant", "omega1",
                                     option, context, *extra])
            assert r.exit_code == 0, (context, expr, r.output)
            digest.update(r.output.encode())
    assert digest.hexdigest() == OMEGA1_PINS[context]


# `theta h0` on the class of each element, by its label, then `theta h1`:
# sha256 of all outputs per group and prime
THETA_PINS = {
    ("builtin:s3", 2): "29e2721fccbfca6fd284e2501ef89a281720b7a1092545aac978f3d118e8fc02",
    ("builtin:s3", 3): "779fb87e96199c9cf9091d6754c73f64c03e38f54e26f255321cdbee590b9a03",
    ("builtin:c2", 2): "b16b3b2bb7e4a4d54e9c20e56568b9c054cef34dc75b31bc3da7913beef24a00",
    ("builtin:c2", 3): "56ca132139be0c1f0b27f95ac0072a80d86961aa68584c6cd143efa32ea0c07a",
}


@pytest.mark.parametrize("group, p", sorted(THETA_PINS))
def test_theta_is_pinned(runner, group, p):
    digest = hashlib.sha256()
    for label in G.builtin_group(group.split(":", 1)[1]).labels:
        r = runner.invoke(main, ["theta", "h0", "--group-algebra", group, "--p", str(p),
                                 "--element", label])
        assert r.exit_code == 0, (group, p, label, r.output)
        assert r.output.startswith(f"theta_{p}[{label}] -> ")
        digest.update(r.output.encode())
    r = runner.invoke(main, ["theta", "h1", "--group-algebra", group, "--p", str(p)])
    assert r.exit_code == 0, (group, p, r.output)
    digest.update(r.output.encode())
    assert digest.hexdigest() == THETA_PINS[group, p]


def test_arf_eval_over_the_inverse_involution_ring(runner):
    """The f2xy-inv ring: alpha(a) b of a symmetric pair dies in
    R/kappa(R), and <1, 1> leaves [1]."""
    for expr, out in [("<1, 1> + <X + X^-1, X + X^-1>", "[1]"),
                      ("<X*Y + X^-1*Y^-1, Y + Y^-1>", "0")]:
        r = runner.invoke(main, ["arf-eval", expr, "--invariant", "omega",
                                 "--ring", "f2xy-inv"])
        assert r.exit_code == 0 and r.output == out + "\n", (expr, r.output)


@functools.lru_cache(maxsize=None)
def _c16xc17_file():
    """C16 x C17, past the homology dimension guard, as a group file: a
    table of 272^2 entries, built once for all the cases below."""
    return json.dumps(G.abelian_group([16, 17]).to_json())


@pytest.mark.parametrize("args", [
    ["classes", "builtin:nope"],
    ["homology", "HQ1", "--group-algebra", "{tmp}/c16xc17.json"],  # DIM_GUARD
    ["arf-eval", "<S, S> +", "--invariant", "upsilon", "--group", "builtin:ch2-plane"],
    ["classes", "{tmp}/missing.json"],
    ["classes", "{tmp}/broken.json"],
    ["arf-eval", "<S, S>", "--invariant", "omega", "--ring", "nope"],
    ["derive-check", "builtin:c4", "{tmp}/broken.json"],
    ["homology", "H0", "--algebra", "{tmp}/broken.json"],
    ["scenario", "nope"],
    ["classes", "{tmp}/no_table.json"],
    ["classes", "{tmp}/text_entry.json"],
    ["derive-check", "builtin:c4", "{tmp}/empty.json"],
    ["homology", "H0", "--algebra", "{tmp}/p_only.json"],
    ["derive-check", "builtin:c4", "{tmp}/int_start.json"],
    ["derive-check", "builtin:c4", "{tmp}/int_steps.json"],
    ["homology", "H0", "--algebra", "{tmp}/int_mult.json"],
    ["derive-check", "builtin:c4", "{tmp}/text_pair.json"],
    ["derive-check", "builtin:c4", "{tmp}/int_params.json"],
    ["homology", "H0", "--algebra", "{tmp}/p4.json"],
    ["homology", "H0", "--algebra", "{tmp}/bool_mult.json"],
    ["homology", "H0", "--algebra", "{tmp}/short_unit.json"],
    ["homology", "H0", "--algebra", "{tmp}/wide_involution.json"],
    ["homology", "H0", "--algebra", "{tmp}/int_labels.json"],
    ["derive-check", "builtin:c4", "{tmp}/bool_pair.json"],
    ["classes", "{tmp}/int_table.json"],
    ["classes", "{tmp}/int_labels_table.json"],
    ["classes", "{tmp}/int_perm_generators.json"],
    ["classes", "{tmp}/text_n.json"],
    ["classes", "{tmp}/text_cap.json"],
    ["classes", "{tmp}/text_rank.json"],
    ["classes", "{tmp}/text_m.json"],
    ["classes", "{tmp}/zero_m.json"],
    ["classes", "{tmp}/zero_cap.json"],
    ["classes", "{tmp}/negative_cap.json"],
    ["classes", "{tmp}/negative_n.json"],
    ["classes", "{tmp}/foreign_name.json"],
])
def test_errors_are_one_line(runner, tmp_path, args):
    (tmp_path / "broken.json").write_text('{"family": "finite_table", ')
    (tmp_path / "no_table.json").write_text(
        '{"family": "finite_table", "labels": ["1"]}')
    (tmp_path / "text_entry.json").write_text(
        '{"family": "finite_table", "labels": ["1", "a"], '
        '"table": [[0, 1], [1, "0"]]}')
    (tmp_path / "empty.json").write_text('{}')
    (tmp_path / "p_only.json").write_text('{"p": 2}')
    (tmp_path / "c16xc17.json").write_text(_c16xc17_file())
    pb_c4 = G.pullback_cyclic_example().to_json()
    for name, data in [
            ("int_start", {"start": 5, "target": "<1,1>", "steps": []}),
            ("int_steps", {"start": "<1,1>", "target": "<1,1>", "steps": 3}),
            ("text_pair", {"start": "<1,1>", "target": "<1,1>",
                           "steps": [{"relation": "Swap", "pair": "0"}]}),
            ("int_params", {"start": "<1,1>", "target": "<1,1>",
                            "steps": [{"relation": "Swap", "params": 3}]}),
            ("int_mult", {"p": 2, "labels": ["1"], "mult": 3, "unit": [1]}),
            ("p4", {"p": 4, "labels": ["1"], "mult": [[[1]]], "unit": [1]}),
            ("bool_mult", {"p": 2, "labels": ["1"], "mult": [[[True]]], "unit": [1]}),
            ("short_unit", {"p": 2, "labels": ["1", "g"], "unit": [1],
                            "mult": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]}),
            ("wide_involution", {"p": 2, "labels": ["1"], "mult": [[[1]]],
                                 "unit": [1], "involution": [[1, 0]]}),
            ("int_labels", {"p": 2, "labels": [1], "mult": [[[1]]], "unit": [1]}),
            ("bool_pair", {"start": "<1,1>", "target": "<1,1>",
                           "steps": [{"relation": "Swap", "pair": True}]}),
            ("int_table", {"family": "finite_table", "labels": ["1"], "table": 5}),
            ("int_labels_table", {"family": "finite_table", "labels": 5, "table": [[0]]}),
            ("int_perm_generators", {"family": "finite_perm", "generators": 5, "n": 3}),
            ("text_n", {"family": "finite_perm", "generators": [[1, 0, 2]], "n": "3"}),
            ("text_cap", {"family": "finite_perm", "generators": [[1, 0, 2]], "n": 3,
                          "cap": "5"}),
            ("zero_cap", {"family": "finite_perm", "generators": [[1, 0, 2]], "n": 3, "cap": 0}),
            ("negative_cap", {"family": "finite_perm", "generators": [[1, 0, 2]], "n": 3,
                              "cap": -1}),
            ("negative_n", {"family": "finite_perm", "generators": [], "n": -2}),
            ("foreign_name", {"family": "finite_perm", "generators": [[1, 0, 2]], "n": 3,
                              "names": {"c": [1, 2, 0]}}),
            ("text_rank", {"family": "semidirect_zn_c2", "rank": "x"}),
            ("text_m", {**pb_c4, "m": "2"}),
            ("zero_m", {**pb_c4, "m": 0})]:
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
    r = runner.invoke(main, [a.format(tmp=tmp_path) for a in args])
    assert r.exit_code == 1
    assert isinstance(r.exception, SystemExit)   # not an uncaught error
    assert "Traceback" not in r.output
    assert r.stdout == ""
    (line,) = r.stderr.splitlines()
    assert line.startswith("Error: ")


def _one_error_line(r):
    """The one stderr line of a refused call, which exits 1 with no
    traceback and no stdout."""
    assert r.exit_code == 1, r.output
    assert isinstance(r.exception, SystemExit)   # not an uncaught error
    assert r.stdout == ""
    (line,) = r.stderr.splitlines()
    assert line.startswith("Error: ")
    return line


@pytest.mark.parametrize("group", ["ch2-plane", "ch1-c-by-d4", "pb-cyclic-c4"])
@pytest.mark.parametrize("command", [["homology", "H1", "--group-algebra"],
                                     ["theta", "h0", "--group-algebra"],
                                     ["morita-check", "--group"]])
def test_an_infinite_group_has_no_group_algebra(runner, tmp_path, command, group):
    spec = f"builtin:{group}"
    for _ in range(2):
        line = _one_error_line(runner.invoke(main, command + [spec]))
        family = G.builtin_group(group).family
        assert line == f"Error: {family} group is not enumerable", line
        # the same group, unnamed, from a file
        data = {**G.builtin_group(group).to_json(), "name": None}
        spec = str(tmp_path / "group.json")
        (tmp_path / "group.json").write_text(json.dumps(data))


def test_an_unnamed_group_names_its_algebra_f2_of_g(runner, tmp_path):
    data = {**G.symmetric_group(3).to_json(), "name": None}
    (tmp_path / "s3.json").write_text(json.dumps(data))
    r = runner.invoke(main, ["homology", "H1", "--group-algebra", str(tmp_path / "s3.json")])
    assert r.exit_code == 0 and r.output == "H1(F2[G]): dimension 2\n", r.output
    r = runner.invoke(main, ["homology", "H1", "--group-algebra", "builtin:s3"])
    assert r.exit_code == 0 and r.output == "H1(F2[S3]): dimension 2\n", r.output


@pytest.mark.parametrize("group, literal, shape", [
    ("pb-cyclic-c4", "(1,0|1)", "(i|label)"),
    ("pb-cyclic-c4", "(x|c)", "(i|label)"),
    ("ch1-c-by-d4", "(1,x|1)", "(eps,i|label)"),
    ("ch1-c2-c-c12", "(1.5,0|1)", "(eps,i|label)"),
    ("ch2-plane", "(a,0|1)", "(v_1,...,v_n|s)"),
    ("ch4-xyz", "(1,0,0|x)", "(v_1,...,v_n|s)"),
])
def test_foreign_literals_are_refused(runner, group, literal, shape):
    for invariant in ("omega", "upsilon"):
        r = runner.invoke(main, ["arf-eval", f"<{literal}, {literal}>", "--invariant",
                                 invariant, "--group", f"builtin:{group}"])
        line = _one_error_line(r)
        assert line.startswith(f"Error: element literal {literal!r} is not {shape}"), line


@pytest.mark.parametrize("word", ["X^a", "X^2^3", "X^"])
def test_words_with_foreign_exponents_are_refused(runner, word):
    r = runner.invoke(main, ["arf-eval", f"<{word}, S>", "--invariant", "omega",
                             "--group", "builtin:ch2-plane"])
    assert _one_error_line(r) == f"Error: exponent of {word!r} is not an integer"


def test_unknown_ring_lists_known_names(runner):
    r = runner.invoke(main, ["arf-eval", "<S, S>", "--invariant", "omega",
                             "--ring", "nope"])
    assert r.exit_code == 1
    assert "plane" in r.stderr and "zxy" in r.stderr and "f2xy-inv" in r.stderr
