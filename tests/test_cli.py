import json

import pytest
from click.testing import CliRunner

from arfkit.cli import main, scenario_names


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


def test_scenarios_all_pass(runner):
    names = scenario_names()
    assert len(names) >= 7
    for name in names:
        r = runner.invoke(main, ["scenario", name])
        assert r.exit_code == 0, (name, r.output)
        assert r.output.strip().endswith("PASS")


def test_scenario_json_deterministic(runner):
    a = runner.invoke(main, ["scenario", "ch1-order24-basis", "--json"])
    b = runner.invoke(main, ["scenario", "ch1-order24-basis", "--json"])
    assert a.output == b.output
    payload = json.loads(a.output)
    assert payload["ok"] is True


@pytest.mark.parametrize("args", [
    ["classes", "builtin:nope"],
    ["homology", "HQ1", "--group-algebra", "builtin:ch1-order24"],  # DIM_GUARD
    ["arf-eval", "<S, S> +", "--invariant", "upsilon", "--group", "builtin:ch2-plane"],
])
def test_errors_are_one_line(runner, args):
    r = runner.invoke(main, args)
    assert r.exit_code == 1
    assert isinstance(r.exception, SystemExit)   # not an uncaught error
    assert "Traceback" not in r.output
    assert r.stdout == ""
    (line,) = r.stderr.splitlines()
    assert line.startswith("Error: ")
