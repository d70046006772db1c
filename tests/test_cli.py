"""Exit codes and byte-frozen output of the resilat command."""

import json
import re
import subprocess
import sys

import pytest

from resilat import core
from resilat.core import AlgebraParams
from resilat.cli import main

P23 = AlgebraParams(2, 3)

HASSE_HAT_23 = """digraph hasse {
  rankdir=BT;
  "((0,0),0)";
  "((1,0),0)";
  "((2,0),0)";
  "((0,0),1)";
  "((1,0),1)";
  "((0,0),2)";
  "((1,0),2)";
  "((0,0),3)";
  "((1,0),3)";
  "((2,0),3)";
  "((0,0),0)" -> "((1,0),1)";
  "((1,0),0)" -> "((0,0),0)";
  "((1,0),0)" -> "((0,0),1)";
  "((2,0),0)" -> "((1,0),0)";
  "((0,0),1)" -> "((1,0),1)";
  "((0,0),1)" -> "((0,0),2)";
  "((1,0),1)" -> "((1,0),2)";
  "((0,0),2)" -> "((1,0),2)";
  "((0,0),2)" -> "((0,0),3)";
  "((1,0),2)" -> "((1,0),3)";
  "((0,0),3)" -> "((1,0),3)";
  "((1,0),3)" -> "((2,0),3)";
}
"""

TABLE_HAT_11 = """mul,"((0,0),0)","((1,0),0)","((0,0),1)","((1,0),1)"
"((0,0),0)","((1,0),0)","((1,0),0)","((1,0),0)","((0,0),0)"
"((1,0),0)","((1,0),0)","((1,0),0)","((1,0),0)","((1,0),0)"
"((0,0),1)","((1,0),0)","((1,0),0)","((0,0),1)","((0,0),1)"
"((1,0),1)","((0,0),0)","((1,0),0)","((0,0),1)","((1,0),1)"
"""

HASSE_CHAIN_11 = """digraph hasse {
  rankdir=BT;
  "((0,0),0)";
  "((1,0),0)";
  "((0,0),1)";
  "((1,0),1)";
  "((0,0),0)" -> "((0,0),1)";
  "((1,0),0)" -> "((0,0),0)";
  "((0,0),1)" -> "((1,0),1)";
}
"""


def run(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


# ---------------------------------------------------------------------------
# eval

def test_eval_goldens(capsys):
    cases = [
        (["eval", "--n", "2", "--p", "3", "x*x", "--assign", "x=((1,0),2)"],
         "((0,0),1)\n"),
        (["eval", "--n", "2", "--p", "3", "top * x", "--assign", "x=((0,1),3)"],
         "((0,1),3)\n"),
        (["eval", "--n", "2", "--p", "3", "x -> bot", "--assign", "x=((1,0),2)"],
         "((0,0),1)\n"),
        (["eval", "--n", "2", "--p", "3", "bot -> bot"], "((2,0),3)\n"),
    ]
    for argv, expected in cases:
        code, out, err = run(capsys, argv)
        assert (code, out, err) == (0, expected, "")


def test_eval_errors(capsys):
    unbound = ["eval", "--n", "2", "--p", "3", "x * y", "--assign", "x=top"]
    bad_literal = ["eval", "--n", "2", "--p", "3", "x", "--assign", "x=((1,0)"]
    out_of_universe = ["eval", "--n", "2", "--p", "3", "x", "--assign", "x=((3,0),1)"]
    bad_assign = ["eval", "--n", "2", "--p", "3", "x", "--assign", "x->top"]
    bad_term = ["eval", "--n", "2", "--p", "3", "x +"]
    for argv in (unbound, bad_literal, out_of_universe, bad_assign, bad_term):
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")


def test_eval_requires_params():
    with pytest.raises(SystemExit) as exc:
        main(["eval", "x"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# filters

def test_filters_goldens(capsys):
    cases = [
        ("((0,5),3)", "((0,5),3): Top=no FOmega=no Radical=yes t=top\n"),
        ("((2,-4),3)", "((2,-4),3): Top=no FOmega=yes Radical=yes t=top\n"),
        ("((2,0),3)", "((2,0),3): Top=yes FOmega=yes Radical=yes t=top\n"),
        ("((1,0),2)", "((1,0),2): Top=no FOmega=no Radical=no t=bot\n"),
        ("bot", "((2,0),0): Top=no FOmega=no Radical=no t=bot\n"),
    ]
    for literal, expected in cases:
        code, out, err = run(capsys, ["filters", "--n", "2", "--p", "3", literal])
        assert (code, out, err) == (0, expected, "")


def test_filters_rejects_bad_literals(capsys):
    code, _, err = run(capsys, ["filters", "--n", "2", "--p", "3", "((9,0),1)"])
    assert code == 2 and err.startswith("error: ")


# ---------------------------------------------------------------------------
# check

def test_check_suite_golden_line(capsys):
    code, out, _ = run(capsys, ["check", "--n", "2", "--p", "3", "--suite", "S1"])
    assert code == 0
    assert out == "S1 residuation n=2 p=3 R=2 pass checks=39304\n"


def test_check_suite_list(capsys):
    code, out, _ = run(
        capsys, ["check", "--n", "2", "--p", "3", "--suite", "S1,S2,S10"]
    )
    assert code == 0
    assert out.splitlines() == [
        "S1 residuation n=2 p=3 R=2 pass checks=39304",
        "S2 associativity n=2 p=3 R=2 pass checks=40460",
        "S10 boolean-radical-term n=2 p=3 R=2 pass checks=306",
    ]


def test_check_suite_over_the_default_grid(capsys):
    code, out, _ = run(capsys, ["check", "--suite", "S6"])
    lines = out.splitlines()
    assert code == 0
    assert len(lines) == 9
    assert lines[0] == "S6 unit-absorb n=1 p=1 R=2 pass checks=24"
    assert all(" pass " in line for line in lines)


def test_check_eq_failure_golden(capsys):
    code, out, _ = run(
        capsys,
        ["check", "--n", "2", "--p", "3", "--eq", "x \\/ !(x^2) = top"],
    )
    assert code == 1
    assert out == "eq n=2 p=3 R=2 fail checks=1 counterexample x=((0,0),0)\n"


def test_check_eq_pass(capsys):
    code, out, _ = run(
        capsys, ["check", "--n", "2", "--p", "3", "--eq", "x * y = y * x"]
    )
    assert code == 0
    assert out == "eq n=2 p=3 R=2 pass checks=1156\n"


def test_check_eq_grid(capsys):
    code, out, _ = run(capsys, ["check", "--eq", "x \\/ !(x^2) = top"])
    lines = out.splitlines()
    assert code == 1
    assert len(lines) == 9
    assert lines[0] == "eq n=1 p=1 R=2 fail checks=7 counterexample x=((0,0),1)"
    assert lines[5] == "eq n=2 p=3 R=2 fail checks=1 counterexample x=((0,0),0)"


def test_check_json_format(capsys):
    code, out, _ = run(
        capsys,
        ["check", "--n", "2", "--p", "3", "--suite", "S6", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["suite"] == "S6"
    assert payload["verdict"] == "pass"

    code, out, _ = run(
        capsys,
        ["check", "--n", "1", "--p", "1", "--eq", "x = x", "--format", "json"],
    )
    assert code == 0
    assert json.loads(out) == {
        "eq": "x = x",
        "n": 1,
        "p": 1,
        "R": 2,
        "holds": True,
        "checked": 12,
        "estimate": 12,
        "counterexample": None,
    }


def test_check_json_stable_modulo_elapsed(capsys):
    argv = ["check", "--n", "1", "--p", "2", "--suite", "S4", "--format", "json"]
    one = json.loads(run(capsys, argv)[1])
    two = json.loads(run(capsys, argv)[1])
    for payload in (one, two):
        assert isinstance(payload.pop("elapsed"), float)
        assert isinstance(payload.pop("tables_s"), float)
        assert isinstance(payload.pop("checks_per_s"), float)
    assert one == two


def test_check_usage_errors(capsys):
    code, _, err = run(capsys, ["check", "--n", "2", "--p", "3"])
    assert code == 2 and "exactly one of" in err
    code, _, err = run(
        capsys,
        ["check", "--n", "2", "--p", "3", "--suite", "S1", "--eq", "x = x"],
    )
    assert code == 2
    code, _, err = run(capsys, ["check", "--n", "2", "--p", "3", "--suite", "S99"])
    assert code == 2 and err == "error: unknown suite 'S99'\n"
    code, _, err = run(capsys, ["check", "--n", "2", "--suite", "S1"])
    assert code == 2 and "both --n and --p, or neither" in err
    code, _, err = run(capsys, ["check", "--n", "0", "--p", "3", "--suite", "S1"])
    assert code == 2


@pytest.mark.parametrize("suite", [",", " "])
def test_check_empty_suite_list_is_a_usage_error(capsys, suite):
    # a run that checked nothing must not report a pass
    code, out, err = run(capsys, ["check", "--n", "1", "--p", "1", "--suite", suite])
    assert code == 2 and out == ""
    assert err == f"error: no suite ids in --suite {suite!r}\n"


@pytest.mark.parametrize("suite", ["S6,S6", "S6, S6"])
def test_check_repeated_suite_id_is_a_usage_error(capsys, suite):
    # one suite named twice would print its line twice and run it twice
    code, out, err = run(capsys, ["check", "--n", "1", "--p", "1", "--suite", suite])
    assert code == 2 and out == ""
    assert err == f"error: suite 'S6' named twice in --suite {suite!r}\n"


def test_check_budget_env(capsys, monkeypatch):
    monkeypatch.setenv("RESILAT_BUDGET", "1")
    code, out, err = run(capsys, ["check", "--n", "2", "--p", "3", "--suite", "S1"])
    assert code == 2
    assert out == ""
    assert err == (
        "budget: S1 at n=2 p=3 R=2 needs about 39304 checks, "
        "over the budget of 1\n"
    )
    code, out, _ = run(
        capsys,
        ["check", "--n", "2", "--p", "3", "--suite", "S1", "--force-budget"],
    )
    assert code == 0
    assert out == "S1 residuation n=2 p=3 R=2 pass checks=39304\n"


def test_check_eq_budget(capsys, monkeypatch):
    monkeypatch.setenv("RESILAT_BUDGET", "10")
    argv = ["check", "--n", "3", "--p", "3", "--R", "3",
            "--eq", "x*(y*z) = (x*y)*z"]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == (
        "budget: eq at n=3 p=3 R=3 needs about 405224 checks, "
        "over the budget of 10\n"
    )
    code, out, _ = run(capsys, argv + ["--force-budget"])
    assert code == 0
    assert out == "eq n=3 p=3 R=3 pass checks=405224\n"


# ---------------------------------------------------------------------------
# export

def test_export_hasse_golden(capsys):
    argv = ["export", "hasse", "--n", "2", "--p", "3", "--sub", "hatLnp"]
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    assert out == HASSE_HAT_23
    assert run(capsys, argv)[1] == out  # byte-stable on a second run


def test_export_hasse_alias_spelling(capsys):
    lower = run(capsys, ["export", "hasse", "--n", "2", "--p", "3", "--sub", "hatlnp"])
    exact = run(capsys, ["export", "hasse", "--n", "2", "--p", "3", "--sub", "HatLnp"])
    assert lower == exact == (0, HASSE_HAT_23, "")


def test_export_hasse_window_golden(capsys):
    code, out, _ = run(capsys, ["export", "hasse", "--n", "1", "--p", "1",
                                "--window", "0"])
    assert code == 0
    assert out == HASSE_CHAIN_11


def test_export_table_golden(capsys):
    code, out, _ = run(capsys, ["export", "table", "--n", "1", "--p", "1",
                                "--sub", "hatLnp", "--op", "mul"])
    assert code == 0
    assert out == TABLE_HAT_11


def test_export_dot_matches_the_order_oracle(capsys):
    _, out, _ = run(capsys, ["export", "hasse", "--n", "2", "--p", "3",
                             "--sub", "hatLnp"])
    nodes = re.findall(r'^  "([^"]+)";$', out, re.M)
    arcs = re.findall(r'^  "([^"]+)" -> "([^"]+)";$', out, re.M)
    elems = {t: core.parse_element(t, P23) for t in nodes}
    assert len(elems) == 10

    # reported arcs must be exactly the covers of the product order
    strict = {
        (a, b)
        for a in nodes
        for b in nodes
        if a != b and core.ap_leq(elems[a], elems[b])
    }
    covers = {
        (a, b)
        for (a, b) in strict
        if not any((a, z) in strict and (z, b) in strict for z in nodes)
    }
    assert set(arcs) == covers

    # and walking the arcs recovers the full order relation
    reach = {a: {a} for a in nodes}
    for _ in nodes:
        for a, b in arcs:
            for src, seen in reach.items():
                if a in seen:
                    seen.add(b)
    walked = {(a, b) for a, seen in reach.items() for b in seen if a != b}
    assert walked == strict


def test_export_errors(capsys):
    base = ["export", "--n", "2", "--p", "3"]
    cases = [
        (base + ["hasse", "--sub", "a2"], "bound it with --window"),
        (base + ["hasse"], "needs --sub or --window"),
        (base + ["hasse", "--sub", "nope"], "unknown subalgebra id"),
        (base + ["table"], "needs --sub"),
        (base + ["table", "--sub", "hatLq"], "needs the divisor q"),
        (base + ["table", "--sub", "hatLnp", "--op", "xor"], "unknown op"),
        (base + ["table", "--sub", "hatLq", "--q", "2"], "does not divide"),
        (base + ["hasse", "--sub", "hatLnp", "--format", "csv"], "emits dot"),
        (base + ["table", "--sub", "hatLnp", "--format", "dot"], "emits csv"),
    ]
    for argv, fragment in cases:
        code, out, err = run(capsys, argv)
        assert code == 2, argv
        assert fragment in err


def test_export_infinite_sub_with_a_window(capsys):
    code, out, _ = run(capsys, ["export", "hasse", "--n", "2", "--p", "3",
                                "--sub", "a2", "--window", "1"])
    assert code == 0
    assert len(re.findall(r'^  "[^"]+";$', out, re.M)) == 14


# ---------------------------------------------------------------------------
# process-level smoke

def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "resilat", "eval", "--n", "2", "--p", "3",
         "x*x", "--assign", "x=((1,0),2)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "((0,0),1)\n"
