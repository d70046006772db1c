"""Acceptance gate: eight release criteria, one verdict line each.

Run `pytest -s tests/test_acceptance.py` to see the lines; each test
prints `criterion N: PASS/FAIL - summary` before asserting, so a red run
still reports every criterion it reached.
"""

import contextlib
import io
import re
import time

from resilat import core, harness, structure
from resilat.core import AlgebraParams
from resilat.cli import main as cli_main
from resilat.structure import Window

P23 = AlgebraParams(2, 3)
GRID = [AlgebraParams(n, p) for n in (1, 2, 3) for p in (1, 2, 3)]


def _criterion(num: int, desc: str, ok: bool, evidence=None) -> None:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {desc}"
    print(line)
    assert ok, line if evidence is None else f"{line}\n{evidence}"


def _run_cli(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(argv)
    return code, buf.getvalue()


def test_criterion_1_axiom_grid():
    start = time.perf_counter()
    reports = harness.run_grid(
        ["S1", "S2", "S3", "S4", "S5", "S6", "S7", "S14", "S15"]
    )
    elapsed = time.perf_counter() - start
    bad = [r.text_line() for r in reports if r.verdict != "pass"]
    sizes_ok = all(len(Window(params, 2)) <= 60 for params in GRID)
    ok = not bad and sizes_ok and elapsed < 60.0
    _criterion(
        1,
        f"axiom suites S1-S7,S14,S15 exhaustive on the 3x3 grid at R=2 "
        f"({len(reports)} runs in {elapsed:.1f}s)",
        ok,
        evidence="\n".join(bad),
    )


def test_criterion_2_local_nilpotency():
    reports = harness.run_grid(["S8"])
    bad = [r.text_line() for r in reports if r.verdict != "pass"]

    # spot-check both regimes, p <= n and n < p, from the raw operations
    p32 = AlgebraParams(3, 2)
    spot_b = all(
        (core.ap_pow(a, 4) == core.ap_bot(p32))
        == (not structure.filter_member("Radical", a))
        for a in Window(p32, 2).elements()
    )
    spot_c = all(
        (core.ap_pow(a, 3) == core.ap_bot(P23))
        == (not structure.filter_member("Radical", a))
        for a in Window(P23, 2).elements()
    )
    c = core.parse_element("((1,0),2)", P23)
    cyclic = core.ap_pow(c, 2) == core.ap_inv(c)
    ok = not bad and spot_b and spot_c and cyclic
    _criterion(
        2,
        "local nilpotency on the grid; (3,2) has a^(n+1) = bot off the "
        "radical, (2,3) has a^p = bot plus the cyclic witness",
        ok,
        evidence="\n".join(bad),
    )


def test_criterion_3_boolean_term():
    reports = harness.run_grid(["S10"])
    bad = [r.text_line() for r in reports if r.verdict != "pass"]
    _criterion(
        3,
        "boolean radical term lands in {bot, top}, tracks the radical, and "
        "its laws hold on the grid",
        not bad,
        evidence="\n".join(bad),
    )


def test_criterion_4_power_thresholds():
    reports = harness.run_grid(["S9"])
    bad = [r.text_line() for r in reports if r.verdict != "pass"]
    c = core.parse_element("((1,0),2)", P23)
    sq = core.ap_pow(c, 2) == core.parse_element("((0,0),1)", P23)
    cube = core.ap_pow(c, 3) == core.parse_element("((2,0),0)", P23)
    ok = not bad and sq and cube
    _criterion(
        4,
        "power thresholds at k = max(n+1,p); at (2,3) the maximal "
        "non-radical element squares to ((0,0),1) and cubes to bot",
        ok,
        evidence="\n".join(bad),
    )


def test_criterion_5_structure():
    w = Window(P23, 2)
    classes = len(structure.quotient_classes(w, "FOmega"))
    ten = classes == 10 == structure.hat_size(P23)
    booleans = all(
        structure.boolean_elements(Window(params, 2))
        == {core.ap_bot(params), core.ap_top(params)}
        for params in GRID
    )
    closed = [r.text_line() for r in harness.run_grid(["S13"]) if r.verdict != "pass"]
    rad = structure.rad_quotient_report(P23, 2)
    ok = ten and booleans and not closed and rad["classes"] == P23.p + 1
    _criterion(
        5,
        f"FOmega quotient has {classes} classes at (2,3); complemented "
        f"elements are only the bounds; subalgebras window-closed; radical "
        f"quotient reports classes={rad['classes']} "
        f"(p reading {rad['equals_p']}, p+1 reading {rad['equals_p_plus_1']})",
        ok,
        evidence="\n".join(closed),
    )


def test_criterion_6_wl_bracketing():
    reports = harness.run_grid(["S16"])
    bad = [r.text_line() for r in reports if r.verdict != "pass"]
    # an S16 pass already requires the witness search to succeed; surface
    # a concrete one from a point with n >= 2
    witnesses = {
        (r.n, r.p): r.details.get("witness")
        for r in reports
        if r.n >= 2 and r.verdict == "pass"
    }
    found = any(witnesses.values())
    ok = not bad and found
    _criterion(
        6,
        f"weak law holds at k = max(n+1,p) but fails at k = n; witness at "
        f"(2,3): x = {witnesses.get((2, 3))}",
        ok,
        evidence="\n".join(bad),
    )


def test_criterion_7_mutation_sensitivity():
    caught = harness.mutation_check()
    missed = [name for name, sids in caught.items() if not sids]
    summary = ", ".join(f"{name}:{len(sids)}" for name, sids in caught.items())
    _criterion(
        7,
        f"all five operation mutations detected at (2,3) R=2 ({summary})",
        len(caught) == 5 and not missed,
        evidence=f"missed: {missed}",
    )


def test_criterion_8_cli_goldens():
    goldens = [
        (
            ["eval", "--n", "2", "--p", "3", "x*x", "--assign", "x=((1,0),2)"],
            0,
            "((0,0),1)\n",
        ),
        (
            ["check", "--n", "2", "--p", "3", "--suite", "S1"],
            0,
            "S1 residuation n=2 p=3 R=2 pass checks=39304\n",
        ),
        (
            ["check", "--n", "2", "--p", "3", "--eq", "x \\/ !(x^2) = top"],
            1,
            "eq n=2 p=3 R=2 fail checks=1 counterexample x=((0,0),0)\n",
        ),
        (
            ["filters", "--n", "2", "--p", "3", "((2,-4),3)"],
            0,
            "((2,-4),3): Top=no FOmega=yes Radical=yes t=top\n",
        ),
    ]
    problems = []
    for argv, want_code, want_out in goldens:
        first = _run_cli(argv)
        second = _run_cli(argv)
        if first != (want_code, want_out) or second != first:
            problems.append(f"{argv}: got {first!r}")

    code, out = _run_cli(
        ["export", "hasse", "--n", "2", "--p", "3", "--sub", "hatLnp"]
    )
    _, out_again = _run_cli(
        ["export", "hasse", "--n", "2", "--p", "3", "--sub", "hatLnp"]
    )
    nodes = re.findall(r'^  "([^"]+)";$', out, re.M)
    arcs = set(re.findall(r'^  "([^"]+)" -> "([^"]+)";$', out, re.M))
    if code != 0 or out != out_again or len(nodes) != 10:
        problems.append(f"hasse export: code={code} nodes={len(nodes)}")

    elems = {t: core.parse_element(t, P23) for t in nodes}
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
    if arcs != covers:
        problems.append(f"dot arcs differ from the order oracle: {arcs ^ covers}")

    _criterion(
        8,
        "CLI outputs byte-stable; the 10-node Hasse export matches the "
        "brute-force order oracle",
        not problems,
        evidence="\n".join(problems),
    )
