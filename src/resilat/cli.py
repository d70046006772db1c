"""Command-line front end: eval, check, export, filters.

Exit codes: 0 success / all properties hold, 1 a property or equation
failed, 2 usage, parse, universe, or budget errors.  Output goes to
stdout and is byte-stable across runs except for the elapsed, tables_s
and checks_per_s timing fields of JSON suite reports.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass

from resilat import core, harness, structure, terms
from resilat.core import AlgebraParams
from resilat.structure import BudgetError, Window, enforce_budget

_FINITE_SUBS = frozenset({"L2", "HatLnp", "HatLn2", "HatLq"})
_SUB_ALIASES = {s.lower(): s for s in structure.SUBALGEBRA_IDS}
_TABLE_OPS = ("mul", "div", "meet", "join", "oplus")


@dataclass(frozen=True)
class CliConfig:
    n: int | None
    p: int | None
    R: int
    fmt: str | None
    force_budget: bool

    def params(self) -> AlgebraParams:
        if self.n is None or self.p is None:
            raise ValueError("this command needs both --n and --p")
        return AlgebraParams(self.n, self.p)


def _config(args: argparse.Namespace) -> CliConfig:
    n = getattr(args, "n", None)
    p = getattr(args, "p", None)
    R = getattr(args, "R", 2)
    if n is not None and n < 1:
        raise ValueError(f"--n must be positive, got {n}")
    if p is not None and p < 1:
        raise ValueError(f"--p must be positive, got {p}")
    if R < 0:
        raise ValueError(f"--R must be >= 0, got {R}")
    return CliConfig(
        n=n,
        p=p,
        R=R,
        fmt=getattr(args, "fmt", None),
        force_budget=getattr(args, "force_budget", False),
    )


def _sub_id(text: str) -> str:
    sid = _SUB_ALIASES.get(text.lower())
    if sid is None:
        raise ValueError(
            f"unknown subalgebra id {text!r}; one of {', '.join(structure.SUBALGEBRA_IDS)}"
        )
    return sid


def _parse_assignments(pairs, params: AlgebraParams) -> dict:
    env = {}
    for item in pairs:
        name, sep, literal = item.partition("=")
        if not sep:
            raise ValueError(f"bad --assign {item!r}, expected name=((m,r),a)")
        env[name.strip()] = core.parse_element(literal, params)
    return env


# ---------------------------------------------------------------------------
# Subcommands.

def cmd_eval(args: argparse.Namespace, cfg: CliConfig) -> int:
    params = cfg.params()
    env = _parse_assignments(args.assign, params)
    value = terms.eval_term(terms.parse_term(args.term), env, params)
    print(core.render_element(value))
    return 0


def _grid_points(cfg: CliConfig):
    if cfg.n is not None and cfg.p is not None:
        return ((cfg.n, cfg.p),)
    if cfg.n is None and cfg.p is None:
        return harness.DEFAULT_GRID
    raise ValueError("give both --n and --p, or neither for the default grid")


def _eq_line(eq_text: str, n: int, p: int, R: int, estimate: int, verdict,
             fmt: str) -> str:
    ce = verdict.counterexample
    if fmt == "json":
        return json.dumps(
            {
                "eq": eq_text,
                "n": n,
                "p": p,
                "R": R,
                "holds": verdict.holds,
                "checked": verdict.checked,
                "estimate": estimate,
                "counterexample": (
                    {k: core.render_element(v) for k, v in sorted(ce.items())}
                    if ce
                    else None
                ),
            }
        )
    line = (
        f"eq n={n} p={p} R={R} {'pass' if verdict.holds else 'fail'} "
        f"checks={verdict.checked}"
    )
    if ce:
        line += " counterexample " + " ".join(
            f"{k}={core.render_element(v)}" for k, v in sorted(ce.items())
        )
    return line


def cmd_check(args: argparse.Namespace, cfg: CliConfig) -> int:
    fmt = cfg.fmt or "text"
    if bool(args.suite) == bool(args.eq):
        raise ValueError("give exactly one of --suite or --eq")
    points = _grid_points(cfg)
    failed = False
    if args.suite:
        sids = [s.strip() for s in args.suite.split(",") if s.strip()]
        if not sids:
            raise ValueError(f"no suite ids in --suite {args.suite!r}")
        for k, sid in enumerate(sids):
            if sid not in harness.SUITES:
                raise ValueError(f"unknown suite {sid!r}")
            if sid in sids[:k]:
                raise ValueError(f"suite {sid!r} named twice in --suite {args.suite!r}")
        reports = harness.run_grid(
            suites=sids, grid=points, R=cfg.R, force=cfg.force_budget
        )
        for report in reports:
            print(report.json_line() if fmt == "json" else report.text_line())
            failed = failed or report.verdict == "fail"
    else:
        eq = terms.parse_equation(args.eq)
        # gate every point before printing any, so a budget stop leaves no output
        estimates = []
        for n, p in points:
            params = AlgebraParams(n, p)
            estimates.append(terms.equation_estimate(eq, params, cfg.R))
            enforce_budget("eq", params, cfg.R, estimates[-1], force=cfg.force_budget)
        for (n, p), estimate in zip(points, estimates):
            verdict = terms.check_equation(eq, AlgebraParams(n, p), cfg.R, force=True)
            print(_eq_line(args.eq, n, p, cfg.R, estimate, verdict, fmt))
            failed = failed or not verdict.holds
    return 1 if failed else 0


def _hasse_members(args: argparse.Namespace, cfg: CliConfig):
    params = cfg.params()
    if args.sub is None:
        if args.window is None:
            raise ValueError("export hasse needs --sub or --window")
        return Window(params, args.window).elements()
    sid = _sub_id(args.sub)
    if args.window is not None:
        radius = args.window
    elif sid in _FINITE_SUBS:
        radius = 0  # these subalgebras live entirely in the r=0 slice
    else:
        raise ValueError(
            f"subalgebra {sid} is infinite; bound it with --window RADIUS"
        )
    w = Window(params, radius)
    return tuple(
        a for a in w.elements() if structure.subalg_member(sid, a, args.q)
    )


def _emit_dot(elems) -> str:
    lines = ["digraph hasse {", "  rankdir=BT;"]
    for a in elems:
        lines.append(f'  "{core.render_element(a)}";')
    for i, j in structure.cover_edges(elems):
        lines.append(
            f'  "{core.render_element(elems[i])}" -> "{core.render_element(elems[j])}";'
        )
    lines.append("}")
    return "\n".join(lines)


def cmd_export(args: argparse.Namespace, cfg: CliConfig) -> int:
    if args.kind == "hasse":
        if cfg.fmt not in (None, "dot"):
            raise ValueError("export hasse emits dot; use --format dot")
        print(_emit_dot(_hasse_members(args, cfg)))
        return 0
    # Cayley table
    if cfg.fmt not in (None, "csv"):
        raise ValueError("export table emits csv; use --format csv")
    if args.sub is None:
        raise ValueError("export table needs --sub")
    sid = _sub_id(args.sub)
    if sid not in _FINITE_SUBS and args.window is None:
        raise ValueError(
            f"subalgebra {sid} is infinite; bound it with --window RADIUS"
        )
    if args.op not in _TABLE_OPS:
        raise ValueError(
            f"unknown op {args.op!r}; one of {', '.join(_TABLE_OPS)}"
        )
    params = cfg.params()
    radius = args.window if args.window is not None else 0
    members = tuple(
        a
        for a in Window(params, radius).elements()
        if structure.subalg_member(sid, a, args.q)
    )
    fn = getattr(core.REFERENCE, args.op)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = [args.op] + [core.render_element(b) for b in members]
    writer.writerow(header)
    for a in members:
        writer.writerow(
            [core.render_element(a)]
            + [core.render_element(fn(a, b)) for b in members]
        )
    sys.stdout.write(buf.getvalue())
    return 0


def cmd_filters(args: argparse.Namespace, cfg: CliConfig) -> int:
    params = cfg.params()
    a = core.parse_element(args.element, params)
    value = core.boolean_term(a)
    if value == core.ap_top(params):
        t_text = "top"
    elif value == core.ap_bot(params):
        t_text = "bot"
    else:
        t_text = core.render_element(value)
    flags = " ".join(
        f"{fid}={'yes' if structure.filter_member(fid, a) else 'no'}"
        for fid in ("Top", "FOmega", "Radical")
    )
    print(f"{core.render_element(a)}: {flags} t={t_text}")
    return 0


# ---------------------------------------------------------------------------
# Parser and entry point.

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="resilat",
        description="Exact computations in the lex-pair residuated lattices A(n,p).",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp: argparse.ArgumentParser, need_np: bool) -> None:
        sp.add_argument("--n", type=int, required=need_np,
                        help="height of the pair chain")
        sp.add_argument("--p", type=int, required=need_np,
                        help="size of the level chain")
        sp.add_argument("--R", type=int, default=2,
                        help="window radius for |r| (default 2)")
        sp.add_argument("--force-budget", action="store_true",
                        help="run even past the check-count budget")

    p_eval = sub.add_parser("eval", help="evaluate a term under an assignment")
    common(p_eval, need_np=True)
    p_eval.add_argument("term", help="term text, e.g. 'x * x'")
    p_eval.add_argument("--assign", action="append", default=[],
                        metavar="x=((m,r),a)", help="variable assignment")
    p_eval.set_defaults(func=cmd_eval)

    p_check = sub.add_parser("check", help="run suites or an equation")
    common(p_check, need_np=False)
    p_check.add_argument("--suite", help="comma-separated ids, e.g. S1,S2,S10")
    p_check.add_argument("--eq", help="equation text, e.g. 'x \\/ !(x^2) = top'")
    p_check.add_argument("--format", dest="fmt", choices=("text", "json"),
                         default=None)
    p_check.set_defaults(func=cmd_check)

    p_export = sub.add_parser("export", help="emit a Hasse diagram or Cayley table")
    common(p_export, need_np=True)
    p_export.add_argument("kind", choices=("hasse", "table"))
    p_export.add_argument("--sub", help="subalgebra id, e.g. hatLnp")
    p_export.add_argument("--q", type=int, default=None,
                          help="divisor of p for the Aq/HatLq families")
    p_export.add_argument("--window", type=int, default=None,
                          help="window radius for infinite targets")
    p_export.add_argument("--op", default="mul",
                          help="table operation: mul, div, meet, join, oplus")
    p_export.add_argument("--format", dest="fmt", choices=("dot", "csv"),
                          default=None)
    p_export.set_defaults(func=cmd_export)

    p_filters = sub.add_parser("filters", help="filter membership of an element")
    common(p_filters, need_np=True)
    p_filters.add_argument("element", help="element literal ((m,r),a) or bot/top")
    p_filters.set_defaults(func=cmd_filters)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config(args)
        return args.func(args, cfg)
    except BudgetError as exc:
        print(f"budget: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # covers parse, universe, params, assignment, and flag errors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
