"""Command-line entry point.

Subcommands wrap the verification suites: `ktheory` for the K groups of
a finite graph, `labelled-check` for the resolving properties and
relation self-test of a labelled space, `verify-sphere` for the full
sphere-pair suite at a given size and truncation, `obstruction` for the
graph-enumeration sweep, `corr-check` for validating correspondence
files and morphism compatibility, and `properties` for the randomized
algebraic suites.

Exit codes: 0 all checks passed, 1 at least one check legitimately
failed, 2 unreadable input, 3 readable but inconsistent input, 4 a
configured budget was exceeded, 5 an internal error (a self-check such
as the Smith-form verification raised), reported as one
`error: internal: ...` line on stderr.  A reader that closes stdout
before the report is written (`corrkit ... | head`) also gets exit 1,
and nothing is printed: a report nobody received does not count as a
pass.

With --format json every check becomes one JSON line and a trailing
summary line carries the counts; the stream is identical for identical
inputs, and for `obstruction` regardless of --jobs.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from . import io as formats
from .correspondences import check_morphism
from .engine import Engine, tautological_checks
from .errors import BudgetError, ParseError, UnsupportedSpaceError, ValidationError
from .ktheory import k_theory
from .labelled import is_left_resolving, is_weakly_left_resolving
from .obstruction import sweep
from .properties import DEFAULT_CASES, DEFAULT_SEED, run_property_suites
from .reports import Report
from .spheres import SphereConfig, verify_sphere_suite

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_BUDGET = 4
EXIT_INTERNAL = 5


def _at_least(minimum: int):
    """An argparse `type` for an integer flag with a floor: a value
    below `minimum` is a usage error (exit 2) naming the floor."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value
    return parse


def _add_format(sp) -> None:
    sp.add_argument("--format", choices=("text", "json"), default="text",
                    help="text lines or newline-delimited JSON records")


def _emit(rep: Report, fmt: str, lead_records=(), lead_lines=()) -> None:
    if fmt == "json":
        for rec in lead_records:
            print(json.dumps(rec, sort_keys=True, separators=(",", ":")))
        for rec in rep.to_records():
            print(json.dumps(rec, sort_keys=True, separators=(",", ":")))
    else:
        for line in lead_lines:
            print(line)
        print(rep.render())


# ------------------------------------------------------------ subcommands

def cmd_ktheory(args) -> int:
    g = formats.graph_from_json(formats.load_json(args.graph))
    res = k_theory(g)
    rep = Report("ktheory")
    rep.add("K groups computed", True, res.pair_str())
    pres = res.presentation
    lines = [res.pair_str(),
             f"presentation rows {list(pres.row_labels)} cols {list(pres.col_labels)}"]
    for row in pres.as_lists():
        lines.append("  [" + ", ".join(str(x) for x in row) + "]")
    lines.append(f"SNF diagonal: {list(res.diagonal)}")
    _emit(rep, args.format,
          lead_records=[{"record": "ktheory", **formats.ktheory_json(res)}],
          lead_lines=lines)
    return EXIT_OK


def cmd_labelled_check(args) -> int:
    doc = formats.load_json(args.space)
    space = formats.labelled_space_from_json(doc, horizon=args.trunc, budget=args.budget)
    left_ok, left_wit = is_left_resolving(space.graph)
    weak_ok, weak_wit = is_weakly_left_resolving(space)

    lines = [f"closure: {len(space.core)} sets (horizon {space.horizon})"]
    if left_ok:
        lines.append("left-resolving: true")
    else:
        lines.append(f"not left-resolving; weakly left-resolving: {str(weak_ok).lower()}")
        lines.append(f"  left-resolving witness: vertex {left_wit[0]!r} receives two "
                     f"{left_wit[1]!r} edges")
    if not weak_ok:
        lines.append(f"  weakly-left-resolving witness: {weak_wit}")

    rep = Report("labelled space")
    rep.add("closure computed", True, f"{len(space.core)} sets")
    rep.add("left-resolving decided", True, "true" if left_ok else f"false, witness {left_wit}")
    rep.add("weakly left-resolving", weak_ok,
            "" if weak_ok else f"witness {weak_wit}")
    if weak_ok:
        rep.merge(tautological_checks(Engine(space)))
    else:
        lines.append("relation self-test skipped: the family is not weakly left-resolving")

    _emit(rep, args.format, lead_lines=lines)
    return EXIT_OK if rep.ok else EXIT_FAIL


def cmd_verify_sphere(args) -> int:
    rep = verify_sphere_suite(SphereConfig(args.n, args.trunc))
    _emit(rep, args.format)
    return EXIT_OK if rep.ok else EXIT_FAIL


def cmd_obstruction(args) -> int:
    res = sweep(args.max_vertices, max_edges=args.max_edges, wide=args.wide)
    headline = (f"{len(res.violations)} counterexamples among "
                f"{res.candidates_checked} candidates")
    _emit(res.report, args.format,
          lead_records=[{"record": "obstruction",
                         "candidates": res.candidates_checked,
                         "counterexamples": len(res.violations),
                         "wide": res.wide}],
          lead_lines=[headline])
    return EXIT_OK if res.report.ok else EXIT_FAIL


def _corr_check_lines(rep: Report) -> list:
    lines = []
    for c in rep.checks:
        name = c.name
        if name.startswith("(C") and ") " in name and " at " not in name and "image of" not in name:
            name = name.split(" ")[0]
        line = f"{name}: {'PASS' if c.ok else 'FAIL'}"
        if c.detail:
            line += f"  [{c.detail}]"
        lines.append(line)
    return lines


def cmd_corr_check(args) -> int:
    overall_ok = True
    for path in args.files:
        kind, obj = formats.corr_check_from_json(formats.load_json(path))
        if kind == "single":
            rep = obj.validate()
            rep.title = f"correspondence {obj.name}"
        else:
            rep = check_morphism(obj)
        if len(args.files) > 1 and args.format == "text":
            print(f"== {path}")
        if args.format == "json":
            _emit(rep, "json")
        else:
            for line in _corr_check_lines(rep):
                print(line)
            print(rep.summary())
        overall_ok = overall_ok and rep.ok
    return EXIT_OK if overall_ok else EXIT_FAIL


def cmd_properties(args) -> int:
    rep = run_property_suites(cases=args.cases, seed=args.seed)
    _emit(rep, args.format)
    return EXIT_OK if rep.ok else EXIT_FAIL


# ------------------------------------------------------------------ main

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="corrkit",
        description="exact verification suites for graph and labelled-graph "
                    "operator algebras and their correspondences")
    sub = p.add_subparsers(dest="command", required=True)

    k = sub.add_parser("ktheory", help="K groups of a finite graph")
    k.add_argument("graph", help="graph JSON file")
    _add_format(k)
    k.set_defaults(func=cmd_ktheory)

    lc = sub.add_parser("labelled-check",
                        help="resolving properties and relation self-test of a labelled space")
    lc.add_argument("space", help="labelled-space JSON file")
    lc.add_argument("--trunc", type=_at_least(1), default=None, metavar="N",
                    help="closure horizon override (default: file value or 8)")
    lc.add_argument("--budget", type=_at_least(1), default=10000,
                    help="closure iteration budget")
    _add_format(lc)
    lc.set_defaults(func=cmd_labelled_check)

    vs = sub.add_parser("verify-sphere", help="full sphere-pair suite")
    vs.add_argument("--n", type=_at_least(1), default=2, help="sphere size parameter")
    vs.add_argument("--trunc", type=_at_least(2), default=4, metavar="N",
                    help="index truncation for the infinite presentations")
    _add_format(vs)
    vs.set_defaults(func=cmd_verify_sphere)

    ob = sub.add_parser("obstruction",
                        help="enumerate candidate graphs and test the two-projection obstruction")
    # 3 vertices and 3 edges (the loop at w0 and one edge into each sink)
    # is the smallest budget that admits a candidate
    ob.add_argument("--max-vertices", type=_at_least(3), default=5)
    ob.add_argument("--max-edges", type=_at_least(3), default=10)
    ob.add_argument("--wide", action="store_true",
                    help="also vary the tested unit-decomposition pattern")
    ob.add_argument("--jobs", type=_at_least(1), default=1,
                    help="accepted for uniform automation; candidates are checked serially")
    _add_format(ob)
    ob.set_defaults(func=cmd_obstruction)

    cc = sub.add_parser("corr-check",
                        help="validate correspondence files or a morphism between two")
    cc.add_argument("files", nargs="+", help="job JSON files")
    _add_format(cc)
    cc.set_defaults(func=cmd_corr_check)

    pr = sub.add_parser("properties", help="randomized algebraic property suites")
    pr.add_argument("--cases", type=_at_least(2), default=DEFAULT_CASES)
    pr.add_argument("--seed", type=int, default=DEFAULT_SEED)
    _add_format(pr)
    pr.set_defaults(func=cmd_properties)

    return p


def main(argv=None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit:
            # `--help` and usage errors exit from inside argparse; flush
            # here so a closed stdout is handled below and not at exit.
            sys.stdout.flush()
            raise
        rc = args.func(args)
        sys.stdout.flush()
        return rc
    except BrokenPipeError:
        # Point stdout at devnull so the flush at interpreter exit cannot
        # raise again (the recipe of the `signal` module documentation).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_FAIL
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValidationError, UnsupportedSpaceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except Exception as exc:
        detail = " ".join(f"{type(exc).__name__}: {exc}".split())
        print(f"error: internal: {detail}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
