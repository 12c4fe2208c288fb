"""Command-line front door.

Subcommands build reduction instances from DIMACS formulas, solve and check
serialized instances, apply the complement transform, map completions back to
truth assignments, run the acceptance suites, and emit DOT drawings.

Exit codes: 0 = SAT / property holds / suites pass, 1 = UNSAT / property
fails / extraction falsifies, 2 = usage or parse error, 3 = budget exhausted.
"""

from __future__ import annotations

import argparse
import sys

from .budget import BudgetExhausted
from .cnf import CnfError, CnfFormula, parse_dimacs
from .io import (InstanceFormatError, dump_roles, format_completion,
                 format_dot, format_instance, load_roles, parse_completion,
                 parse_instance)
from .recognition import DEFAULT_CHECK_BUDGET, PROPERTY_IDS, check
from .reduction_even import (OrientationError, build_even_instance,
                             extract_assignment as extract_even)
from .reduction_odd import (GadgetError, build_c5_instance,
                            build_odd_hole_free_instance,
                            extract_assignment as extract_odd)
from .sandwich import (DEFAULT_SOLVE_BUDGET, SOLVABLE_PROPERTY_IDS,
                       complement_instance, solve)
from .verify import DEFAULT_SEED, SUITES, run_suite

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


class CliError(Exception):
    """Usage or input error; message goes to stderr, exit code 2."""


def _budget(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("budget must be non-negative")
    return value


def _read(path):
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise CliError("cannot read %s: %s" % (path, exc))


def _write(path, text):
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise CliError("cannot write %s: %s" % (path, exc))


def _load_instance(path):
    try:
        return parse_instance(_read(path))
    except InstanceFormatError as exc:
        raise CliError("%s: %s" % (path, exc))


def _load_formula(path):
    try:
        return parse_dimacs(_read(path))
    except CnfError as exc:
        raise CliError("%s: %s" % (path, exc))


def _rebuild_from_roles(payload):
    try:
        formula = CnfFormula(payload["num_vars"],
                             tuple(tuple(c) for c in payload["clauses"]))
    except (CnfError, TypeError) as exc:
        raise CliError("roles file carries a bad formula: %s" % exc)
    kind = payload["reduction"]
    if kind == "c5-free":
        inst, gmap = build_c5_instance(formula)
    elif kind == "odd-hole-free":
        inst, gmap = build_odd_hole_free_instance(formula)
    elif kind == "even-hole-free":
        inst, gmap = build_even_instance(formula)
    else:
        raise CliError("roles file names unknown reduction %r" % (kind,))
    return kind, formula, inst, gmap


# -- subcommand handlers ------------------------------------------------------

def _cmd_reduce(args):
    formula = _load_formula(args.cnf)
    if args.kind == "even-hole-free":
        kind = "even-hole-free"
        inst, _ = build_even_instance(formula)
    elif args.property == "odd-hole-free":
        kind = "odd-hole-free"
        inst, _ = build_odd_hole_free_instance(formula)
    else:
        kind = "c5-free"
        inst, _ = build_c5_instance(formula)
    _write(args.out, format_instance(inst))
    roles = args.roles
    if roles is None and args.out != "-":
        roles = args.out + ".roles.json"
    if roles is not None:
        _write(roles, dump_roles(kind, formula, inst))
    return EXIT_TRUE


def _cmd_solve(args):
    inst = _load_instance(args.instance)
    result = solve(inst, args.property, budget=args.budget)
    print(result.verdict)
    if result.verdict == "SAT":
        for u, v in sorted(result.completion.chosen):
            print("e %d %d" % (u, v))
        if args.completion_out:
            _write(args.completion_out,
                   format_completion(result.completion.chosen))
        return EXIT_TRUE
    if result.verdict == "BUDGET":
        return EXIT_BUDGET
    return EXIT_FALSE


def _cmd_check(args):
    inst = _load_instance(args.instance)
    if args.completion is not None and args.graph is not None:
        raise CliError("--completion and --graph are mutually exclusive")
    if args.completion is not None:
        try:
            chosen = parse_completion(_read(args.completion), inst)
        except InstanceFormatError as exc:
            raise CliError("%s: %s" % (args.completion, exc))
        g = inst.realize(chosen)
    elif args.graph == "g1":
        g = inst.g1()
    elif args.graph == "g2":
        g = inst.g2()
    elif not inst.optional:
        g = inst.g1()
    else:
        raise CliError("instance has optional edges; pass --completion "
                       "or --graph {g1,g2} to pick the graph to check")
    verdict, cert = check(g, args.property, budget=args.budget)
    print("%s: %s" % (args.property, "true" if verdict else "false"))
    if cert is not None:
        names = " ".join(inst.name(v) for v in cert.vertices)
        print("certificate %s: %s" % (cert.kind, names))
    return EXIT_TRUE if verdict else EXIT_FALSE


def _cmd_complement(args):
    inst = _load_instance(args.instance)
    _write(args.out, format_instance(complement_instance(inst)))
    return EXIT_TRUE


def _cmd_extract(args):
    try:
        payload = load_roles(_read(args.roles))
    except InstanceFormatError as exc:
        raise CliError("%s: %s" % (args.roles, exc))
    kind, formula, inst, gmap = _rebuild_from_roles(payload)
    try:
        chosen = parse_completion(_read(args.completion), inst)
    except InstanceFormatError as exc:
        raise CliError("%s: %s" % (args.completion, exc))
    g = inst.realize(chosen)
    try:
        if kind == "even-hole-free":
            assignment = extract_even(gmap, g)
        elif kind == "odd-hole-free":
            assignment = extract_odd(gmap, g.complement())
        else:
            assignment = extract_odd(gmap, g)
    except (GadgetError, OrientationError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_FALSE
    for var in range(1, formula.num_vars + 1):
        print("x%d=%s" % (var, "true" if assignment[var] else "false"))
    satisfied = formula.satisfied_by(assignment)
    print("satisfies formula: %s" % ("true" if satisfied else "false"))
    return EXIT_TRUE if satisfied else EXIT_FALSE


def _cmd_verify(args):
    print("seed %d" % args.seed)
    results = run_suite(args.suite, seed=args.seed)
    all_passed = True
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        print("[%s] %d %s: %s" % (mark, r.number, r.name, r.detail))
        all_passed = all_passed and r.passed
    return EXIT_TRUE if all_passed else EXIT_FALSE


def _cmd_export_dot(args):
    inst = _load_instance(args.instance)
    chosen = None
    if args.completion is not None:
        try:
            chosen = parse_completion(_read(args.completion), inst)
        except InstanceFormatError as exc:
            raise CliError("%s: %s" % (args.completion, exc))
    _write(args.out, format_dot(inst, chosen, graph_name=args.name))
    return EXIT_TRUE


# -- parser -------------------------------------------------------------------

def _parser():
    parser = argparse.ArgumentParser(
        prog="holesandwich",
        description="Build, solve, and verify graph sandwich instances for "
                    "hole-freeness properties.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce-odd",
                       help="build the five-cycle instance for a 3-CNF")
    p.add_argument("cnf", help="DIMACS CNF path, or - for stdin")
    p.add_argument("--property", choices=("c5-free", "odd-hole-free"),
                   default="c5-free",
                   help="target property; odd-hole-free serializes the "
                        "complemented instance")
    p.add_argument("--out", default="-", help="instance file (default stdout)")
    p.add_argument("--roles", default=None,
                   help="role-map JSON (default <out>.roles.json)")
    p.set_defaults(func=_cmd_reduce, kind="odd")

    p = sub.add_parser("reduce-even",
                       help="build the even-hole instance for a 3-CNF")
    p.add_argument("cnf", help="DIMACS CNF path, or - for stdin")
    p.add_argument("--out", default="-", help="instance file (default stdout)")
    p.add_argument("--roles", default=None,
                   help="role-map JSON (default <out>.roles.json)")
    p.set_defaults(func=_cmd_reduce, kind="even-hole-free", property=None)

    p = sub.add_parser("solve", help="decide a serialized sandwich instance")
    p.add_argument("instance", help="instance file, or - for stdin")
    p.add_argument("--property", choices=SOLVABLE_PROPERTY_IDS, required=True)
    p.add_argument("--budget", type=_budget, default=DEFAULT_SOLVE_BUDGET,
                   help="search-node cap (default %d)" % DEFAULT_SOLVE_BUDGET)
    p.add_argument("--completion-out", default=None,
                   help="also write the completion to this file on SAT")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("check", help="test a property on a realized graph")
    p.add_argument("instance", help="instance file, or - for stdin")
    p.add_argument("--property", choices=PROPERTY_IDS, required=True)
    p.add_argument("--completion", default=None,
                   help="completion file; realizes the sandwich graph")
    p.add_argument("--graph", choices=("g1", "g2"), default=None,
                   help="check the forced (g1) or allowed (g2) graph instead")
    p.add_argument("--budget", type=_budget, default=DEFAULT_CHECK_BUDGET,
                   help="cycle-search step cap (default %d)"
                        % DEFAULT_CHECK_BUDGET)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("complement",
                       help="swap forced and forbidden edges (involution)")
    p.add_argument("instance", help="instance file, or - for stdin")
    p.add_argument("--out", default="-", help="output path (default stdout)")
    p.set_defaults(func=_cmd_complement)

    p = sub.add_parser("extract",
                       help="map a completion back to a truth assignment")
    p.add_argument("completion", help="completion file, or - for stdin")
    p.add_argument("--roles", required=True,
                   help="role-map JSON written by reduce-*")
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("verify", help="run acceptance suites")
    p.add_argument("--suite", default="all",
                   choices=tuple(SUITES) + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="RNG seed for randomized suites (default %d)"
                        % DEFAULT_SEED)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("export-dot",
                       help="DOT drawing: forced solid, optional dashed")
    p.add_argument("instance", help="instance file, or - for stdin")
    p.add_argument("--completion", default=None,
                   help="highlight these chosen edges")
    p.add_argument("--out", default="-", help="output path (default stdout)")
    p.add_argument("--name", default="sandwich", help="DOT graph name")
    p.set_defaults(func=_cmd_export_dot)

    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except BudgetExhausted:
        print("budget exhausted", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
