"""Command-line front door.

Subcommands build reduction instances from DIMACS formulas, solve and check
serialized instances, apply the complement transform, map completions back to
truth assignments, run the acceptance suites, and emit DOT drawings.

Exit codes: 0 = SAT / property holds / suites pass, 1 = UNSAT / property
fails / extraction falsifies, 2 = usage or parse error, 3 = budget exhausted.
"""

import sys
from functools import cache

from .budget import BudgetExhausted
from .cnf import CnfError, CnfFormula, parse_dimacs, parse_int
from .io import (InstanceFormatError, dump_roles, format_completion,
                 format_dot, format_instance, load_roles, parse_completion,
                 parse_instance, roles_payload)
from .recognition import DEFAULT_CHECK_BUDGET, PROPERTY_IDS, check
from .reduction_even import (build_even_instance,
                             extract_assignment as extract_even,
                             solve_with_orientations)
from .reduction_odd import (GadgetError, build_c5_instance,
                            build_odd_hole_free_instance,
                            extract_assignment as extract_odd)
from .sandwich import DEFAULT_SOLVE_BUDGET, complement_instance, solve

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

# kind -> (builder, extractor of a sandwich graph of the builder's instance)
REDUCTIONS = {"c5-free": (build_c5_instance, extract_odd),
              "odd-hole-free": (build_odd_hole_free_instance, extract_odd),
              "even-hole-free": (build_even_instance, extract_even)}


class CliError(Exception):
    """Usage or input error; message goes to stderr, exit code 2."""


def _integer(text):
    """An ASCII integer option value, as every text format spells one."""
    import argparse
    value = parse_int(text)
    if value is None:
        raise argparse.ArgumentTypeError("%r is not an integer" % text)
    return value


def _budget(text):
    import argparse
    value = _integer(text)
    if value < 0:
        raise argparse.ArgumentTypeError("budget must be non-negative")
    return value


def _write(path, text):
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise CliError("cannot write %s: %s" % (path, exc))


def _parse(path, parse, *context):
    """`parse` applied to the text of file `path` (- for stdin); a file that
    cannot be read or parsed is a usage error."""
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise CliError("cannot read %s: %s" % (path, exc))
    try:
        return parse(text, *context)
    except (CnfError, InstanceFormatError) as exc:
        raise CliError("%s: %s" % (path, exc))


def _rebuild_from_roles(payload):
    try:
        formula = CnfFormula(payload["num_vars"], payload["clauses"])
    except (CnfError, TypeError) as exc:
        raise CliError("roles file carries a bad formula: %s" % exc)
    kind = payload["reduction"]
    if not isinstance(kind, str) or kind not in REDUCTIONS:
        raise CliError("roles file names unknown reduction %r" % (kind,))
    inst, gmap = REDUCTIONS[kind][0](formula)
    expected = roles_payload(kind, formula, inst)["vertex_roles"]
    if payload["vertex_roles"] != expected:
        raise CliError("roles file's vertex_roles do not match the %s "
                       "instance of its formula" % kind)
    return kind, inst, gmap


# -- subcommand handlers ------------------------------------------------------

def _cmd_reduce(args):
    formula = _parse(args.cnf, parse_dimacs)
    inst, _ = REDUCTIONS[args.property][0](formula)
    _write(args.out, format_instance(inst))
    roles = args.roles
    if roles is None and args.out != "-":
        roles = args.out + ".roles.json"
    if roles is not None:
        _write(roles, dump_roles(args.property, formula, inst))
    return EXIT_TRUE


def _cmd_solve(args):
    inst = _parse(args.instance, parse_instance)
    if args.roles is None:
        result = solve(inst, args.property, budget=args.budget)
    else:
        kind, rebuilt, gmap = _rebuild_from_roles(
            _parse(args.roles, load_roles))
        if kind != args.property:
            raise CliError("roles file is for %s, not %s"
                           % (kind, args.property))
        shape = (inst.n, inst.forced, inst.optional)
        if (rebuilt.n, rebuilt.forced, rebuilt.optional) != shape:
            raise CliError("%s does not describe %s"
                           % (args.roles, args.instance))
        if kind == "even-hole-free":
            result = solve_with_orientations(gmap.formula, rebuilt, gmap,
                                             budget=args.budget)
        else:
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
    inst = _parse(args.instance, parse_instance)
    if args.completion is not None and args.graph is not None:
        raise CliError("--completion and --graph are mutually exclusive")
    if args.completion is not None:
        g = inst.realize(_parse(args.completion, parse_completion, inst))
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
    inst = _parse(args.instance, parse_instance)
    _write(args.out, format_instance(complement_instance(inst)))
    return EXIT_TRUE


def _cmd_extract(args):
    kind, inst, gmap = _rebuild_from_roles(_parse(args.roles, load_roles))
    g = inst.realize(_parse(args.completion, parse_completion, inst))
    try:
        assignment = REDUCTIONS[kind][1](gmap, g)
    except GadgetError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_FALSE
    for var in range(1, gmap.formula.num_vars + 1):
        print("x%d=%s" % (var, "true" if assignment[var] else "false"))
    satisfied = gmap.formula.satisfied_by(assignment)
    print("satisfies formula: %s" % ("true" if satisfied else "false"))
    return EXIT_TRUE if satisfied else EXIT_FALSE


def _cmd_verify(args):
    from time import perf_counter
    from .verify import DEFAULT_SEED, SUITES, check_suite_name, run_suite
    try:
        check_suite_name(args.suite)
    except ValueError as exc:
        raise CliError(exc)
    seed = DEFAULT_SEED if args.seed is None else args.seed
    results = []
    for key in (SUITES if args.suite == "all" else (args.suite,)):
        start = perf_counter()
        results.append(run_suite(key, seed=seed))
        print("%s: %.3f s" % (key, perf_counter() - start), file=sys.stderr)
    print("seed %d" % seed)
    for r in results:
        print("[%s] %d %s: %s" % ("PASS" if r.passed else "FAIL", r.number,
                                  r.name, r.detail))
    return EXIT_TRUE if all(r.passed for r in results) else EXIT_FALSE


def _cmd_export_dot(args):
    inst = _parse(args.instance, parse_instance)
    chosen = (None if args.completion is None
              else _parse(args.completion, parse_completion, inst))
    _write(args.out, format_dot(inst, chosen, graph_name=args.name))
    return EXIT_TRUE


# -- parser -------------------------------------------------------------------

@cache
def _parser():
    # Built on the first main call, once per process: every parser leaves
    # reference cycles that only a full garbage collection frees.
    import argparse
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
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("reduce-even",
                       help="build the even-hole instance for a 3-CNF")
    p.add_argument("cnf", help="DIMACS CNF path, or - for stdin")
    p.add_argument("--out", default="-", help="instance file (default stdout)")
    p.add_argument("--roles", default=None,
                   help="role-map JSON (default <out>.roles.json)")
    p.set_defaults(func=_cmd_reduce, property="even-hole-free")

    p = sub.add_parser("solve", help="decide a serialized sandwich instance")
    p.add_argument("instance", help="instance file, or - for stdin")
    p.add_argument("--property", choices=PROPERTY_IDS, required=True)
    p.add_argument("--budget", type=_budget, default=DEFAULT_SOLVE_BUDGET,
                   help="search-node cap (default %d)" % DEFAULT_SOLVE_BUDGET)
    p.add_argument("--completion-out", default=None,
                   help="also write the completion to this file on SAT")
    p.add_argument("--roles", default=None,
                   help="role-map JSON written by reduce-*; must describe "
                        "the instance and match --property, and routes "
                        "even-hole-free to the orientation solver")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("check", help="test a property on a realized graph")
    p.add_argument("instance", help="instance file, or - for stdin")
    p.add_argument("--property", choices=PROPERTY_IDS, required=True)
    p.add_argument("--completion", default=None,
                   help="completion file; realizes the sandwich graph")
    p.add_argument("--graph", choices=("g1", "g2"), default=None,
                   help="check the forced (g1) or allowed (g2) graph instead")
    p.add_argument("--budget", type=_budget, default=DEFAULT_CHECK_BUDGET,
                   help="recognition step cap (default %d)"
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
                   help="one suite, or all (default); an unknown name "
                        "lists the suites")
    p.add_argument("--seed", type=_integer, default=None,
                   help="RNG seed for randomized suites (default "
                        "verify.DEFAULT_SEED, printed first)")
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
