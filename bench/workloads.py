"""Seeded inputs and timed items for the three benchmark workloads.

Each workload turns (seed, round index) into one round of inputs and runs
one input as one timed item, returning a plain record for the independent
checker (check_outputs.py).  A run always attempts whole rounds, so every
run sees the same mix of item kinds whatever its length.

The package is imported from the checkout's own ``src`` directory; a
checkout without it is refused (exit code 2) before anything is measured.
"""

import contextlib
import io as _stdio
import itertools
import os
import random
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")

if not os.path.isfile(os.path.join(SRC_DIR, "holesandwich", "__init__.py")):
    sys.stderr.write("error: no holesandwich sources under %s\n" % SRC_DIR)
    raise SystemExit(2)
sys.path.insert(0, SRC_DIR)

from holesandwich import cli, io, recognition, reduction_even  # noqa: E402
from holesandwich.cnf import CnfFormula, format_dimacs  # noqa: E402
from holesandwich.graph import Graph  # noqa: E402


def round_rng(seed, index):
    """The generator for one round; the same (seed, index) gives the same inputs."""
    return random.Random(seed * 1_000_003 + index)


# -- even-roundtrip ------------------------------------------------------------

EVEN_VARS = 4
EVEN_CLAUSES = 2


def planted_formula(rng, num_vars=EVEN_VARS, num_clauses=EVEN_CLAUSES):
    """A 3-CNF with every variable occurring, satisfied by a planted assignment."""
    while True:
        planted = {i: rng.random() < 0.5 for i in range(1, num_vars + 1)}
        clauses = []
        for _ in range(num_clauses):
            variables = rng.sample(range(1, num_vars + 1), 3)
            while True:
                clause = tuple(v if rng.random() < 0.5 else -v for v in variables)
                if any(planted[abs(lit)] == (lit > 0) for lit in clause):
                    break
            clauses.append(clause)
        if {abs(lit) for c in clauses for lit in c} == set(planted):
            return clauses, planted


class EvenRoundtrip:
    """build_even_instance -> format/parse -> solve_with_orientations -> extract.

    One round is eight independent seeded formulas.  Item cost is the number
    of propagation rounds, which depends on the signs and on the literal
    order inside each clause, so items are drawn independently rather than
    as variants of one formula, which would make a run's items alike.
    """

    name = "even-roundtrip"
    round_size = 8

    def make_round(self, seed, index):
        rng = round_rng(seed, index)
        out = []
        for _ in range(self.round_size):
            clauses, planted = planted_formula(rng)
            out.append((CnfFormula(EVEN_VARS, tuple(clauses)), planted))
        return out

    def run_item(self, inp, workdir):
        formula, planted = inp
        inst, gmap = reduction_even.build_even_instance(formula)
        text = io.format_instance(inst)
        parsed = io.parse_instance(text)
        result = reduction_even.solve_with_orientations(formula, parsed, gmap)
        record = {"num_vars": formula.num_vars,
                  "clauses": [list(c) for c in formula.clauses],
                  "planted": planted, "instance": text,
                  "verdict": result.verdict, "chosen": None, "assignment": None}
        if result.verdict == "SAT":
            chosen = result.completion.chosen
            record["chosen"] = sorted(chosen)
            record["assignment"] = reduction_even.extract_assignment(
                gmap, parsed.realize(chosen))
        record["failed"] = result.verdict == "BUDGET"
        return record


# -- odd-roundtrip -------------------------------------------------------------

ODD_PATTERNS = tuple(tuple(s * v for s, v in zip(signs, (1, 2, 3)))
                     for signs in itertools.product((1, -1), repeat=3))


class OddRoundtrip:
    """reduce-odd / solve / extract / check through the CLI, in-process.

    One round is the eight polarity patterns of a single clause over three
    variables (n = 68), in a seeded order; the patterns themselves do not
    depend on the seed.
    """

    name = "odd-roundtrip"

    def make_round(self, seed, index):
        patterns = list(ODD_PATTERNS)
        round_rng(seed, index).shuffle(patterns)
        return [CnfFormula(3, (p,)) for p in patterns]

    def run_item(self, formula, workdir):
        def path(name):
            return os.path.join(workdir, name)

        with open(path("f.cnf"), "w", encoding="utf-8") as handle:
            handle.write(format_dimacs(formula))
        steps = [
            ("reduce_c5", ["reduce-odd", path("f.cnf"), "--property", "c5-free",
                           "--out", path("c5.txt")]),
            ("solve_c5", ["solve", path("c5.txt"), "--property", "c5-free",
                          "--completion-out", path("c5.done")]),
            ("reduce_oh", ["reduce-odd", path("f.cnf"), "--property",
                           "odd-hole-free", "--out", path("oh.txt")]),
            ("solve_oh", ["solve", path("oh.txt"), "--property", "odd-hole-free",
                          "--completion-out", path("oh.done")]),
            ("extract", ["extract", path("oh.done"), "--roles",
                         path("oh.txt.roles.json")]),
            ("check", ["check", path("oh.txt"), "--property", "odd-hole-free",
                       "--completion", path("oh.done")]),
        ]
        record = {"num_vars": formula.num_vars,
                  "clauses": [list(c) for c in formula.clauses],
                  "exit": {}, "stdout": {}}
        for step, argv in steps:
            out = _stdio.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            record["exit"][step] = code
            record["stdout"][step] = out.getvalue()
        for key, name in (("c5_instance", "c5.txt"), ("c5_completion", "c5.done"),
                          ("oh_instance", "oh.txt"), ("oh_completion", "oh.done")):
            try:
                with open(path(name), encoding="utf-8") as handle:
                    record[key] = handle.read()
            except FileNotFoundError:
                record[key] = None
        for name in ("c5.done", "oh.done"):
            with contextlib.suppress(FileNotFoundError):
                os.remove(path(name))
        record["failed"] = cli.EXIT_BUDGET in record["exit"].values()
        return record


# -- recognize -----------------------------------------------------------------

REC_N = 40
HOLE_LENGTHS = (4, 6, 7, 8, 9)   # 5 is left out: see README.md


def interval_edges(rng, n):
    spans = []
    for _ in range(n):
        start = rng.uniform(0, 100)
        spans.append((start, start + rng.uniform(2, 20)))
    return [(u, v) for u, v in itertools.combinations(range(n), 2)
            if spans[u][0] < spans[v][1] and spans[v][0] < spans[u][1]]


def complement_edges(n, edges):
    present = set(edges)
    return [e for e in itertools.combinations(range(n), 2) if e not in present]


def recognize_graph(rng, family, n=REC_N):
    """(edges, hole) for one family; hole is the planted cycle or None."""
    hole = None
    if family == "interval":
        edges = interval_edges(rng, n)
    elif family == "co-interval":
        edges = complement_edges(n, interval_edges(rng, n))
    elif family == "complete-bipartite":
        edges = [(u, v) for u in range(n // 2) for v in range(n // 2, n)]
    elif family == "random-bipartite":
        edges = [(u, v) for u in range(n // 2) for v in range(n // 2, n)
                 if rng.random() < 0.15]
    elif family == "planted-hole":
        length = rng.choice(HOLE_LENGTHS)
        rest = n - length
        hole = [rest + k for k in range(length)]
        edges = interval_edges(rng, rest) + [
            (hole[k], hole[(k + 1) % length]) for k in range(length)]
    else:
        raise ValueError(family)
    perm = list(range(n))
    rng.shuffle(perm)
    edges = sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges)
    if hole is not None:
        hole = [perm[v] for v in hole]
    return edges, hole


class Recognize:
    """check for all six properties plus verify_certificate, per graph.

    One round is one seeded graph of each family at n = 40.
    """

    name = "recognize"
    families = ("interval", "co-interval", "complete-bipartite",
                "random-bipartite", "planted-hole")

    def make_round(self, seed, index):
        rng = round_rng(seed, index)
        graphs = []
        for family in self.families:
            edges, hole = recognize_graph(rng, family)
            graphs.append((family, edges, hole, Graph(REC_N, edges)))
        rng.shuffle(graphs)
        return graphs

    def run_item(self, inp, workdir):
        family, edges, hole, g = inp
        answers = {}
        for prop in recognition.PROPERTY_IDS:
            verdict, cert = recognition.check(g, prop)
            answers[prop] = {
                "verdict": verdict,
                "kind": cert.kind if cert is not None else None,
                "vertices": list(cert.vertices) if cert is not None else None,
                "verified": recognition.verify_certificate(g, prop, verdict, cert),
            }
        return {"family": family, "n": REC_N, "edges": edges, "hole": hole,
                "answers": answers, "failed": False}


WORKLOADS = {w.name: w for w in (EvenRoundtrip(), OddRoundtrip(), Recognize())}
