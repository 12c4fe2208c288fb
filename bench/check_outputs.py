"""Independent checker for the benchmark's item records.

It runs after the timed items and shares no code with the program: it parses
the instance and completion text itself, decodes assignments from the vertex
roles as the constructions define them, and decides hole properties with
networkx.  It never imports holesandwich.

`check(workload, records)` returns a list of problems; an empty list means
every record that did not fail is correct.
"""

import itertools

import networkx as nx

PROPS = ("chordal", "c5-free", "odd-hole-free", "even-hole-free",
         "odd-antihole-free", "berge")


# -- shared helpers --------------------------------------------------------------

def parse_instance(text):
    """(n, names, forced, optional) from the `sandwich <n>` text format."""
    n, names, forced, optional = None, {}, set(), set()
    for line in text.splitlines():
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        if parts[0] == "sandwich":
            n = int(parts[1])
        elif parts[0] == "v":
            names[parts[2]] = int(parts[1])
        elif parts[0] in ("f", "o"):
            u, v = sorted((int(parts[1]), int(parts[2])))
            (forced if parts[0] == "f" else optional).add((u, v))
        else:
            raise ValueError("unknown instance line %r" % line)
    return n, names, forced, optional


def parse_completion(text):
    chosen = set()
    for line in text.splitlines():
        parts = line.split()
        if parts and parts[0] == "e":
            chosen.add(tuple(sorted((int(parts[1]), int(parts[2])))))
    return chosen


def graph(n, edges):
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return g


def hole_lengths(g):
    """Lengths of every chordless cycle of length >= 4."""
    return [len(c) for c in nx.chordless_cycles(g) if len(c) >= 4]


def satisfies(clauses, assignment):
    return all(any(assignment[abs(lit)] == (lit > 0) for lit in c) for c in clauses)


def satisfiable(num_vars, clauses):
    return any(satisfies(clauses, dict(zip(range(1, num_vars + 1), values)))
               for values in itertools.product((False, True), repeat=num_vars))


def is_induced_cycle(g, vertices):
    k = len(vertices)
    if k < 3 or len(set(vertices)) != k:
        return False
    for i, j in itertools.combinations(range(k), 2):
        consecutive = j - i in (1, k - 1)
        if g.has_edge(vertices[i], vertices[j]) != consecutive:
            return False
    return True


def is_peo(g, order):
    if sorted(order) != sorted(g.nodes):
        return False
    pos = {v: i for i, v in enumerate(order)}
    for v in order:
        later = [u for u in g[v] if pos[u] > pos[v]]
        if any(not g.has_edge(a, b) for a, b in itertools.combinations(later, 2)):
            return False
    return True


def stray_edges(label, optional, chosen):
    """The completion forced | chosen lies between the forced and the allowed
    edge sets exactly when every chosen edge is optional."""
    stray = chosen - optional
    return ["%s: chosen edges not optional: %s" % (label, sorted(stray)[:3])] if stray else []


# -- even-roundtrip ----------------------------------------------------------------

def decode_even(names, g, num_vars, clauses):
    """Assignment read from the orientation bundles, or an error string.

    The positive bundle of incidence (x_i, clause j) is H-K_xi.cj,
    K_xi.cj-S_xi, S_xi-F; the negative one uses the !x_i knee and shoulder.
    Each incidence must carry exactly one full bundle, the same for every
    incidence of a variable.
    """
    head, foot = names["H"], names["F"]
    values = {}
    for j, clause in enumerate(clauses, start=1):
        for lit in clause:
            i = abs(lit)
            full = []
            for prefix in ("x", "!x"):
                knee = names["K_%s%d.c%d" % (prefix, i, j)]
                shoulder = names["S_%s%d" % (prefix, i)]
                full.append(g.has_edge(head, knee) and g.has_edge(knee, shoulder)
                            and g.has_edge(shoulder, foot))
            if full[0] == full[1]:
                return "incidence (x%d, clause %d) has %s orientation" % (
                    i, j, "both" if full[0] else "no")
            if values.setdefault(i, full[0]) != full[0]:
                return "variable x%d has mixed orientations" % i
    if set(values) != set(range(1, num_vars + 1)):
        return "not every variable occurs"
    return values


def check_even(rec):
    problems = []
    clauses = [tuple(c) for c in rec["clauses"]]
    num_vars = rec["num_vars"]
    if not satisfies(clauses, rec["planted"]):
        return ["planted assignment does not satisfy %s" % clauses]
    if rec["verdict"] != "SAT":
        return ["verdict %s on a satisfiable formula" % rec["verdict"]]
    n, names, forced, optional = parse_instance(rec["instance"])
    if n != 4 + 2 * num_vars + 6 * len(clauses):
        problems.append("instance has %d vertices" % n)
    chosen = set(map(tuple, rec["chosen"]))
    problems += stray_edges("completion", optional, chosen)
    g = graph(n, forced | chosen)
    even = [k for k in hole_lengths(g) if k % 2 == 0]
    if even:
        problems.append("completion has %d even holes" % len(even))
    decoded = decode_even(names, g, num_vars, clauses)
    if isinstance(decoded, str):
        problems.append("completion: " + decoded)
    elif decoded != rec["assignment"]:
        problems.append("extracted %s, completion encodes %s"
                        % (rec["assignment"], decoded))
    if not satisfies(clauses, rec["assignment"]):
        problems.append("extracted assignment falsifies the formula")
    return problems


# -- odd-roundtrip -----------------------------------------------------------------

def decode_odd(names, c5_graph, num_vars):
    """x_i is true iff its true chord (x_i.0, x_i.2) is in the C5 graph; the
    variable five-cycle must keep at least one of its two chords."""
    values = {}
    for i in range(1, num_vars + 1):
        x = [names["x%d.%d" % (i, k)] for k in range(5)]
        true_chord = c5_graph.has_edge(x[0], x[2])
        if not (true_chord or c5_graph.has_edge(x[1], x[3])):
            return "variable x%d five-cycle has no chord" % i
        values[i] = true_chord
    return values


def parse_extract(text):
    values, claim = {}, None
    for line in text.splitlines():
        if line.startswith("satisfies formula: "):
            claim = line.split(": ", 1)[1] == "true"
        elif "=" in line and line.startswith("x"):
            var, value = line.split("=")
            values[int(var[1:])] = value == "true"
    return values, claim


class OddChecker:
    """Checks odd-roundtrip records; networkx verdicts are cached per
    completion, since the eight patterns repeat in every round."""

    def __init__(self):
        self._holes = {}

    def holes(self, key, n, edges, bound=None):
        if key not in self._holes:
            g = graph(n, edges)
            self._holes[key] = [len(c) for c in nx.chordless_cycles(g, length_bound=bound)
                                if len(c) >= 4]
        return self._holes[key]

    def check(self, rec):
        problems = []
        clauses = [tuple(c) for c in rec["clauses"]]
        num_vars = rec["num_vars"]
        bad_exit = {k: v for k, v in rec["exit"].items() if v != 0}
        if bad_exit:
            problems.append("non-zero exit codes %s" % bad_exit)
        sat = satisfiable(num_vars, clauses)
        for half in ("c5", "oh"):
            verdict = rec["stdout"]["solve_" + half].split("\n", 1)[0]
            if verdict != ("SAT" if sat else "UNSAT"):
                problems.append("%s solve says %r on a %s formula"
                                % (half, verdict, "satisfiable" if sat else "unsatisfiable"))
        if problems or not sat:
            return problems

        # c5-free half: no induced C5, and the chords encode a satisfying assignment.
        n, names, forced, optional = parse_instance(rec["c5_instance"])
        chosen = parse_completion(rec["c5_completion"])
        listed = parse_completion(rec["stdout"]["solve_c5"])
        if listed != chosen:
            problems.append("c5 solve output and completion file differ")
        problems += stray_edges("c5 completion", optional, chosen)
        edges = forced | chosen
        if 5 in self.holes(("c5", frozenset(edges)), n, edges, bound=5):
            problems.append("c5 completion has an induced C5")
        decoded = decode_odd(names, graph(n, edges), num_vars)
        if isinstance(decoded, str):
            problems.append("c5 completion: " + decoded)
        elif not satisfies(clauses, decoded):
            problems.append("c5 completion encodes a falsifying assignment")

        # odd-hole-free half: the instance is the complemented C5 instance, so
        # the chords are read in the complement of the completion.
        n, names, forced, optional = parse_instance(rec["oh_instance"])
        chosen = parse_completion(rec["oh_completion"])
        problems += stray_edges("oh completion", optional, chosen)
        edges = forced | chosen
        odd = [k for k in self.holes(("oh", frozenset(edges)), n, edges) if k % 2]
        if odd:
            problems.append("oh completion has %d odd holes" % len(odd))
        claimed = rec["stdout"]["check"].strip()
        if claimed != "odd-hole-free: %s" % ("false" if odd else "true"):
            problems.append("check printed %r" % claimed)
        decoded = decode_odd(names, nx.complement(graph(n, edges)), num_vars)
        extracted, claim = parse_extract(rec["stdout"]["extract"])
        if isinstance(decoded, str):
            problems.append("oh completion: " + decoded)
        elif extracted != decoded:
            problems.append("extract printed %s, completion encodes %s"
                            % (extracted, decoded))
        if claim is not True or not satisfies(clauses, extracted):
            problems.append("extracted assignment does not satisfy the formula")
        return problems


# -- recognize ---------------------------------------------------------------------

def expected_verdicts(family, hole):
    """Verdicts known from how the graph was built (None: not fixed by the class).

    Interval graphs are chordal; co-interval graphs have no hole of length
    >= 5 (its complement would be an antihole in a chordal graph); bipartite
    graphs have only even holes; the planted-hole graph is an interval graph
    plus one disjoint hole, its only hole.  All of these classes are perfect,
    hence Berge, except a planted odd hole.
    """
    if family == "interval":
        return dict.fromkeys(PROPS, True)
    known = {"c5-free": True, "odd-hole-free": True, "odd-antihole-free": True,
             "berge": True, "chordal": None, "even-hole-free": None}
    if family == "complete-bipartite":
        known.update({"chordal": False, "even-hole-free": False})
    elif family == "planted-hole":
        odd = len(hole) % 2 == 1
        known.update({"chordal": False, "even-hole-free": odd,
                      "odd-hole-free": not odd, "berge": not odd})
    return known


def check_recognize(rec):
    problems = []
    n, hole = rec["n"], rec["hole"]
    g = graph(n, rec["edges"])
    holes = hole_lengths(g)
    anti = hole_lengths(nx.complement(g))
    measured = {
        "chordal": nx.is_chordal(g),
        "c5-free": 5 not in holes,
        "odd-hole-free": not any(k % 2 for k in holes),
        "even-hole-free": not any(k % 2 == 0 for k in holes),
        "odd-antihole-free": not any(k % 2 and k >= 5 for k in anti),
    }
    measured["berge"] = measured["odd-hole-free"] and measured["odd-antihole-free"]
    if measured["chordal"] != (not holes):
        problems.append("networkx is_chordal disagrees with its own cycle list")
    if rec["family"] in ("co-interval", "random-bipartite"):
        # Both classes have only 4-holes (co-interval) or only even holes
        # (bipartite), so chordal and even-hole-free coincide.
        if measured["chordal"] != measured["even-hole-free"]:
            problems.append("%s graph: chordal != even-hole-free" % rec["family"])
    if rec["family"] == "random-bipartite" and measured["chordal"] != nx.is_forest(g):
        problems.append("bipartite graph: chordal != forest")
    known = expected_verdicts(rec["family"], hole)
    for prop in PROPS:
        ans = rec["answers"][prop]
        if known[prop] is not None and known[prop] != measured[prop]:
            problems.append("%s graph: networkx says %s=%s against the construction"
                            % (rec["family"], prop, measured[prop]))
        if ans["verdict"] != measured[prop]:
            problems.append("%s graph: %s verdict %s, expected %s"
                            % (rec["family"], prop, ans["verdict"], measured[prop]))
            continue
        if not ans["verified"]:
            problems.append("%s graph: verify_certificate rejected %s" % (rec["family"], prop))
        problems += certificate_problems(rec, g, prop, ans)
    return problems


def certificate_problems(rec, g, prop, ans):
    label = "%s graph, %s certificate" % (rec["family"], prop)
    kind, vertices = ans["kind"], ans["vertices"]
    if ans["verdict"]:
        if prop == "chordal":
            return [] if kind == "peo" and is_peo(g, vertices) else [label + ": not a PEO"]
        return [] if kind is None else [label + ": unexpected certificate"]
    if kind == "antihole":
        host = nx.complement(g)
        ok = prop in ("odd-antihole-free", "berge")
        length_ok = len(vertices) >= 5 and len(vertices) % 2 == 1
    elif kind == "hole":
        host = g
        k = len(vertices)
        ok = prop != "odd-antihole-free"
        length_ok = {"chordal": k >= 4, "c5-free": k == 5,
                     "even-hole-free": k >= 4 and k % 2 == 0}.get(prop, k >= 5 and k % 2 == 1)
    else:
        return [label + ": kind %r" % kind]
    if not (ok and length_ok and is_induced_cycle(host, vertices)):
        return [label + ": %s %s is not a valid witness" % (kind, vertices)]
    if kind == "hole" and rec["hole"] is not None and set(vertices) != set(rec["hole"]):
        return [label + ": names a hole other than the planted one"]
    return []


def check(workload, records):
    """Problems found in the records of one run; failed items are skipped."""
    if workload == "even-roundtrip":
        check_one = check_even
    elif workload == "odd-roundtrip":
        check_one = OddChecker().check
    elif workload == "recognize":
        check_one = check_recognize
    else:
        raise ValueError(workload)
    problems = []
    for idx, rec in enumerate(records):
        if not rec["failed"]:
            problems += ["item %d: %s" % (idx, p) for p in check_one(rec)]
    return problems
