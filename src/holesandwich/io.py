"""Text formats for instances, completions, and gadget role maps.

Instance files carry forced and optional edges only; forbidden pairs are
derived, so a hand-edited file can never violate the containment invariant.
Serialization is canonical (vertex lines in id order, edge lines
lexicographic), which makes round-trips bit-exact and lets tests compare
files directly.
"""

from __future__ import annotations

import json

from .cnf import parse_int
from .sandwich import SandwichInstance, normalized_edge


class InstanceFormatError(Exception):
    """Malformed instance or completion text; message carries the line."""


def parse_instance(text):
    """Parse the `sandwich <n>` format into a SandwichInstance.

    Lines: header `sandwich <n>`, then `v <id> <role>` naming lines,
    `f <u> <v>` forced edges, `o <u> <v>` optional edges.  Blank lines and
    `#` comments are skipped.  Names are optional but all-or-nothing.
    """
    n = None
    names = {}
    forced = []
    optional = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "sandwich":
            if n is not None:
                raise InstanceFormatError("line %d: duplicate header" % lineno)
            n = parse_int(parts[1]) if len(parts) == 2 else None
            if n is None or n < 0:
                raise InstanceFormatError(
                    "line %d: header must be 'sandwich <n>'" % lineno)
            continue
        if n is None:
            raise InstanceFormatError(
                "line %d: content before 'sandwich <n>' header" % lineno)
        if kind == "v":
            if len(parts) != 3:
                raise InstanceFormatError(
                    "line %d: vertex line must be 'v <id> <role>'" % lineno)
            vid = _vertex(parts[1], n, lineno)
            if vid in names:
                raise InstanceFormatError(
                    "line %d: duplicate name for vertex %d" % (lineno, vid))
            names[vid] = parts[2]
        elif kind in ("f", "o"):
            if len(parts) != 3:
                raise InstanceFormatError(
                    "line %d: edge line must be '%s <u> <v>'" % (lineno, kind))
            u = _vertex(parts[1], n, lineno)
            v = _vertex(parts[2], n, lineno)
            if u == v:
                raise InstanceFormatError(
                    "line %d: self-loop on vertex %d" % (lineno, u))
            (forced if kind == "f" else optional).append(normalized_edge(u, v))
        else:
            raise InstanceFormatError(
                "line %d: unknown record %r" % (lineno, kind))
    if n is None:
        raise InstanceFormatError("missing 'sandwich <n>' header")
    if len(set(forced)) != len(forced) or len(set(optional)) != len(optional):
        raise InstanceFormatError("duplicate edge lines")
    name_tuple = None
    if names:
        if sorted(names) != list(range(n)):
            raise InstanceFormatError(
                "vertex names must cover all of 0..%d or none" % (n - 1))
        name_tuple = tuple(names[v] for v in range(n))
    try:
        return SandwichInstance.build(n, forced, optional, name_tuple)
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from exc


def format_instance(inst):
    """Canonical text for an instance; parse(format(x)) == x bit-exactly."""
    lines = ["sandwich %d" % inst.n]
    if inst.names is not None:
        for v in range(inst.n):
            lines.append("v %d %s" % (v, inst.names[v]))
    for u, v in sorted(inst.forced):
        lines.append("f %d %d" % (u, v))
    for u, v in sorted(inst.optional):
        lines.append("o %d %d" % (u, v))
    return "\n".join(lines) + "\n"


def parse_completion(text, inst=None):
    """Parse `completion [<count>]` + `e <u> <v>` lines into a frozenset.

    With an instance, edges must be among its optional set; a count in the
    header, when present, must match the number of edges.
    """
    chosen = []
    expected = None
    seen_header = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "completion":
            if seen_header:
                raise InstanceFormatError("line %d: duplicate header" % lineno)
            count = parse_int(parts[1]) if len(parts) == 2 else 0
            if len(parts) > 2 or count is None or count < 0:
                raise InstanceFormatError(
                    "line %d: header must be 'completion [<count>]'" % lineno)
            if len(parts) == 2:
                expected = count
            seen_header = True
            continue
        if parts[0] != "e" or len(parts) != 3:
            raise InstanceFormatError(
                "line %d: completion lines are 'e <u> <v>'" % lineno)
        u, v = parse_int(parts[1]), parse_int(parts[2])
        if u is None or v is None:
            raise InstanceFormatError(
                "line %d: vertex ids must be integers" % lineno)
        if u == v:
            raise InstanceFormatError(
                "line %d: self-loop on vertex %d" % (lineno, u))
        chosen.append(normalized_edge(u, v))
    if not seen_header:
        raise InstanceFormatError("missing 'completion' header")
    if len(set(chosen)) != len(chosen):
        raise InstanceFormatError("duplicate edge lines")
    result = frozenset(chosen)
    if expected is not None and expected != len(result):
        raise InstanceFormatError(
            "header promises %d edges, found %d" % (expected, len(result)))
    if inst is not None:
        bad = sorted(e for e in result if e[0] < 0 or e[1] >= inst.n)
        if bad:
            raise InstanceFormatError("edge vertices out of range: %s" % bad)
        stray = result - inst.optional
        if stray:
            raise InstanceFormatError(
                "edges not optional in the instance: %s" % sorted(stray))
    return result


def format_completion(chosen):
    lines = ["completion %d" % len(chosen)]
    for u, v in sorted(chosen):
        lines.append("e %d %d" % (u, v))
    return "\n".join(lines) + "\n"


def roles_payload(kind, formula, inst):
    """JSON-ready description of a reduction output.

    Carries the formula, so gadget maps can be rebuilt deterministically by
    re-running the builder; vertex roles are included for human readers, and
    the CLI refuses a roles file whose vertex roles differ from the rebuilt
    instance's vertex names.
    """
    return {
        "reduction": kind,
        "num_vars": formula.num_vars,
        "clauses": [list(c) for c in formula.clauses],
        "vertex_roles": {str(v): inst.names[v] for v in range(inst.n)},
    }


def dump_roles(kind, formula, inst):
    return json.dumps(roles_payload(kind, formula, inst),
                      indent=2, sort_keys=True) + "\n"


def load_roles(text):
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError("roles file is not valid JSON: %s" % exc)
    if not isinstance(payload, dict):
        raise InstanceFormatError("roles file must hold a JSON object")
    for key in ("reduction", "num_vars", "clauses", "vertex_roles"):
        if key not in payload:
            raise InstanceFormatError("roles file missing %r" % key)
    return payload


def format_dot(inst, chosen=None, graph_name="sandwich"):
    """DOT text: forced edges solid, optional dashed, forbidden omitted.

    With a completion, chosen optional edges are drawn solid bold and the
    remaining optional edges dotted, so the realized graph stands out.
    """
    lines = ["graph %s {" % graph_name]
    for v in range(inst.n):
        lines.append('  %d [label="%s"];' % (v, inst.name(v)))
    for u, v in sorted(inst.forced):
        lines.append("  %d -- %d;" % (u, v))
    for u, v in sorted(inst.optional):
        if chosen is not None and (u, v) in chosen:
            lines.append("  %d -- %d [style=bold];" % (u, v))
        elif chosen is not None:
            lines.append("  %d -- %d [style=dotted];" % (u, v))
        else:
            lines.append("  %d -- %d [style=dashed];" % (u, v))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _vertex(token, n, lineno):
    v = parse_int(token)
    if v is None:
        raise InstanceFormatError(
            "line %d: vertex id %r is not an integer" % (lineno, token))
    if not 0 <= v < n:
        raise InstanceFormatError(
            "line %d: vertex %d out of range 0..%d" % (lineno, v, n - 1))
    return v
