"""Text formats for instances, completions, and gadget role maps.

Instance files carry forced and optional edges only; forbidden pairs are
derived, so a hand-edited file can never violate the containment invariant.
Serialization is canonical (vertex lines in id order, edge lines
lexicographic), which makes round-trips bit-exact and lets tests compare
files directly.
"""

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
    records = _records(text, "sandwich", "'sandwich <n>'")
    lineno, header = next(records)
    n = parse_int(header[1]) if len(header) == 2 else None
    if n is None or n < 0:
        raise InstanceFormatError(
            "line %d: header must be 'sandwich <n>'" % lineno)
    names = {}
    forced = []
    optional = []
    for lineno, parts in records:
        kind = parts[0]
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
            (forced if kind == "f" else optional).append(
                _pair(parts, n, lineno))
        else:
            raise InstanceFormatError(
                "line %d: unknown record %r" % (lineno, kind))
    if len(set(forced)) != len(forced) or len(set(optional)) != len(optional):
        raise InstanceFormatError("duplicate edge lines")
    name_tuple = None
    if names:
        if sorted(names) != list(range(n)):
            raise InstanceFormatError(
                "vertex names must cover all of 0..%d or none" % (n - 1))
        name_tuple = tuple(names[v] for v in range(n))
    try:
        return SandwichInstance(n, forced, optional, name_tuple)
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


def parse_completion(text, inst):
    """Parse `completion [<count>]` + `e <u> <v>` lines into a frozenset.

    Edges must be among the optional edges of `inst`; a count in the
    header, when present, must match the number of edges.
    """
    records = _records(text, "completion", "'completion'")
    lineno, header = next(records)
    count = parse_int(header[1]) if len(header) == 2 else 0
    if len(header) > 2 or count is None or count < 0:
        raise InstanceFormatError(
            "line %d: header must be 'completion [<count>]'" % lineno)
    chosen = []
    for lineno, parts in records:
        if parts[0] != "e" or len(parts) != 3:
            raise InstanceFormatError(
                "line %d: completion lines are 'e <u> <v>'" % lineno)
        chosen.append(_pair(parts, inst.n, lineno))
    if len(set(chosen)) != len(chosen):
        raise InstanceFormatError("duplicate edge lines")
    result = frozenset(chosen)
    if len(header) == 2 and count != len(result):
        raise InstanceFormatError(
            "header promises %d edges, found %d" % (count, len(result)))
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
    import json
    return json.dumps(roles_payload(kind, formula, inst),
                      indent=2, sort_keys=True) + "\n"


def load_roles(text):
    import json
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

    With a completion, read as `inst.realize` reads it, the optional edges
    of the realized graph are drawn solid bold and the remaining optional
    edges dotted, so that graph stands out.
    Labels are quoted with backslash and double quote escaped; the graph
    name is quoted too unless it is a bare identifier.
    """
    g = None if chosen is None else inst.realize(chosen)
    lines = ["graph %s {" % _dot_id(graph_name)]
    for v in range(inst.n):
        lines.append("  %d [label=%s];" % (v, _dot_string(inst.name(v))))
    for u, v in sorted(inst.forced):
        lines.append("  %d -- %d;" % (u, v))
    for u, v in sorted(inst.optional):
        style = ("dashed" if g is None
                 else "bold" if g.has_edge(u, v) else "dotted")
        lines.append("  %d -- %d [style=%s];" % (u, v, style))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_string(text):
    """`text` as a quoted DOT string."""
    return '"%s"' % text.replace("\\", "\\\\").replace('"', '\\"')


def _dot_id(text):
    """`text` as a DOT ID: bare when it is an identifier and no keyword,
    quoted otherwise."""
    if text.isidentifier() and text.lower() not in (
            "node", "edge", "graph", "digraph", "subgraph", "strict"):
        return text
    return _dot_string(text)


def _records(text, word, spelled):
    """(line number, fields) of each line of `text` that is neither blank
    nor a `#` comment, header (first field `word`) first.  Raises on a
    missing or second header, and on content before it once it is reached,
    so a text without a header reads as missing it."""
    header, early = False, None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields or fields[0].startswith("#"):
            continue
        if fields[0] == word:
            if header:
                raise InstanceFormatError("line %d: duplicate header" % lineno)
            if early is not None:
                raise InstanceFormatError(
                    "line %d: content before %s header" % (early, spelled))
            header = True
        elif not header:
            early = early or lineno
            continue
        yield lineno, fields
    if not header:
        raise InstanceFormatError("missing %s header" % spelled)


def _vertex(token, n, lineno):
    v = parse_int(token)
    if v is None:
        raise InstanceFormatError(
            "line %d: vertex id %r is not an integer" % (lineno, token))
    if not 0 <= v < n:
        raise InstanceFormatError(
            "line %d: vertex %d out of range 0..%d" % (lineno, v, n - 1))
    return v


def _pair(parts, n, lineno):
    """The normalised pair of a `<kind> <u> <v>` line's two vertex ids."""
    u = _vertex(parts[1], n, lineno)
    v = _vertex(parts[2], n, lineno)
    if u == v:
        raise InstanceFormatError(
            "line %d: self-loop on vertex %d" % (lineno, u))
    return normalized_edge(u, v)
