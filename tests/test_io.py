"""Instance, completion, and roles serialization round trips."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from holesandwich.cnf import CnfFormula
from holesandwich.graph import Graph, _vertex_pair
from holesandwich.io import (InstanceFormatError, dump_roles,
                             format_completion, format_dot, format_instance,
                             load_roles, parse_completion, parse_instance)
from holesandwich.reduction_even import build_even_instance
from holesandwich.sandwich import SandwichInstance

from test_sandwich import instances

SAMPLE = """sandwich 4
v 0 a
v 1 b
v 2 c
v 3 d
f 0 1
f 1 2
o 0 2
"""


def test_parse_sample():
    inst = parse_instance(SAMPLE)
    assert inst.n == 4
    assert inst.forced == {(0, 1), (1, 2)}
    assert inst.optional == {(0, 2)}
    assert inst.names == ("a", "b", "c", "d")
    assert format_instance(inst) == SAMPLE


def test_comments_blank_lines_and_reversed_pairs():
    text = "# heading\nsandwich 3\n\nf 2 1\no 0 2\n# tail\n"
    inst = parse_instance(text)
    assert inst.forced == {(1, 2)}
    assert inst.names is None


@pytest.mark.parametrize("text, message", [
    ("", "missing 'sandwich"),
    ("sandwich\n", "header must be"),
    ("sandwich -1\n", "header must be"),
    ("f 0 1\nsandwich 3\n", "before 'sandwich"),
    ("sandwich 3\nf 0 1\nsandwich 3\n", "duplicate header"),
    ("sandwich 3\nq 0 1\n", "unknown record"),
    ("sandwich 3\nf 0\n", "edge line must be"),
    ("sandwich 3\nf 0 3\n", "out of range"),
    ("sandwich 3\nf 0 0\n", "self-loop"),
    ("sandwich 3\nf 0 1\nf 1 0\n", "duplicate edge"),
    ("sandwich 3\nf 0 1\no 0 1\n", "overlap"),
    ("sandwich 3\nv 0 a\n", "cover all"),
    ("sandwich 3\nv 0 a\nv 0 b\nv 1 c\n", "duplicate name"),
    ("sandwich 2\nv 0 a b\nv 1 c\n", "vertex line must be"),
    ("sandwich 3\nf \u0661 \u0662\n", "not an integer"),
    ("sandwich 3\nf +1 2\n", "not an integer"),
    ("sandwich +3\n", "header must be"),
    ("f 0 1\n", "missing 'sandwich"),
])
def test_parse_instance_rejects(text, message):
    with pytest.raises(InstanceFormatError, match=message):
        parse_instance(text)


@given(instances())
def test_instance_round_trip(inst):
    assert parse_instance(format_instance(inst)) == inst


@given(instances())
def test_round_trip_is_byte_stable(inst):
    text = format_instance(inst)
    assert format_instance(parse_instance(text)) == text


def test_completion_round_trip():
    inst = parse_instance(SAMPLE)
    text = format_completion({(0, 2)})
    assert text == "completion 1\ne 0 2\n"
    assert parse_completion(text, inst) == {(0, 2)}
    assert parse_completion("completion 0\n", inst) == frozenset()
    assert parse_completion("# note\n\ncompletion\n  \ne 0 2\n", inst) \
        == {(0, 2)}


@pytest.mark.parametrize("text, message", [
    ("e 0 1\n", "missing 'completion' header"),
    ("completion x\ne 0 1\n", "header must be"),
    ("completion 2\ne 0 2\n", "promises 2 edges, found 1"),
    ("completion 2\ne 0 2\ne 2 0\n", "duplicate edge"),
    ("completion 1\nedge 0 2\n", "lines are 'e"),
    ("completion\ncompletion 0\n", "line 2: duplicate header"),
    ("completion 1\ne 0 0\n", "self-loop"),
    ("completion 1\ne 0 1\n", "not optional"),
    ("completion 1\ne 9 1\n", "out of range"),
    ("completion 1\ne \u0660 \u0662\n", "not an integer"),
    ("completion 1\ne +0 2\n", "not an integer"),
    ("completion -1\n", "header must be"),
    ("completion\ne -1 2\n", "vertex -1 out of range"),
    ("e 0 2\ncompletion 1\n", "line 1: content before 'completion' header"),
])
def test_parse_completion_rejects(text, message):
    inst = parse_instance(SAMPLE)
    with pytest.raises(InstanceFormatError, match=message):
        parse_completion(text, inst)


def test_roles_round_trip():
    formula = CnfFormula(3, ((1, -2, 3),))
    inst, _ = build_even_instance(formula)
    payload = load_roles(dump_roles("even-hole-free", formula, inst))
    assert payload["reduction"] == "even-hole-free"
    assert payload["num_vars"] == 3
    assert payload["clauses"] == [[1, -2, 3]]
    assert payload["vertex_roles"]["0"] == "H"
    assert len(payload["vertex_roles"]) == inst.n


def test_load_roles_rejects_gaps():
    with pytest.raises(InstanceFormatError, match="JSON"):
        load_roles("{nope")
    with pytest.raises(InstanceFormatError, match="missing"):
        load_roles("{}")


def test_dot_styles():
    inst = SandwichInstance(3, {(0, 1)}, {(1, 2), (0, 2)},
                            names=("u", "v", "w"))
    plain = format_dot(inst)
    assert '0 [label="u"];' in plain
    assert "  0 -- 1;" in plain                     # forced: solid default
    assert "  1 -- 2 [style=dashed];" in plain      # optional: dashed
    assert plain.count("style=dashed") == 2
    chosen = format_dot(inst, {(1, 2)})
    assert "  1 -- 2 [style=bold];" in chosen
    assert "  0 -- 2 [style=dotted];" in chosen


def test_dot_reads_chosen_pairs_as_realize_does():
    inst = SandwichInstance(3, [(0, 1)], [(2, 0)])
    # A chosen pair in either order is drawn bold.
    for chosen in ({(2, 0)}, {(0, 2)}):
        assert "  0 -- 2 [style=bold];" in format_dot(inst, chosen)
    # A chosen pair that is no optional pair is refused, not dropped.
    for chosen in ({(1, 2)}, {(0, 1)}, {(0, 0)}):
        with pytest.raises(ValueError):
            format_dot(inst, chosen)


def _maybe_pairs(n):
    """A vertex count and something that may or may not be a pair of its
    vertices."""
    # In range half the time, so that reversed good pairs are common.
    vertex = st.one_of(st.integers(0, max(n - 1, 0)), st.integers(-2, n + 2))
    scalar = st.one_of(vertex, st.booleans(), st.floats(), st.none())
    thing = st.one_of(scalar, st.tuples(vertex, vertex),
                      st.lists(scalar, max_size=3).map(tuple))
    return st.tuples(st.just(n), thing)


@given(st.integers(0, 5).flatmap(_maybe_pairs))
def test_every_pair_reader_agrees(n_and_e):
    # Graph, the instance, realize and format_dot read a pair one way.
    n, e = n_and_e
    try:
        pair = _vertex_pair(e, n, "edge")
    except ValueError:
        for build in (lambda: Graph(n, [e]),
                      lambda: SandwichInstance(n, [e], []),
                      lambda: SandwichInstance(n, [], [e])):
            with pytest.raises(ValueError):
                build()
        return
    assert Graph(n, [e]).edges() == [pair]
    assert SandwichInstance(n, [e], []).forced == {pair}
    inst = SandwichInstance(n, [], [e])
    assert inst.optional == {pair}
    assert inst.realize([e]).edges() == [pair]
    assert "  %d -- %d [style=bold];" % pair in format_dot(inst, [e])


def test_dot_escapes_labels_and_quotes_names():
    inst = parse_instance('sandwich 2\nv 0 a"b\nv 1 c\\\nf 0 1\n')
    dot = format_dot(inst)
    assert dot.startswith("graph sandwich {")
    assert '  0 [label="a\\"b"];' in dot
    assert '  1 [label="c\\\\"];' in dot
    for name, header in (("my graph", 'graph "my graph" {'),
                         ("Graph", 'graph "Graph" {'),
                         ('x"y', 'graph "x\\"y" {'),
                         ("", 'graph "" {')):
        assert format_dot(inst, graph_name=name).startswith(header)
