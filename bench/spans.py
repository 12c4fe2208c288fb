"""Span recorder for the traced run, and the per-layer metrics derived from it.

`instrument(recorder)` replaces public functions of the holesandwich modules
with wrappers that record one span per call: name, start, end, parent, plus
a few counts read off the call's arguments or result.  Several modules import
these functions by name (`from .recognition import check`), so every module
attribute bound to the original function is replaced, not only the defining
one; `restore()` puts the originals back.  Spans stay in memory until the
run ends.

A span's self time is its duration minus the durations of its child spans.
Cycle searches are generators: their span runs from the call to the moment
the generator is exhausted or closed, and the callers close them before
calling any other traced function, so spans nest.
"""

import inspect
import json
import sys
import time

clock = time.perf_counter


class Recorder:
    """Spans as [name, start, end, parent index, info dict]."""

    def __init__(self):
        self.spans = []
        self.stack = []

    def open(self, name, info=None):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, clock(), None, parent, info or {}])
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def close(self, index):
        self.spans[index][2] = clock()
        if self.stack[-1] != index:
            raise RuntimeError("span %s closed out of order" % self.spans[index][0])
        self.stack.pop()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, info in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, **info}) + "\n")


# -- instrumentation -------------------------------------------------------------

def _call_span(rec, name, func, note=None):
    def wrapper(*args, **kwargs):
        index = rec.open(name)
        try:
            result = func(*args, **kwargs)
            if note is not None:
                note(rec.spans[index][4], args, kwargs, result)
            return result
        finally:
            rec.close(index)
    wrapper.__wrapped__ = func
    return wrapper


def _cycle_search_span(rec, name, func, budget_type):
    signature = inspect.signature(func)

    def wrapper(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        if bound.arguments["budget"] is None:
            bound.arguments["budget"] = budget_type(None)
        budget = bound.arguments["budget"]
        return _traced_generator(rec, name, func(*bound.args, **bound.kwargs), budget)
    wrapper.__wrapped__ = func
    return wrapper


def _traced_generator(rec, name, inner, budget):
    # Not pushed on the stack: the caller runs between yields.
    parent = rec.stack[-1] if rec.stack else -1
    info = {"yielded": 0, "expansions": 0}
    rec.spans.append([name, clock(), None, parent, info])
    span = rec.spans[-1]
    spent = budget.spent
    try:
        for item in inner:
            info["yielded"] += 1
            yield item
    finally:
        inner.close()
        info["expansions"] = budget.spent - spent
        span[2] = clock()


def _note_check(info, args, kwargs, result):
    info["prop"] = args[1] if len(args) > 1 else kwargs["prop"]


def _note_nodes(info, args, kwargs, result):
    info["nodes"] = result.nodes


def _note_derived(info, args, kwargs, result):
    info["derived"] = len(result.forced)


def _note_text_in(info, args, kwargs, result):
    info["bytes"] = len(args[0].encode())


def _note_text_out(info, args, kwargs, result):
    info["bytes"] = len(result.encode())


def _note_cli(info, args, kwargs, result):
    argv = args[0] if args else kwargs["argv"]
    info["command"] = argv[0]


TRACED = {
    # module: {function: note}
    "graph": {"iter_chordless_cycles": None},
    "recognition": {"check": _note_check, "verify_certificate": None},
    "sandwich": {"solve": _note_nodes},
    "reduction_even": {"build_even_instance": None,
                       "propagate_orientations": _note_derived,
                       "solve_with_orientations": _note_nodes,
                       "extract_assignment": None},
    "reduction_odd": {"build_c5_instance": None,
                      "build_odd_hole_free_instance": None,
                      "extract_assignment": None},
    "cnf": {"parse_dimacs": None},
    "io": {"format_instance": _note_text_out, "format_completion": _note_text_out,
           "dump_roles": _note_text_out, "parse_instance": _note_text_in,
           "parse_completion": _note_text_in, "load_roles": _note_text_in},
    "cli": {"main": _note_cli},
}


class Instrumentation:
    """Wraps every binding of the TRACED functions across holesandwich.*."""

    def __init__(self, rec):
        from holesandwich.budget import Budget
        self.patched = []
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "holesandwich" or key.startswith("holesandwich."))]
        for short, functions in TRACED.items():
            home = sys.modules["holesandwich." + short]
            for fname, note in functions.items():
                original = getattr(home, fname)
                name = "%s.%s" % (short, fname)
                if short == "graph":
                    wrapper = _cycle_search_span(rec, name, original, Budget)
                else:
                    wrapper = _call_span(rec, name, original, note)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self.patched.append((module, attr, original))

    def restore(self):
        for module, attr, original in reversed(self.patched):
            setattr(module, attr, original)
        self.patched = []


# -- per-layer metrics -------------------------------------------------------------

def self_times(spans):
    own = [s[2] - s[1] for s in spans]
    for name, start, end, parent, info in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _ancestors_named(spans, index, names):
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] in names:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(spans):
    """The per-layer metrics of BENCHMARK.json, from one run's spans.

    `*_self_s` sums self times; every other `*_s` sums the durations of the
    outermost spans of the named functions (a nested call of the same group
    is not counted twice).  Items are the spans named "item".
    """
    own = self_times(spans)

    def select(names, pred=None):
        return [i for i, s in enumerate(spans)
                if s[0] in names and (pred is None or pred(s[4]))]

    def inclusive(*names, pred=None):
        return sum(spans[i][2] - spans[i][1] for i in select(names, pred)
                   if not _ancestors_named(spans, i, names))

    def self_s(*names):
        return sum(own[i] for i in select(names))

    def count(*names):
        return len(select(names))

    def total(key, *names):
        return sum(spans[i][4][key] for i in select(names))

    def cli(command):
        return inclusive("cli.main", pred=lambda info: info["command"] in command)

    items = select(("item",))
    item_time = sum(spans[i][2] - spans[i][1] for i in items)
    return {
        "reduction_even.propagations": (count("reduction_even.propagate_orientations"), "count"),
        "reduction_even.propagate_s": (inclusive("reduction_even.propagate_orientations"), "s"),
        "reduction_even.derived_edges": (total("derived", "reduction_even.propagate_orientations"), "count"),
        "reduction_even.orientation_solve_self_s": (self_s("reduction_even.solve_with_orientations"), "s"),
        "reduction_even.build_s": (inclusive("reduction_even.build_even_instance"), "s"),
        "reduction_even.extract_s": (inclusive("reduction_even.extract_assignment"), "s"),
        "sandwich.solves": (count("sandwich.solve"), "count"),
        "sandwich.nodes": (total("nodes", "sandwich.solve"), "count"),
        "sandwich.solve_self_s": (self_s("sandwich.solve"), "s"),
        "graph.cycle_searches": (count("graph.iter_chordless_cycles"), "count"),
        "graph.cycles_yielded": (total("yielded", "graph.iter_chordless_cycles"), "count"),
        "graph.expansions": (total("expansions", "graph.iter_chordless_cycles"), "count"),
        "graph.cycle_search_self_s": (self_s("graph.iter_chordless_cycles"), "s"),
        "recognition.checks": (count("recognition.check"), "count"),
        "recognition.check_self_s": (self_s("recognition.check"), "s"),
        "recognition.c5_check_s": (inclusive("recognition.check",
                                             pred=lambda info: info["prop"] == "c5-free"), "s"),
        "recognition.certificate_verify_s": (inclusive("recognition.verify_certificate"), "s"),
        "reduction_odd.build_s": (inclusive("reduction_odd.build_c5_instance",
                                            "reduction_odd.build_odd_hole_free_instance"), "s"),
        "reduction_odd.extract_s": (inclusive("reduction_odd.extract_assignment"), "s"),
        "cnf.parse_s": (inclusive("cnf.parse_dimacs"), "s"),
        "io.format_s": (inclusive("io.format_instance", "io.format_completion", "io.dump_roles"), "s"),
        "io.parse_s": (inclusive("io.parse_instance", "io.parse_completion", "io.load_roles"), "s"),
        "io.bytes": (total("bytes", "io.format_instance", "io.format_completion", "io.dump_roles",
                           "io.parse_instance", "io.parse_completion", "io.load_roles"), "bytes"),
        "cli.reduce_s": (cli(("reduce-odd", "reduce-even")), "s"),
        "cli.solve_s": (cli(("solve",)), "s"),
        "cli.extract_s": (cli(("extract",)), "s"),
        "cli.check_s": (cli(("check",)), "s"),
        "traced.items_per_s": (len(items) / item_time, "1/s"),
    }


def unattributed(spans):
    """Item time not covered by the self times of the item's spans (should be ~0)."""
    own = self_times(spans)
    item_time = sum(s[2] - s[1] for s in spans if s[0] == "item")
    return item_time - sum(own)
