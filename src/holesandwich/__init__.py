"""Graph sandwich problems for hole-free target classes.

Given a graph of forced edges and a graph of allowed edges, a sandwich for a
property P is any graph between the two that satisfies P.  This package
builds, solves, and verifies sandwich instances whose target properties are
defined by forbidden holes (chordless cycles) and antiholes: chordality,
C5-freeness, odd/even-hole-freeness, odd-antihole-freeness, and Bergeness.

It also ships the two 3-SAT reductions that make the odd and even cases hard,
together with the machinery to check their structural invariants and to pull
satisfying assignments back out of solved instances.

The public names load on first use (PEP 562): `import holesandwich` imports
no submodule, and `holesandwich.solve` imports `holesandwich.sandwich`.
"""

import importlib

_HOME = {name: module for module, names in (
    ("budget", "Budget BudgetExhausted"),
    ("cnf", "CnfFormula all_assignments format_dimacs parse_dimacs"),
    ("graph", "Graph"),
    ("io", "InstanceFormatError format_completion format_dot "
           "format_instance parse_completion parse_instance"),
    ("recognition", "PROPERTY_IDS Certificate check"),
    ("reduction_even", "EvenGadgetMap build_even_instance "
                       "propagate_orientations solve_with_orientations"),
    ("reduction_odd", "GadgetError OddGadgetMap build_c5_instance "
                      "build_odd_hole_free_instance"),
    ("sandwich", "Completion SandwichInstance SolveResult "
                 "complement_instance solve"),
    ("verify", "SUITES CriterionResult brute_force_solve chordless_cycles "
               "five_cycle_census is_sandwich_graph run_suite"),
) for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name):
    # Not cached in this module's namespace, so the value is always the
    # home module's current binding.
    if name not in _HOME:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    return getattr(importlib.import_module("." + _HOME[name], __name__), name)
