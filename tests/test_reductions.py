"""Each builder's gadget map translates the instance that builder returned."""

import copy
import pickle
from itertools import product

import pytest

from holesandwich import reduction_even, reduction_odd
from holesandwich.cnf import CnfFormula, all_assignments
from holesandwich.recognition import check

# property -> (module holding the gadget map's translations, builder)
BUILDERS = {
    "c5-free": (reduction_odd, reduction_odd.build_c5_instance),
    "odd-hole-free": (reduction_odd,
                      reduction_odd.build_odd_hole_free_instance),
    "even-hole-free": (reduction_even, reduction_even.build_even_instance),
}

# Every sign pattern of one clause, and one formula with two clauses.
FORMULAS = [CnfFormula(3, (tuple(s * v for s, v in zip(signs, (1, 2, 3))),))
            for signs in product((1, -1), repeat=3)]
FORMULAS.append(CnfFormula(4, ((1, 2, 3), (-2, -3, 4))))


@pytest.mark.parametrize("formula", FORMULAS,
                         ids=lambda f: "/".join(map(str, f.clauses)))
@pytest.mark.parametrize("prop", list(BUILDERS))
def test_gadget_map_translates_its_builders_instance(prop, formula):
    module, build = BUILDERS[prop]
    inst, gmap = build(formula)
    for assignment in all_assignments(formula.num_vars):
        if not formula.satisfied_by(assignment):
            continue
        chosen = module.completion_from_assignment(gmap, assignment)
        g = inst.realize(chosen)
        assert check(g, prop)[0], assignment
        assert module.extract_assignment(gmap, g) == assignment


@pytest.mark.parametrize("prop", list(BUILDERS))
def test_gadget_map_is_a_record_of_its_formula(prop):
    # The maps hold dicts, so they compare by value but do not hash.
    build = BUILDERS[prop][1]
    formula = FORMULAS[-1]
    _, gmap = build(formula)
    _, twin = build(formula)
    assert isinstance(gmap, tuple)
    assert gmap == twin and gmap is not twin
    assert gmap.formula == formula
    with pytest.raises(AttributeError):
        gmap.formula = FORMULAS[0]
    assert copy.deepcopy(gmap) == gmap
    assert pickle.loads(pickle.dumps(gmap)) == gmap


def test_odd_hole_free_map_is_the_c5_map_complemented():
    _, c5_map = reduction_odd.build_c5_instance(FORMULAS[-1])
    _, odd_map = reduction_odd.build_odd_hole_free_instance(FORMULAS[-1])
    assert odd_map == c5_map._replace(complemented=True)
    assert not c5_map.complemented
