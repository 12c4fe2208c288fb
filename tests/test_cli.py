"""Command-line behaviour: pipelines, exit codes, file round trips."""

import gc
import io
import json
import os
import re
import subprocess
import sys
from importlib import import_module

import pytest

import holesandwich
from holesandwich.cli import main
from holesandwich.cnf import CnfFormula
from holesandwich.io import format_instance, parse_instance
from holesandwich.reduction_even import (build_even_instance,
                                         solve_with_orientations)
from holesandwich.reduction_odd import build_c5_instance
from holesandwich.sandwich import SandwichInstance, solve

DIMACS_XYZ = "c one clause\np cnf 3 1\n1 2 3 0\n"
DIMACS_MIXED = "p cnf 3 1\n1 -2 3 0\n"


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "xyz.cnf").write_text(DIMACS_XYZ)
    (tmp_path / "mixed.cnf").write_text(DIMACS_MIXED)
    return tmp_path


def run(*argv):
    return main([str(a) for a in argv])


# -- reduce / solve / extract pipelines -----------------------------------------

def test_even_pipeline(workdir, capsys):
    inst = workdir / "even.inst"
    comp = workdir / "even.comp"
    assert run("reduce-even", workdir / "xyz.cnf", "--out", inst) == 0
    assert (workdir / "even.inst.roles.json").exists()
    assert run("solve", inst, "--property", "even-hole-free",
               "--completion-out", comp) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "SAT"
    assert run("extract", comp, "--roles",
               workdir / "even.inst.roles.json") == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "satisfies formula: true"
    assert all(line.split("=")[1] in ("true", "false")
               for line in out.splitlines()[:-1])


@pytest.mark.parametrize("prop", ["c5-free", "odd-hole-free"])
def test_odd_pipeline(workdir, capsys, prop):
    inst = workdir / "odd.inst"
    comp = workdir / "odd.comp"
    roles = workdir / "odd.roles.json"
    assert run("reduce-odd", workdir / "mixed.cnf", "--property", prop,
               "--out", inst, "--roles", roles) == 0
    assert run("solve", inst, "--property", prop,
               "--completion-out", comp) == 0
    assert capsys.readouterr().out.splitlines()[0] == "SAT"
    assert run("extract", comp, "--roles", roles) == 0
    assert capsys.readouterr().out.splitlines()[-1] == \
        "satisfies formula: true"


def test_solve_roles_routes_even_instances(workdir, capsys):
    (workdir / "two.cnf").write_text("p cnf 4 2\n4 -1 3 0\n1 -3 -2 0\n")
    inst = workdir / "two.inst"
    roles = workdir / "two.inst.roles.json"
    comp = workdir / "two.comp"
    run("reduce-even", workdir / "two.cnf", "--out", inst)
    capsys.readouterr()
    # The generic solver needs 12,512 nodes here.
    assert run("solve", inst, "--property", "even-hole-free",
               "--budget", "20") == 3
    assert capsys.readouterr().out == "BUDGET\n"
    assert run("solve", inst, "--property", "even-hole-free", "--budget",
               "5", "--roles", roles, "--completion-out", comp) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "SAT"
    assert out.splitlines()[1:] == comp.read_text().splitlines()[1:]
    assert run("extract", comp, "--roles", roles) == 0
    assert capsys.readouterr().out.splitlines()[-1] == \
        "satisfies formula: true"

    # Refused: a property the roles file is not for, and another instance.
    assert run("solve", inst, "--property", "odd-hole-free",
               "--roles", roles) == 2
    assert "not odd-hole-free" in capsys.readouterr().err
    other = workdir / "xyz.inst"
    run("reduce-even", workdir / "xyz.cnf", "--out", other)
    assert run("solve", other, "--property", "even-hole-free",
               "--roles", roles) == 2
    assert "does not describe" in capsys.readouterr().err


def test_solve_roles_keeps_generic_solver_for_odd_instances(workdir, capsys):
    inst = workdir / "odd.inst"
    roles = workdir / "odd.roles.json"
    run("reduce-odd", workdir / "mixed.cnf", "--property", "odd-hole-free",
        "--out", inst, "--roles", roles)
    assert run("solve", inst, "--property", "odd-hole-free") == 0
    plain = capsys.readouterr().out
    assert run("solve", inst, "--property", "odd-hole-free",
               "--roles", roles) == 0
    assert capsys.readouterr().out == plain


def test_reduce_writes_parseable_instance(workdir, capsys, monkeypatch):
    assert run("reduce-even", workdir / "xyz.cnf") == 0
    text = capsys.readouterr().out
    inst = parse_instance(text)
    assert inst.n == 16 and len(inst.optional) == 60
    # An instance path of - reads stdin.
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert run("check", "-", "--property", "chordal", "--graph", "g1") == 1
    assert capsys.readouterr().out.startswith("chordal: false")


# -- complement ------------------------------------------------------------------

def test_complement_twice_is_byte_identical(workdir):
    inst = workdir / "even.inst"
    once = workdir / "c1.inst"
    twice = workdir / "c2.inst"
    run("reduce-even", workdir / "xyz.cnf", "--out", inst)
    assert run("complement", inst, "--out", once) == 0
    assert run("complement", once, "--out", twice) == 0
    assert twice.read_bytes() == inst.read_bytes()
    assert once.read_bytes() != inst.read_bytes()


# -- check -----------------------------------------------------------------------

def test_check_verdicts_and_exit_codes(workdir, capsys):
    inst = workdir / "even.inst"
    comp = workdir / "even.comp"
    run("reduce-even", workdir / "xyz.cnf", "--out", inst)
    run("solve", inst, "--property", "even-hole-free",
        "--completion-out", comp)
    capsys.readouterr()

    assert run("check", inst, "--property", "even-hole-free",
               "--completion", comp) == 0
    assert capsys.readouterr().out.startswith("even-hole-free: true")

    assert run("check", inst, "--property", "chordal", "--graph", "g1") == 1
    out = capsys.readouterr().out
    assert out.startswith("chordal: false")
    assert "certificate hole:" in out

    # Ambiguous target graph is a usage error.
    assert run("check", inst, "--property", "chordal") == 2
    assert run("check", inst, "--property", "chordal", "--graph", "g1",
               "--completion", comp) == 2

    # Without optional edges the one sandwich graph, g1, is checked; a
    # forced four-hole cannot be made chordal.
    square = SandwichInstance(4, [(0, 1), (1, 2), (2, 3), (0, 3)], [])
    (workdir / "c4.inst").write_text(format_instance(square))
    capsys.readouterr()
    assert run("check", workdir / "c4.inst", "--property", "chordal") == 1
    assert capsys.readouterr().out.startswith("chordal: false")
    assert run("solve", workdir / "c4.inst", "--property", "chordal") == 1
    assert capsys.readouterr().out == "UNSAT\n"


def test_check_budget_exhaustion_is_exit_three(workdir, capsys):
    inst = workdir / "even.inst"
    run("reduce-even", workdir / "xyz.cnf", "--out", inst)
    capsys.readouterr()
    assert run("check", inst, "--property", "even-hole-free", "--graph",
               "g2", "--budget", "1") == 3


def test_solve_budget_verdict_is_exit_three(workdir, capsys):
    inst = workdir / "even.inst"
    run("reduce-even", workdir / "xyz.cnf", "--out", inst)
    capsys.readouterr()
    assert run("solve", inst, "--property", "even-hole-free",
               "--budget", "1") == 3
    assert capsys.readouterr().out.splitlines()[0] == "BUDGET"


def test_solve_accepts_berge(workdir, capsys):
    # A forced five-cycle is an odd hole; its one optional chord repairs it.
    ring = [(i, (i + 1) % 5) for i in range(5)]
    (workdir / "c5.inst").write_text(
        format_instance(SandwichInstance(5, ring, [(0, 2)])))
    assert run("solve", workdir / "c5.inst", "--property", "berge") == 0
    assert capsys.readouterr().out.splitlines() == ["SAT", "e 0 2"]


# -- extract failure paths -------------------------------------------------------

def test_extract_flags_unsound_completion(workdir, capsys):
    inst = workdir / "even.inst"
    run("reduce-even", workdir / "xyz.cnf", "--out", inst)
    (workdir / "empty.comp").write_text("completion 0\n")
    capsys.readouterr()
    code = run("extract", workdir / "empty.comp", "--roles",
               workdir / "even.inst.roles.json")
    assert code == 1
    assert "error:" in capsys.readouterr().err
    # x1 has no chord in the c5-free graph of the empty completion, nor in
    # the complement of the odd-hole-free graph that takes both its chords.
    (workdir / "chords.comp").write_text("completion\ne 0 2\ne 1 3\n")
    for prop, comp in (("c5-free", "empty.comp"),
                       ("odd-hole-free", "chords.comp")):
        inst = workdir / (prop + ".inst")
        run("reduce-odd", workdir / "xyz.cnf", "--property", prop,
            "--out", inst)
        capsys.readouterr()
        code = run("extract", workdir / comp, "--roles",
                   workdir / (prop + ".inst.roles.json"))
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: variable 1 five-cycle has no chord"]


# -- usage errors ----------------------------------------------------------------

def test_usage_errors_exit_two(workdir, capsys):
    assert run("solve", workdir / "missing.inst",
               "--property", "chordal") == 2
    assert "error:" in capsys.readouterr().err
    (workdir / "bad.inst").write_text("not an instance\n")
    assert run("solve", workdir / "bad.inst", "--property", "chordal") == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as info:
        run("solve", workdir / "bad.inst", "--property", "planar")
    assert info.value.code == 2
    for command, prop in (("solve", "chordal"), ("check", "chordal")):
        with pytest.raises(SystemExit) as info:
            run(command, workdir / "bad.inst", "--property", prop,
                "--budget", "-1")
        assert info.value.code == 2
    # int() would take these three, but no text format does.
    for spelling in ("1_0", "+3", "\u0661"):
        for argv in (("solve", workdir / "bad.inst", "--property", "chordal",
                      "--budget", spelling),
                     ("check", workdir / "bad.inst", "--property", "chordal",
                      "--budget", spelling),
                     ("verify", "--suite", "even-instance-census",
                      "--seed", spelling)):
            with pytest.raises(SystemExit) as info:
                run(*argv)
            assert info.value.code == 2
    capsys.readouterr()
    # A superscript two passes str.isdigit() but not int(); a Latin-1 byte is
    # not UTF-8.  Both are parse errors, not tracebacks.
    (workdir / "ok.inst").write_text("sandwich 3\no 0 1\n")
    (workdir / "sup.inst").write_text("sandwich \u00b2\n", encoding="utf-8")
    (workdir / "sup.comp").write_text("completion \u00b2\n", encoding="utf-8")
    (workdir / "latin1.inst").write_bytes(b"# caf\xe9\nsandwich 3\n")
    # Arabic-Indic digits and a '+' sign pass int() but are not ASCII
    # integers, in instance, completion and DIMACS text alike.
    (workdir / "arabic.inst").write_text("sandwich 3\nf \u0661 \u0662\n",
                                         encoding="utf-8")
    (workdir / "arabic.comp").write_text("completion\ne \u0660 \u0661\n",
                                         encoding="utf-8")
    (workdir / "plus.comp").write_text("completion\ne +0 1\n")
    for argv in ((workdir / "sup.inst",), (workdir / "latin1.inst",),
                 (workdir / "arabic.inst",),
                 (workdir / "ok.inst", "--completion", workdir / "sup.comp"),
                 (workdir / "ok.inst", "--completion", workdir / "arabic.comp"),
                 (workdir / "ok.inst", "--completion", workdir / "plus.comp")):
        assert run("check", *argv, "--property", "chordal") == 2
        assert "error:" in capsys.readouterr().err
    # --completion and --graph each pick the graph to check.
    (workdir / "ok.comp").write_text("completion\ne 0 1\n")
    assert run("check", workdir / "ok.inst", "--property", "chordal",
               "--completion", workdir / "ok.comp", "--graph", "g1") == 2
    assert "mutually exclusive" in capsys.readouterr().err
    for text in ("p cnf \u0663 1\n1 2 3 0\n", "p cnf 3 1\n+1 2 3 0\n"):
        (workdir / "bad.cnf").write_text(text, encoding="utf-8")
        assert run("reduce-even", workdir / "bad.cnf",
                   "--out", workdir / "bad-out.inst") == 2
        assert "error:" in capsys.readouterr().err
    assert run("reduce-even", workdir / "xyz.cnf",
               "--out", workdir / "no-such-dir" / "out.inst") == 2
    assert "cannot write" in capsys.readouterr().err
    for text in ("5\n", "null\n"):
        (workdir / "bad.roles.json").write_text(text)
        assert run("extract", workdir / "bad.inst", "--roles",
                   workdir / "bad.roles.json") == 2
        assert "JSON object" in capsys.readouterr().err
    inst, comp = workdir / "xyz.inst", workdir / "xyz.comp"
    run("reduce-even", workdir / "xyz.cnf", "--out", inst)
    run("solve", inst, "--property", "even-hole-free", "--completion-out",
        comp)
    roles = json.loads((workdir / "xyz.inst.roles.json").read_text())
    # JSON numbers with a fraction part load as floats, which are no
    # variable count or literal.
    for key, value in (("num_vars", 3.0), ("clauses", [[1.0, 2, 3]])):
        (workdir / "bad.roles.json").write_text(json.dumps({**roles,
                                                            key: value}))
        assert run("extract", comp, "--roles", workdir / "bad.roles.json") == 2
        assert "bad formula" in capsys.readouterr().err
    (workdir / "bad.roles.json").write_text(json.dumps({**roles,
                                                        "reduction": "planar"}))
    assert run("extract", comp, "--roles", workdir / "bad.roles.json") == 2
    assert "unknown reduction 'planar'" in capsys.readouterr().err
    roles["vertex_roles"]["0"] = "bogus"
    del roles["vertex_roles"]["5"]
    (workdir / "bad.roles.json").write_text(json.dumps(roles))
    capsys.readouterr()
    for argv in (("extract", comp),
                 ("solve", inst, "--property", "even-hole-free")):
        assert run(*argv, "--roles", workdir / "bad.roles.json") == 2
        assert "vertex_roles" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        run("frobnicate")
    capsys.readouterr()
    assert run("verify", "--suite", "bogus") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: unknown suite 'bogus'")
    assert "even-instance-census" in captured.err


def test_malformed_cnf_exits_two(workdir, capsys):
    (workdir / "bad.cnf").write_text("p cnf 3 1\n1 2 0\n")
    assert run("reduce-even", workdir / "bad.cnf") == 2
    assert "error:" in capsys.readouterr().err


# -- export-dot ------------------------------------------------------------------

def test_export_dot_styles(workdir, capsys):
    inst = workdir / "even.inst"
    comp = workdir / "even.comp"
    run("reduce-even", workdir / "xyz.cnf", "--out", inst)
    run("solve", inst, "--property", "even-hole-free",
        "--completion-out", comp)
    capsys.readouterr()
    assert run("export-dot", inst, "--name", "gadget") == 0
    out = capsys.readouterr().out
    assert out.startswith("graph gadget {")
    assert '[label="H"]' in out
    assert "style=dashed" in out
    assert "style=bold" not in out
    assert run("export-dot", inst, "--completion", comp) == 0
    assert "style=bold" in capsys.readouterr().out


# -- verify ----------------------------------------------------------------------

def test_verify_reports_seed_and_passes(workdir, capsys):
    # Seconds vary from run to run, so they go to stderr: the stdout of one
    # seed stays byte for byte the same, and two runs diff cleanly.
    assert run("verify", "--suite", "even-instance-census",
               "--seed", "5") == 0
    out, err = capsys.readouterr()
    assert out == ("seed 5\n[PASS] 8 even-instance-census: |V|=16 forced=27 "
                   "forbidden=33 optional=60, W degrees 2, matching of 7\n")
    assert re.fullmatch(r"even-instance-census: \d+\.\d{3} s\n", err)
    assert run("verify", "--suite", "even-instance-census") == 0
    assert capsys.readouterr().out.splitlines()[0] == "seed 20240901"


def test_verify_lets_a_suite_error_propagate(monkeypatch, capsys):
    # Only an unknown suite name is a usage error; a ValueError raised
    # inside a suite is a fault of the library and must not exit 2.
    from holesandwich import verify

    def broken(seed):
        raise ValueError("internal fault")

    monkeypatch.setitem(verify.SUITES, "even-instance-census", broken)
    with pytest.raises(ValueError, match="internal fault"):
        run("verify", "--suite", "even-instance-census")
    assert capsys.readouterr().err == ""


# -- memory ----------------------------------------------------------------------

def test_calls_leave_no_cyclic_garbage(workdir):
    # Objects in reference cycles outlive a call until a full collection,
    # which runs rarely; a benchmark item's peak memory counts them.
    formula = CnfFormula(3, ((1, 2, 3),))
    even, gmap = build_even_instance(formula)
    c5, _ = build_c5_instance(formula)
    path = workdir / "c5.inst"
    path.write_text(format_instance(c5))

    def calls():
        assert solve_with_orientations(formula, even, gmap).verdict == "SAT"
        assert solve(c5, "c5-free").verdict == "SAT"
        assert run("solve", path, "--property", "c5-free") == 0

    calls()
    gc.collect()
    gc.disable()
    try:
        calls()
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- console script wiring -------------------------------------------------------

def test_module_entry_point(workdir):
    done = subprocess.run(
        [sys.executable, "-m", "holesandwich.cli", "reduce-even",
         str(workdir / "xyz.cnf")],
        capture_output=True, text=True)
    assert done.returncode == 0
    assert done.stdout.startswith("sandwich 16")


def fresh_imports(module, then=""):
    """The modules that importing `module` adds in a fresh interpreter;
    those its start-up (`site`) already loaded do not count.  `then` is
    more code to run after the import; the words it prints are added."""
    src = os.path.dirname(os.path.dirname(holesandwich.__file__))
    code = ("import sys; sys.path.insert(0, %r); before = set(sys.modules); "
            "import %s; print(*sorted(set(sys.modules) - before)); %s"
            % (src, module, then))
    done = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, check=True)
    return set(done.stdout.split())


STARTUP_MODULES = tuple("holesandwich." + name for name in (
    "graph", "recognition", "sandwich", "reduction_even", "reduction_odd",
    "cnf", "io"))


def test_cli_import_footprint():
    # Every CLI command runs in a fresh process.  dataclasses with inspect
    # would add about 18 ms and 1 MiB to each one's start-up; verify, json
    # and argparse are imported by the code paths that need them.  Without
    # bytecode files each module is compiled from source, so the
    # verification layer lives in verify, off the start-up path.
    verify_only = ("degeneracy_order", "brute_force_solve", "later_degree",
                   "chordless_cycles", "path_graph", "cycle_graph",
                   "complete_graph")
    loaded = fresh_imports("holesandwich.cli", then=(
        "print(*(m + '.' + name for m in %r for name in %r "
        "if hasattr(sys.modules[m], name)))" % (STARTUP_MODULES, verify_only)))
    assert not loaded & {"dataclasses", "inspect", "json", "argparse",
                         "holesandwich.verify", "__future__"}
    assert not {m + "." + name for m in STARTUP_MODULES
                for name in verify_only} & loaded
    # bench/spans.py finds the modules it traces in sys.modules.
    assert set(STARTUP_MODULES) <= loaded


def test_package_facade():
    assert not {m for m in fresh_imports("holesandwich")
                if m.startswith("holesandwich.")}
    for name in holesandwich.__all__:
        value = getattr(holesandwich, name)
        home = import_module("holesandwich." + holesandwich._HOME[name])
        assert value is vars(home)[name]
        assert getattr(value, "__module__", home.__name__) == home.__name__
    # Names are looked up on each access, never bound in the package.
    assert not set(holesandwich.__all__) & set(vars(holesandwich))
    namespace = {}
    exec("from holesandwich import *", namespace)
    del namespace["__builtins__"]
    assert namespace == {name: getattr(holesandwich, name)
                         for name in holesandwich.__all__}
    with pytest.raises(AttributeError, match="no_such_name"):
        holesandwich.no_such_name
