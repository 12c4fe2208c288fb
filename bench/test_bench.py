"""Tests of the benchmark itself.

    python3 -m pytest bench

The checker must reject each kind of corrupted answer, a one-item smoke run
of each workload must pass it, and the traced run's self times must add up
to the item time with counts that repeat exactly.
"""

import copy
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check_outputs  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SEED = 1


def first_item(name, workdir, rec=None):
    wl = workloads.WORKLOADS[name]
    inp = wl.make_round(SEED, 0)[0]
    span = rec.open("item") if rec is not None else None
    record = wl.run_item(inp, str(workdir))
    if span is not None:
        rec.close(span)
    return record


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    return {name: first_item(name, tmp_path_factory.mktemp(name))
            for name in workloads.WORKLOADS}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_item_smoke_run_passes(records, name):
    record = records[name]
    assert not record["failed"]
    assert check_outputs.check(name, [record]) == []


def drop_first_chosen_even(rec):
    rec["chosen"] = rec["chosen"][1:]


def flip_x1_even(rec):
    rec["assignment"][1] = not rec["assignment"][1]


def negate_even(rec):
    rec["verdict"] = "UNSAT"


def without_first_edge(text):
    lines = text.splitlines(keepends=True)
    del lines[next(i for i, line in enumerate(lines) if line.startswith("e "))]
    return "".join(lines)


def drop_first_chosen_odd(rec):
    # From the completion file and the solve output alike, so the two agree.
    rec["c5_completion"] = without_first_edge(rec["c5_completion"])
    rec["stdout"]["solve_c5"] = without_first_edge(rec["stdout"]["solve_c5"])


def flip_x1_odd(rec):
    text = rec["stdout"]["extract"]
    rec["stdout"]["extract"] = (text.replace("x1=true", "x1=false") if "x1=true" in text
                                else text.replace("x1=false", "x1=true"))


def negate_odd(rec):
    rec["stdout"]["solve_c5"] = rec["stdout"]["solve_c5"].replace("SAT", "UNSAT", 1)


def negate_recognize(rec):
    answer = rec["answers"]["c5-free"]
    answer["verdict"] = not answer["verdict"]


CORRUPTIONS = [
    ("even-roundtrip", drop_first_chosen_even),
    ("even-roundtrip", flip_x1_even),
    ("even-roundtrip", negate_even),
    ("odd-roundtrip", drop_first_chosen_odd),
    ("odd-roundtrip", flip_x1_odd),
    ("odd-roundtrip", negate_odd),
    ("recognize", negate_recognize),
]


@pytest.mark.parametrize("name,corrupt", CORRUPTIONS,
                         ids=["%s-%s" % (n, c.__name__) for n, c in CORRUPTIONS])
def test_checker_rejects_corrupted_answer(records, name, corrupt):
    record = copy.deepcopy(records[name])
    corrupt(record)
    assert check_outputs.check(name, [record]) != []


def traced_counts(tmp_path):
    rec = spans.Recorder()
    instrumentation = spans.Instrumentation(rec)
    try:
        for name in ("even-roundtrip", "odd-roundtrip"):
            first_item(name, tmp_path, rec)
    finally:
        instrumentation.restore()
    assert abs(spans.unattributed(rec.spans)) < 1e-6
    metrics = spans.layer_metrics(rec.spans)
    return {k: v for k, (v, unit) in metrics.items() if unit == "count"}


def test_traced_counts_repeat_and_restore(tmp_path):
    from holesandwich import cli, recognition, sandwich
    before = (recognition.check, sandwich.check, cli.solve)
    first = traced_counts(tmp_path)
    assert first == traced_counts(tmp_path)
    assert (recognition.check, sandwich.check, cli.solve) == before
    for key in ("reduction_even.propagations", "sandwich.nodes", "graph.expansions",
                "recognition.checks"):
        assert first[key] > 0
