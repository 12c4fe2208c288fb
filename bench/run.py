"""Benchmark of holesandwich: the two reductions and recognition.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole rounds of one workload's items (workloads.py) until S seconds of
wall time have passed, checks every output with the independent checker
(check_outputs.py), and prints one JSON object as the last line of standard
output: correct, attempted, failed and the metrics.

--trace 0 reports the end-to-end metrics: setup_s (median of seven set-ups,
each in a fresh interpreter, spread over the run), item_p50_s, items_per_s and peak_rss_mib.
--trace 1 runs one round, whatever S is, with every traced function wrapped
(spans.py), so its counts repeat exactly for a seed, and reports the
per-layer metrics.  Result and span files go to bench/out/.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(BENCH_DIR, "out")
SETUP_REPEATS = 7
TRACE_ROUNDS = 1
SETUP_TIMEOUT_S = 60


class SetupProbes:
    """setup_s: set-ups timed in fresh interpreters, spread evenly over the run.

    The machine's speed drifts by 10-20 % over tens of seconds, so probes
    taken back to back would all sample one moment; spreading them over the
    run lets their median see the same conditions as the items.
    """

    def __init__(self, workload, seed, seconds):
        self.argv = [sys.executable, os.path.join(BENCH_DIR, "setup_probe.py"),
                     workload, str(seed)]
        self.due = [seconds * k / (SETUP_REPEATS - 1) for k in range(SETUP_REPEATS)]
        self.times = []

    def take(self):
        done = subprocess.run(self.argv, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S, check=True)
        self.times.append(float(done.stdout.split()[-1]))
        self.due.pop(0)

    def between_items(self, elapsed):
        if self.due and elapsed >= self.due[0]:
            self.take()

    def median(self):
        while self.due:
            self.take()
        return statistics.median(self.times)


def run_rounds(wl, seed, seconds, rounds, workdir, rec=None, probes=None):
    """Run whole rounds: `rounds` of them, or as many as come closest to
    `seconds` of wall time (at least one).

    Returns (records, item times of completed items, total item time).
    Input generation and set-up probes happen between items, untimed.
    """
    records, times, busy = [], [], 0.0
    start = time.perf_counter()
    index = 0
    while True:
        for inp in wl.make_round(seed, index):
            if probes is not None:
                probes.between_items(time.perf_counter() - start)
            span = rec.open("item") if rec is not None else None
            t = time.perf_counter()
            try:
                record = wl.run_item(inp, workdir)
            except Exception as exc:  # the item failed; keep running the round
                record = {"failed": True, "error": repr(exc)}
            elapsed = time.perf_counter() - t
            if span is not None:
                rec.close(span)
            busy += elapsed
            if not record["failed"]:
                times.append(elapsed)
            records.append(record)
        index += 1
        elapsed = time.perf_counter() - start
        if rounds is not None and index >= rounds:
            break
        if rounds is None and elapsed + elapsed / index / 2 >= seconds:
            break
    return records, times, busy


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, BENCH_DIR)
    import workloads  # exits with code 2 when the checkout has no sources
    if args.workload not in workloads.WORKLOADS:
        parser.error("unknown workload %r; choose from %s"
                     % (args.workload, ", ".join(workloads.WORKLOADS)))
    wl = workloads.WORKLOADS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, "%s-seed%d-trace%d" % (wl.name, args.seed, args.trace))
    workdir = stem + ".work"
    os.makedirs(workdir, exist_ok=True)

    try:
        if args.trace:
            import spans
            rec = spans.Recorder()
            instrumentation = spans.Instrumentation(rec)
            try:
                records, _, _ = run_rounds(wl, args.seed, args.seconds,
                                           TRACE_ROUNDS, workdir, rec)
            finally:
                instrumentation.restore()
            rec.write(stem + ".spans.jsonl")
            gap = spans.unattributed(rec.spans)
            if abs(gap) > 1e-6:
                raise SystemExit("error: self times miss %.3g s of item time" % gap)
            metrics = spans.layer_metrics(rec.spans)
        else:
            probes = SetupProbes(wl.name, args.seed, args.seconds)
            records, times, busy = run_rounds(wl, args.seed, args.seconds, None,
                                              workdir, probes=probes)
            peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = {
                "setup_s": (probes.median(), "s"),
                "item_p50_s": (statistics.median(times), "s"),
                "items_per_s": (len(times) / busy, "1/s"),
                "peak_rss_mib": (peak_rss_mib, "MiB"),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    import check_outputs  # after the timed items and the RSS reading
    problems = check_outputs.check(wl.name, records)
    for problem in problems[:20]:
        print("incorrect: " + problem, file=sys.stderr)
    for record in records:
        if "error" in record:
            print("failed: " + record["error"], file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": len(records),
        "failed": sum(1 for r in records if r["failed"]),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
