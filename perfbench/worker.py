"""One workload in one process: whole rounds of operations for a set time.

Started by ``run.py`` with netmodal's sources on PYTHONPATH and BLAS pinned
to one thread.  Prints one JSON object as its last line of stdout and lists
failed operations on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

from probe import REF_S, probe_seconds
from spans import Tracer
from workloads import WORKLOADS, Verdict

OUT_DIR = ".perfbench_out"  # scratch inputs and span files, under the checkout
LAYER_TIMES = (
    "network.build_ynodal", "network.build_zsys", "rational.det",
    "rational.pointwise_eval", "rational.eval_grid", "modes.find_modes",
    "modes.mode_artifacts", "modes.residue_by_limit", "netfile.parse",
    "netfile.spectrum_io", "greybox.mode_report", "vectorfit.fit",
)
BY_SIZE = {"network.build_zsys": range(2, 6), "rational.det": range(2, 9)}
PROBE_WINDOW = 4  # probes on each side of an operation that set its host speed


def digits(gap: float) -> float:
    return -math.log10(max(gap, 1e-16))


class Tally:
    """Attempts, failures, operation times and accuracy of one run.  Accuracy is
    kept per passing operation as digits: -log10 of the operation's worst
    relative gap to the oracle."""

    def __init__(self):
        self.rounds = self.attempted = self.failed = 0
        self.op_seconds = {}  # label -> time of that operation in each round, at REF_S
        self.probes = []  # probe_seconds() before each operation and after the last
        self.kept = Counter()
        self.unexpected = Counter()
        self.mode_digits, self.residue_digits = [], []

    def add_round(self, ops, outs) -> None:
        for op, out in zip(ops, outs):
            try:
                verdict = op.check(out)
            except Exception as exc:  # an output the checker cannot read is a failure
                verdict = Verdict(False, f"check raised {type(exc).__name__}: {exc}")
            self.attempted += 1
            if not verdict.ok:
                self.failed += 1
                (self.kept if op.kept else self.unexpected)[f"{op.label}: {verdict.reason}"] += 1
                continue
            if verdict.mode_gap is not None:
                self.mode_digits.append(digits(verdict.mode_gap))
            if verdict.residue_gap is not None:
                self.residue_digits.append(digits(verdict.residue_gap))
        self.rounds += 1


def measure(workload, seconds: float, once: bool = False) -> Tally:
    """Rounds until ``seconds`` of wall time have passed (or one round when
    ``once``).  Only the operations themselves are timed; a host-speed probe
    runs before each of them and after the last.  The times of a workload
    whose work is mostly Python are stated at the reference host speed."""
    tally = Tally()
    start = time.perf_counter()
    timed = []  # (label, wall time, index of the probe just before)
    while True:
        ops = workload.round(tally.rounds)
        outs = []
        for op in ops:
            if op.prepare is not None:
                op.prepare()
            tally.probes.append(probe_seconds())
            t0 = time.perf_counter()
            outs.append(op.run())
            timed.append((op.label, time.perf_counter() - t0, len(tally.probes) - 1))
        tally.add_round(ops, outs)
        if once or time.perf_counter() - start >= seconds:
            break
    tally.probes.append(probe_seconds())
    for label, elapsed, at in timed:
        if workload.python_bound:
            # the host speed around the operation: median of the nearest probes
            near = tally.probes[max(0, at - PROBE_WINDOW + 1):at + PROBE_WINDOW + 1]
            elapsed *= REF_S / statistics.median(near)
        tally.op_seconds.setdefault(label, []).append(elapsed)
    return tally


def ops_per_s(tally: Tally) -> float:
    """Operations of one round over the sum of each operation's median time
    across rounds."""
    times = tally.op_seconds.values()
    return len(times) / sum(statistics.median(t) for t in times)


def end_to_end(tally: Tally) -> dict:
    # no passing operation means no correct digit
    mean = lambda values: statistics.fmean(values) if values else 0.0
    return {
        "ops_per_s": (ops_per_s(tally), "1/s"),
        "peak_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "mode_digits": (mean(tally.mode_digits), "digits"),
        "residue_digits": (mean(tally.residue_digits), "digits"),
    }


def per_layer(tally: Tally, tracer: Tracer, python_bound: bool) -> dict:
    """Layer times and counts per round of the workload; for a workload that
    is mostly Python, times at the reference host speed (by the run's median
    probe)."""
    rounds = tally.rounds
    per_round = (REF_S / statistics.median(tally.probes) if python_bound else 1.0) / rounds
    total, by_size = tracer.layer_totals()
    out = {}
    for name in LAYER_TIMES:
        out[f"{name}_s"] = (total.get(name, 0.0) * per_round, "s")
        for n in BY_SIZE.get(name, ()):
            out[f"{name}_s.n{n}"] = (by_size.get((name, n), 0.0) * per_round, "s")
    out["rational.pointwise_evals"] = (tracer.count("rational.pointwise_eval") / rounds, "count")
    out["modes.modes_found"] = (tracer.results["modes.find_modes"] / rounds, "count")
    out["modes.artifacts_built"] = (tracer.results["modes.mode_artifacts"] / rounds, "count")
    out["cli.self_s"] = (tracer.self_time("cli.main") * per_round, "s")
    out["trace.ops_per_s"] = (ops_per_s(tally), "1/s")
    out["host.probe_s"] = (statistics.median(tally.probes), "s")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one round of a reduced input set")
    args = parser.parse_args(argv)

    out_dir = Path(OUT_DIR)
    out_dir.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=out_dir))
    tracer = Tracer() if args.trace else None
    try:
        workload = WORKLOADS[args.workload](args.seed, work, quick=args.quick)
        if tracer:
            tracer.install()
        try:
            tally = measure(workload, args.seconds, once=args.quick)
        finally:
            if tracer:
                tracer.uninstall()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for kind, failures in (("known fault", tally.kept), ("UNEXPECTED", tally.unexpected)):
        for what, count in sorted(failures.items()):
            print(f"failed ({kind}) x{count}: {what}", file=sys.stderr)
    if tracer:
        tracer.dump(out_dir / f"spans-{args.workload}-seed{args.seed}.json",
                    workload=args.workload, seed=args.seed, rounds=tally.rounds)
        metrics = per_layer(tally, tracer, workload.python_bound)
    else:
        metrics = end_to_end(tally)
    print(json.dumps({
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "rounds": tally.rounds,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
