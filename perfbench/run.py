"""netmodal benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload corpus|greybox|fit --seed N \
        --seconds S --trace 0|1 [--quick]

Run from the root of a netmodal checkout.  The workload runs in a fresh
worker process with netmodal's sources on PYTHONPATH and BLAS pinned to one
thread.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics (with
``setup_s``, the median wall time of a fresh process importing
``netmodal.cli``) for ``--trace 0``, the per-layer metrics of a traced run
for ``--trace 1``.  Failed operations are listed on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probe import REF_S, probe_seconds

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 9
WORKER_GRACE_S = 150  # worker time allowed beyond --seconds (last round, checks)


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def setup_seconds(env: dict, repeats: int) -> float:
    """Median wall time of a fresh interpreter importing netmodal.cli, at the
    reference host speed (see probe.py).  One extra import first fills the
    bytecode cache, which users have warm."""
    times, probes = [], []
    for k in range(repeats + 1):
        probes.append(probe_seconds())
        t0 = time.perf_counter()
        # no timeout: with one, the wait polls in steps of up to 50 ms
        subprocess.run([sys.executable, "-c", "import netmodal.cli"], env=env, cwd=ROOT,
                       check=True)
        if k:
            times.append(time.perf_counter() - t0)
    return statistics.median(times) * REF_S / statistics.median(probes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("corpus", "greybox", "fit"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--quick", action="store_true",
                        help="one round of a reduced input set (the benchmark's own tests)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "netmodal" / "cli.py").is_file():
        print(f"error: no netmodal sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = child_env()
    try:
        setup = None if args.trace else setup_seconds(env, 1 if args.quick else SETUP_REPEATS)
        command = [sys.executable, str(ROOT / "perfbench" / "worker.py"),
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.quick:
            command.append("--quick")
        worker = subprocess.run(command, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                                text=True, timeout=args.seconds + WORKER_GRACE_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if worker.returncode != 0:
        print(f"error: worker exited with {worker.returncode}", file=sys.stderr)
        return 1
    result = json.loads(worker.stdout.strip().splitlines()[-1])
    metrics = result["metrics"]
    if setup is not None:
        metrics["setup_s"] = {"value": setup, "unit": "s"}
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed")}
                     | {"metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
