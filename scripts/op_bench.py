#!/usr/bin/env python3
"""Time one op of a benchmark workload on two or more source trees, in
one process, alternating between them.

Each tree (a directory that holds ``spatialfl/``) is loaded as its own
package, as in ``kernel_bench.py``, so the trees share one process and
the same spells of host speed. The workload's inputs come from
``perfbench/workloads.prepare``. An op is the one the benchmark's worker
times: ``run_experiment`` plus ``emit_report`` and ``write_models`` for
a synthetic workload, CLI ``run`` plus ``evaluate-model`` for
``csv_deep``. After one untimed op per tree, each pair runs every tree
once, the first tree first in even pairs and last in odd ones.

Prints one JSON line per tree (median and quartiles of its op wall
times in seconds, the pairs in which it was fastest, its output digest:
sha256 over the files the op wrote and what the CLI printed), then one
line that says whether the digests are all equal. A tree whose digest
changes from one op to the next stops the script with exit code 1.

Example:
    OPENBLAS_NUM_THREADS=1 python scripts/op_bench.py --workload csv_deep ../parent/src src
"""

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from kernel_bench import load_package

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

# Every op writes here, relative to the run directory: the report records
# the output directory, so all trees must use one path.
OUT_DIR = Path("out")


def make_op(package, plan: dict):
    """One op of ``plan`` on ``package``: a call that writes into
    ``OUT_DIR`` and returns what the CLI printed."""
    harness = package.harness
    if plan["kind"] == "synthetic":
        config = harness.config_from_dict(plan["config"])

        def op() -> str:
            result = harness.run_experiment(config)
            harness.emit_report(result.report, OUT_DIR)
            harness.write_models(result.node_models, OUT_DIR)
            return ""
        return op

    cli = importlib.import_module(f"{package.__name__}.cli")

    def op() -> str:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(["run", "--config", plan["config_path"], "--out", str(OUT_DIR)])
            if code == 0:
                code = cli.main(["evaluate-model", "--model", str(OUT_DIR / "models" / "global.bin"),
                                 "--data", plan["csv_path"], "--config", plan["config_path"]])
        if code != 0:
            raise SystemExit(f"{package.__name__}: CLI exited {code}: {stderr.getvalue().strip()}")
        return stdout.getvalue()
    return op


def timed(op) -> tuple[float, str]:
    """Run ``op``; return its wall time and its output digest."""
    start = time.perf_counter()
    printed = op()
    elapsed = time.perf_counter() - start
    h = hashlib.sha256()
    for path in sorted(p for p in OUT_DIR.rglob("*") if p.is_file()):
        blob = path.read_bytes()
        h.update(f"{path.as_posix()}\0{len(blob)}\0".encode())
        h.update(blob)
    h.update(printed.encode())
    shutil.rmtree(OUT_DIR)
    return elapsed, h.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("src", nargs="+", type=Path, help="source trees to compare")
    parser.add_argument("--workload", required=True, choices=[*workloads.SYNTHETIC, "csv_deep"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args()
    if len(args.src) < 2 or args.pairs < 2:
        parser.error("give at least two source trees and two pairs")
    packages = [load_package(src, f"spatialfl_tree{i}") for i, src in enumerate(args.src)]
    here = Path.cwd()
    with tempfile.TemporaryDirectory() as run_dir:
        plan = workloads.prepare(args.workload, args.seed, Path(run_dir))
        os.chdir(run_dir)
        try:
            ops = [make_op(package, plan) for package in packages]
            digests = [timed(op)[1] for op in ops]  # warm-up
            times = [[] for _ in ops]
            wins = [0] * len(ops)
            for pair in range(args.pairs):
                order = range(len(ops)) if pair % 2 == 0 else reversed(range(len(ops)))
                this = {}
                for i in order:
                    this[i], digest = timed(ops[i])
                    if digest != digests[i]:
                        raise SystemExit(f"{args.src[i]}: digest {digest[:12]} differs from its first op's")
                    times[i].append(this[i])
                wins[min(this, key=this.get)] += 1
        finally:
            os.chdir(here)
    for src, samples, won, digest in zip(args.src, times, wins, digests):
        q1, median, q3 = statistics.quantiles(samples, n=4)
        print(json.dumps({"workload": args.workload, "seed": args.seed, "tree": str(src),
                          "median_s": round(median, 4), "q1_s": round(q1, 4), "q3_s": round(q3, 4),
                          "pairs": args.pairs, "won": won, "digest": digest}))
    print(json.dumps({"workload": args.workload, "seed": args.seed, "digests_equal": len(set(digests)) == 1}))


if __name__ == "__main__":
    main()
