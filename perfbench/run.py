#!/usr/bin/env python3
"""spatialfl benchmark: end-to-end and per-layer metrics on fixed workloads.

    python3 perfbench/run.py --workload synthetic_rounds --seed 1 --seconds 35 --trace 0

Run from the repository root. The workload's inputs are generated from
``--seed``; then one worker process runs a warm-up op and a closed loop
of ops for ``--seconds`` seconds, checks every op's output, and between
ops times set-up (a fresh interpreter that imports ``spatialfl`` and
validates the config). Timings are rescaled to a reference host speed
with a calibration loop run before and after each one. Workload and
metric names, units and directions come from ``BENCHMARK.json``. With
``--trace 0`` the last line of stdout is a JSON result with the
end-to-end metrics, with ``--trace 1`` one with the per-layer metrics of
a separate traced phase. The lines before it give the same numbers for
a reader, with quartiles, the measured wall times, the output digest,
the inputs and the environment. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
TIMEOUT_S = 170.0

# The largest matrix is about 160x30 and the machine has few cores, so
# BLAS threads add scheduler noise and no speed.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


class BenchError(Exception):
    """The benchmark cannot run here; reported on stderr, exit code 2."""


def git_commit(root: Path) -> str:
    """HEAD's commit, if ``root`` is itself a git checkout."""
    try:
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True,
                              env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent)), timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class Bench:
    """One benchmark run in a private directory of the checkout."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: int, trace: bool):
        self.root, self.workload, self.seed, self.seconds, self.trace = root, workload, seed, seconds, trace
        self.run_dir = root / ".perfbench_out" / f"{workload}-seed{seed}-pid{os.getpid()}"
        self.deadline = time.monotonic() + TIMEOUT_S
        env = dict(os.environ, **BLAS_ENV)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
        self.env = env

    def remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("benchmark ran out of time")
        return left

    def run(self) -> dict:
        self.run_dir.mkdir(parents=True)
        plan = workloads.prepare(self.workload, self.seed, self.run_dir)
        plan.update({
            "seconds": self.seconds,
            "trace": self.trace,
            "trace_path": str(self.root / ".perfbench_out" / f"trace-{self.workload}-seed{self.seed}.json")
            if self.trace else None,
        })
        plan_path = self.run_dir / "plan.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")

        # The worker starts set-up processes of its own; a session lets a
        # timeout or a signal stop them together with it.
        proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), "ops", str(plan_path)],
                                cwd=self.run_dir, env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            _, err = proc.communicate(timeout=self.remaining())
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        if proc.returncode != 0:
            raise BenchError(f"worker failed (exit {proc.returncode}): {err.strip()}")
        result = json.loads((self.run_dir / "result.json").read_text(encoding="utf-8"))
        result["inputs"] = plan["inputs"]
        return result

    def close(self) -> None:
        shutil.rmtree(self.run_dir, ignore_errors=True)


def report(args, result: dict, root: Path, spec: dict) -> dict:
    """Print the readable lines and return the final JSON object."""
    times = result["times"]
    attempted, failed = result["attempted"], result["failed"]
    correct = failed == 0 and bool(times) and result["digest"] is not None
    env = dict(result["env"], nproc=len(os.sched_getaffinity(0)), blas_threads=BLAS_ENV,
               commit=git_commit(root), seed=args.seed, workload=args.workload)
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"inputs {json.dumps(result['inputs'], sort_keys=True)}")
    for error in result["errors"]:
        print(f"op error: {error.strip().splitlines()[-1]}")
        print(error, file=sys.stderr)
    def line(name: str, values: list[float], what: str) -> tuple[float, float, float]:
        q = quartiles(values) if values else (0.0, 0.0, 0.0)
        print(f"{args.workload}: {name} median {q[1]:.4f} s (q1 {q[0]:.4f}, q3 {q[2]:.4f}, n={len(values)}) {what}")
        return q

    if not args.trace:
        # The metrics are the timings rescaled to the reference host speed;
        # the measured wall times and the calibrations are printed beside them.
        run_q = line("run_s", result["scaled_times"], "at reference speed")
        line("run_s", times, "measured")
        setup_q = line("setup_s", result["setup_scaled"], "at reference speed")
        line("setup_s", result["setup"], "measured")
        line("calibration", result["calibrations"], f"measured (reference {result['cal_ref_s']} s)")
    else:
        line("run_s", times, "measured")
    print(f"{args.workload}: peak_rss_mb {result['peak_rss_mb']:.1f} MiB")
    print(f"{args.workload}: global_accuracy {result['global_accuracy']} fraction")
    print(f"{args.workload}: fail_rate {failed / attempted:.4f} fraction ({failed}/{attempted} ops)")
    print(f"{args.workload}: digest sha256:{result['digest']}")

    if not args.trace:
        values = {
            "run_s": run_q[1],
            "setup_s": setup_q[1],
            "peak_rss_mb": result["peak_rss_mb"],
            "global_accuracy": result["global_accuracy"] or 0.0,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    else:
        layers = result["layers"]
        if result["absent"]:
            print(f"trace: absent wrap targets {result['absent']}")
        traced = result["traced_times"]
        print(f"trace: traced run_s median {statistics.median(traced) if traced else 0.0:.4f} s "
              f"(n={len(traced)}), overhead {layers.get('trace.overhead_s', 0.0):.4f} s, "
              f"coverage {layers['trace.coverage']:.4f}")
        metrics = {m["name"]: {"value": layers.get(m["name"], 0.0), "unit": m["unit"]} for m in spec["per_layer"]}
        for name, metric in metrics.items():
            print(f"  {name} {metric['value']:.6g} {metric['unit']}")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # A terminated run still stops its worker: SystemExit unwinds through
    # the code that kills and waits for child processes.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd()
    if not (root / "src" / "spatialfl" / "__init__.py").is_file():
        print(f"error: no spatialfl sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    bench = Bench(root, args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        result = bench.run()
        print(json.dumps(report(args, result, root, spec)))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        bench.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
