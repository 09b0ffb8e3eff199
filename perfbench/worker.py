"""One benchmark process: imports ``spatialfl`` fresh and runs a workload.

    python3 perfbench/worker.py setup PLAN   # import + validate, print "ready"
    python3 perfbench/worker.py ops PLAN     # warm-up op, then timed ops

``run.py`` writes PLAN (a JSON file) and starts this script in the run
directory, with BLAS pinned to one thread and the checkout's ``src`` on
``PYTHONPATH``. In ``ops`` mode the result goes to ``result.json`` there;
with ``plan["trace"]`` set, half the time runs untraced and half traced.
Without it, set-up is timed between ops by starting this script in
``setup`` mode, so that the samples spread over the whole run, and every
timed op and set-up is bracketed by calibration runs (see ``HostSpeed``).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import re
import resource
import shutil
import statistics
import struct
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import spatialfl
import spatialfl.cli
import spatialfl.harness

sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracer import SETUP_OP, Tracer, summarize  # noqa: E402

REPORT_FILES = ("report.json", "tier_accuracy.csv", "global_comparison.csv", "client_predictions.csv")
ACCURACY_LINE = re.compile(r"^accuracy=([0-9.eE+-]+)$", re.MULTILINE)
MIN_OPS = 3
MIN_TRACE_OPS = 2
SETUP_SAMPLES = 20
# Every op writes here. The report records the output directory, and the
# digest must not depend on where the run happens, so the path is relative.
OUT_DIR = Path("out")
# The calibration loop's time at the reference speed. It fixes only the
# scale of the rescaled timings: they read as seconds on a host where the
# loop takes this long.
CAL_REF_S = 0.1
CAL_ROWS = 16_000


class OpFailed(Exception):
    """An op ran but its output is wrong."""


def validate_config(plan: dict):
    """The set-up work an op needs first: validate the workload config."""
    if plan["kind"] == "synthetic":
        return spatialfl.harness.config_from_dict(plan["config"])
    return spatialfl.harness.load_config(plan["config_path"])


def make_op(plan: dict, config):
    """The callable for one op; it writes into a fresh ``out_dir`` and
    returns text to fold into the output digest."""
    if plan["kind"] == "synthetic":
        def op(out_dir: Path) -> str:
            result = spatialfl.harness.run_experiment(config)
            spatialfl.harness.emit_report(result.report, out_dir)
            spatialfl.harness.write_models(result.node_models, out_dir)
            return ""
        return op

    def op(out_dir: Path) -> str:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = spatialfl.cli.main(["run", "--config", plan["config_path"], "--out", str(out_dir)])
            if code == 0:
                code = spatialfl.cli.main([
                    "evaluate-model", "--model", str(out_dir / "models" / "global.bin"),
                    "--data", plan["csv_path"], "--config", plan["config_path"]])
        if code != 0:
            raise OpFailed(f"CLI exited {code}: {stderr.getvalue().strip()}")
        match = ACCURACY_LINE.search(stdout.getvalue())
        if match is None or not 0.0 <= float(match.group(1)) <= 1.0:
            raise OpFailed(f"evaluate-model printed no accuracy in [0, 1]: {stdout.getvalue()!r}")
        return match.group(0)
    return op


def check_outputs(out_dir: Path) -> float:
    """Check an op's files against each other; return the root accuracy
    of the tiered method.

    The report, its CSV tables and the model files are written by
    different code, so agreement between them is a real check: CSV global
    accuracies equal the report's, each client's tier-0 accuracy equals
    its prediction vectors, and there is one well-formed model per node.
    """
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    global_accuracy = report["global_accuracy"]
    if "n_tier_fl" not in global_accuracy:
        raise OpFailed("report has no n_tier_fl global accuracy")
    lines = (out_dir / "global_comparison.csv").read_text(encoding="utf-8").splitlines()[1:]
    if {m: float(a) for m, a in (line.split(",") for line in lines)} != global_accuracy:
        raise OpFailed("global_comparison.csv disagrees with report.json")
    nodes = set()
    for row in report["tier_accuracy"]:
        if not 0.0 <= row["accuracy"] <= 1.0:
            raise OpFailed(f"accuracy out of [0, 1]: {row}")
        if row["method"] != "n_tier_fl":
            continue
        nodes.add(row["node_id"])
        vectors = report["client_predictions"].get(row["node_id"]) if row["tier"] == 0 else None
        if vectors is not None:
            hits = sum(p == a for p, a in zip(vectors["predicted"], vectors["actual"]))
            if hits / len(vectors["actual"]) != row["accuracy"]:
                raise OpFailed(f"client {row['node_id']} accuracy disagrees with its predictions")
    models = sorted((out_dir / "models").glob("*.bin"))
    if len(models) != len(nodes):
        raise OpFailed(f"{len(models)} model files for {len(nodes)} nodes")
    for path in models:
        blob = path.read_bytes()
        dims = struct.unpack("<III", blob[5:17])
        d_in, hidden, classes = dims
        n_params = hidden * d_in + hidden + classes * hidden + classes
        if blob[:5] != b"ESFL\x01" or len(blob) != 17 + 8 * n_params:
            raise OpFailed(f"model file {path.name} is malformed")
        if not np.isfinite(np.frombuffer(blob[17:], dtype="<f8")).all():
            raise OpFailed(f"model file {path.name} holds non-finite values")
    return float(global_accuracy["n_tier_fl"])


def digest_outputs(out_dir: Path, extra: str = "") -> str:
    """sha256 over the report files, every model file and ``extra``."""
    h = hashlib.sha256()
    files = [out_dir / name for name in REPORT_FILES] + sorted((out_dir / "models").glob("*.bin"))
    for path in files:
        blob = path.read_bytes()
        h.update(f"{path.relative_to(out_dir).as_posix()}\0{len(blob)}\0".encode())
        h.update(blob)
    h.update(extra.encode())
    return h.hexdigest()


class OpSet:
    """The ops of one run: times, digests and failures.

    An op fails if it raises, if a check on its output fails, or if its
    digest differs from the first op's.
    """

    def __init__(self, op):
        self.op = op
        self.attempted = self.failed = 0
        self.digest: str | None = None
        self.accuracy: float | None = None
        self.errors: list[str] = []

    def run(self) -> tuple[float, bool]:
        """Run and check one op; return its wall time and whether it passed."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            extra = self.op(OUT_DIR)
            elapsed = time.perf_counter() - start
            accuracy = check_outputs(OUT_DIR)
            digest = digest_outputs(OUT_DIR, extra)
            if self.digest is None:
                self.digest, self.accuracy = digest, accuracy
            elif digest != self.digest:
                raise OpFailed(f"digest {digest[:12]} differs from the first op's {self.digest[:12]}")
            return elapsed, True
        except Exception:  # every failure of an op is counted, never fatal
            self.failed += 1
            self.errors.append(traceback.format_exc())
            return time.perf_counter() - start, False
        finally:
            shutil.rmtree(OUT_DIR, ignore_errors=True)


def calibration_loop() -> float:
    """Wall time of a fixed mix of the kinds of work the program does
    (text parsing, dict and list updates, small matrix products), in code
    that uses nothing from spatialfl."""
    rng = np.random.default_rng(0)
    x, w = rng.standard_normal((32, 16)), 0.25 * rng.standard_normal((16, 16))
    rows: dict[str, list[float]] = {}
    start = time.perf_counter()
    for i in range(CAL_ROWS):
        label, a, b = f"s{i % 80},{i * 0.37:.4f},{-i * 0.11:.4f}".split(",")
        rows.setdefault(label, []).append(float(a) + float(b))
        if i % 6 == 0:
            x = np.tanh(x @ w)
            x -= x.mean(axis=0)
    return time.perf_counter() - start


class HostSpeed:
    """Rescales timings to a reference host speed.

    On a shared host the CPU speed drifts: the same loop runs up to
    twice as long for spells of seconds to tens of minutes, and
    everything CPU-bound slows with it. So each timed sample is bracketed by runs of
    the calibration loop and rescaled to
    ``sample * CAL_REF_S / mean(calibration before, calibration after)``.
    The loop does not depend on the program, so a faster program still
    reads faster.
    """

    def __init__(self, loop=calibration_loop):
        self.loop = loop
        self.calibrations = [loop()]

    def rescale(self, elapsed: float) -> float:
        """Rescale a sample taken since the last calibration, calibrating again after it."""
        self.calibrations.append(self.loop())
        return elapsed * CAL_REF_S / ((self.calibrations[-2] + self.calibrations[-1]) / 2)


def time_setup(plan_path: str) -> float:
    """Wall time from starting a fresh interpreter until it has imported
    spatialfl and validated the config."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, __file__, "setup", plan_path],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = proc.communicate()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up failed (exit {proc.returncode}): {err.strip()}")
    return elapsed


def run_phase(ops: OpSet, seconds: float, min_ops: int, tracer: Tracer | None = None,
              between=None, speed: HostSpeed | None = None) -> tuple[list[float], list[float]]:
    """Closed loop: start an op only after the previous one ended, and no
    new op once ``min_ops`` have run and the next cycle would end past
    ``seconds``. A cycle is an op, its calibration and ``between()``,
    which runs after each op, off the op's clock but within ``seconds``.
    Returns the wall times of the ops that passed and the same times
    rescaled by ``speed`` (unscaled without it)."""
    cycles: list[float] = []
    times: list[float] = []
    scaled: list[float] = []
    start = time.perf_counter()
    while len(cycles) < min_ops or time.perf_counter() - start + statistics.median(cycles) <= seconds:
        cycle = time.perf_counter()
        if tracer is not None:
            tracer.begin(f"op{ops.attempted}")
        elapsed, passed = ops.run()
        if tracer is not None:
            tracer.end()
        rescaled = speed.rescale(elapsed) if speed is not None else elapsed
        if passed:
            times.append(elapsed)
            scaled.append(rescaled)
        if between is not None:
            between()
        cycles.append(time.perf_counter() - cycle)
    return times, scaled


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "spatialfl": spatialfl.__version__,
    }


def run_ops(plan: dict, plan_path: str) -> dict:
    config = validate_config(plan)
    ops = OpSet(make_op(plan, config))
    warmup = time.perf_counter()
    ops.run()  # warm-up: untimed, but its digest is the reference
    warmup = time.perf_counter() - warmup
    seconds = float(plan["seconds"])
    result = {"env": environment()}
    if not plan["trace"]:
        # Set-up samples between ops, spread over the run, so that a slow
        # spell of the host moves only some of them.
        per_gap = math.ceil(SETUP_SAMPLES * warmup / seconds)
        speed = HostSpeed()
        setup: list[float] = []
        setup_scaled: list[float] = []

        def sample_setup(count: int) -> None:
            for _ in range(min(count, SETUP_SAMPLES - len(setup))):
                setup.append(time_setup(plan_path))
                setup_scaled.append(speed.rescale(setup[-1]))

        times, scaled = run_phase(ops, seconds, MIN_OPS, between=lambda: sample_setup(per_gap), speed=speed)
        sample_setup(SETUP_SAMPLES)
        result.update(setup=setup, setup_scaled=setup_scaled, scaled_times=scaled,
                      calibrations=speed.calibrations, cal_ref_s=CAL_REF_S)
    else:
        times, _ = run_phase(ops, seconds / 2, MIN_TRACE_OPS)
        tracer = Tracer()
        tracer.install()
        tracer.begin(SETUP_OP)
        validate_config(plan)
        tracer.end()
        traced, _ = run_phase(ops, seconds / 2, MIN_TRACE_OPS, tracer)
        tracer.uninstall()
        metrics = summarize(tracer.spans, tracer.ops, tracer.finished_counts(), tracer.absent)
        if traced and times:
            metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(times)
        result["layers"] = metrics
        result["absent"] = tracer.absent
        result["traced_times"] = traced
        if plan.get("trace_path"):
            names = sorted({s[0] for s in tracer.spans})
            index = {n: i for i, n in enumerate(names)}
            Path(plan["trace_path"]).write_text(json.dumps({
                "names": names, "ops": tracer.ops,
                "spans": [[index[s[0]], s[1], s[2], s[3], s[4]] for s in tracer.spans],
            }), encoding="utf-8")
    result.update({
        "times": times,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "digest": ops.digest,
        "global_accuracy": ops.accuracy,
        "errors": ops.errors[:3],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    return result


def main(argv: list[str]) -> int:
    mode, plan_path = argv
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    if mode == "setup":
        validate_config(plan)
        print("ready", flush=True)
        return 0
    result = run_ops(plan, plan_path)
    Path("result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
