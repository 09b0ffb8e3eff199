#!/usr/bin/env python3
"""Time the training kernel at the benchmark's shapes: planning a cohort
apart from training it, per step iteration.

For the model dims of the ``synthetic_rounds`` and ``fanout_eval``
benchmark workloads, plans and trains cohorts of g = 1, 5, 12 and 19
clients of the workload's training-row count (one ``nn.plan_cohort`` and
one ``nn.train_cohort`` call of one cohort, batch 32, 10 epochs, one
encoding per client, laid out as the workload's vocabulary lays it out:
two coordinates, then one set column in each level's one-hot block) and
prints one JSON line per shape: the median and quartiles over
``--repeats`` calls of the training call's wall time per step iteration,
in microseconds, the plan call's wall time, the two together per step
iteration, the input width the cohort trains at (its active columns, or
every column for a tree whose ``plan_cohort`` takes no encoding
columns), and the floats the training call returns (the cohort's
compact values, or a dense ``(K, P)`` buffer for a tree that returns
one). A step iteration is one step of every client of the cohort. A run trains one plan many times, so work moved from training
into the plan shows as plan time.

Given source trees (each a directory that holds ``spatialfl/``), the
script loads each as its own package and alternates calls between them,
so that the trees of a before/after pair share one process and the same
spells of host speed. Without a tree it times ``src/`` of this
checkout.

Example:
    python scripts/kernel_bench.py
    OPENBLAS_NUM_THREADS=1 python scripts/kernel_bench.py ../parent/src src
"""

import argparse
import importlib.util
import inspect
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

# Workload: (input_dim, hidden_dim, n_classes), encoding width, training
# rows per client, the sizes of the encoding's one-hot blocks (leaves,
# then regions) after its two coordinate columns.
SHAPES = {
    "synthetic_rounds": ((19, 16, 3), 17, 160, (12, 3)),
    "fanout_eval": ((164, 16, 3), 162, 40, (150, 10)),
}
COHORTS = (1, 5, 12, 19)
BATCH_SIZE = 32
EPOCHS = 10


def load_package(src: Path, name: str):
    """The ``spatialfl`` package under ``src``, imported as the package
    ``name``."""
    package = src.resolve() / "spatialfl"
    spec = importlib.util.spec_from_file_location(name, package / "__init__.py",
                                                  submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def encoding_table(clients, e_dim, levels):
    """Client ``k``'s encoding as a vocabulary lays it out, and its
    layout: two coordinates in [0, 1), then in each one-hot block of
    ``levels`` (``e_dim`` columns in all) the column of label
    ``k % size`` set to 1.0."""
    if e_dim != 2 + sum(levels) and not (e_dim < 2 and not levels):
        raise SystemExit(f"encoding width {e_dim} is not two coordinates and blocks {levels}")
    coords = min(2, e_dim)
    columns = np.empty((clients, coords + len(levels)), dtype=np.intp)
    columns[:, :coords] = np.arange(coords)
    start = coords
    for j, size in enumerate(levels):
        columns[:, coords + j] = start + np.arange(clients) % size
        start += size
    enc = np.zeros((clients, e_dim))
    enc[:, :coords] = np.random.default_rng(1).uniform(size=(clients, coords))
    enc[np.arange(clients)[:, None], columns[:, coords:]] = 1.0
    return enc, columns


def takes_columns(nn) -> bool:
    """Whether a tree's ``plan_cohort`` takes the encoding's layout."""
    return "columns" in inspect.signature(nn.plan_cohort).parameters


def cohort_call(nn, dims, e_dim, rows, clients, levels=()):
    """Two calls that plan and train ``clients`` clients of ``rows`` rows
    each at ``dims``, encoded as :func:`encoding_table` lays them out: a
    zero-argument call that returns the plan and a call that trains it,
    and the number of step iterations."""
    rng = np.random.default_rng(0)
    n = clients * rows
    raw = rng.normal(size=(n, dims[0] - e_dim))
    labels = rng.integers(0, dims[2], size=n)
    codes = np.repeat(np.arange(clients), rows)
    enc, columns = encoding_table(clients, e_dim, levels)
    layout = (columns,) if takes_columns(nn) else ()
    spans = [np.arange(k * rows, (k + 1) * rows) for k in range(clients)]
    init = nn.init_params(dims, 0)
    config = nn.TrainingConfig(learning_rate=0.05, epochs=EPOCHS, batch_size=BATCH_SIZE)
    seeds = list(range(clients))
    if len(nn.plan_cohort(raw, labels, codes, enc, spans, dims, config, *layout).parts) != 1:
        raise SystemExit(f"{clients} clients at {dims} do not fit one cohort")
    iterations = -(-rows // BATCH_SIZE) * EPOCHS
    return (lambda: nn.plan_cohort(raw, labels, codes, enc, spans, dims, config, *layout),
            lambda plan: nn.train_cohort(plan, init, seeds), iterations)


def active_width(nn, dims, e_dim, levels):
    """The input width a tree trains a client of :func:`encoding_table` at."""
    return dims[0] - e_dim + min(2, e_dim) + len(levels) if takes_columns(nn) else dims[0]


def result_floats(result) -> int:
    """The floats a training call's models hold: each cohort's compact
    values (``nn.ClientModels``), or every entry of a dense buffer."""
    return sum(values.size for values in result.values) if hasattr(result, "values") else result.size


def quartiles(samples):
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return round(median, 1), round(q1, 1), round(q3, 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("src", nargs="*", type=Path, help="source trees to compare (default: src/)")
    parser.add_argument("--repeats", type=int, default=41)
    args = parser.parse_args()
    trees = args.src or [Path(__file__).resolve().parents[1] / "src"]
    modules = [load_package(src, f"spatialfl_tree{i}").nn for i, src in enumerate(trees)]
    for workload, (dims, e_dim, rows, levels) in SHAPES.items():
        for clients in COHORTS:
            calls = [cohort_call(nn, dims, e_dim, rows, clients, levels) for nn in modules]
            floats = [result_floats(train(plan())[0]) for plan, train, _ in calls]  # warm-up
            # Per tree: plan microseconds per call, training and both per step iteration.
            times = [([], [], []) for _ in calls]
            for r in range(args.repeats):
                # Alternate which tree runs first.
                for i in (range(len(calls)) if r % 2 == 0 else reversed(range(len(calls)))):
                    plan, train, iterations = calls[i]
                    start = time.perf_counter()
                    planned = plan()
                    middle = time.perf_counter()
                    train(planned)
                    end = time.perf_counter()
                    times[i][0].append((middle - start) * 1e6)
                    times[i][1].append((end - middle) / iterations * 1e6)
                    times[i][2].append((end - start) / iterations * 1e6)
            for src, nn, (plan_us, train_us, call_us), returned in zip(trees, modules, times, floats):
                median, q1, q3 = quartiles(train_us)
                print(json.dumps({"workload": workload, "dims": dims, "clients": clients, "rows": rows,
                                  "active_width": active_width(nn, dims, e_dim, levels),
                                  "tree": str(src), "us_per_iteration": median, "q1": q1, "q3": q3,
                                  "plan_us": quartiles(plan_us)[0],
                                  "plan_and_train_us_per_iteration": quartiles(call_us)[0],
                                  "result_floats": returned, "repeats": args.repeats}))


if __name__ == "__main__":
    main()
