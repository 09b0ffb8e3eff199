"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them on
success). The directional criterion retrains twelve clients over thirty
rounds for ten full runs, so this module dominates the suite's runtime.
"""

import math
import statistics
import struct
import time

import numpy as np

from helpers import child_order_models, no_encoding, random_buffer, random_paths, random_tree, spans
from reference import (
    adam_step,
    backward,
    forward,
    init_optimizer_state,
    loss_and_grad,
    params_equal,
)
from spatialfl.baselines import BaselineKind
from spatialfl.data import SyntheticSpec
from spatialfl.errors import SpatialFLError
from spatialfl.federation import (
    MODEL_MAGIC,
    AGGREGATION_MODES,
    AggregationPolicy,
    TierTopology,
    aggregate,
    aggregate_tree,
    deserialize_model,
    serialize_model,
)
from spatialfl.harness import (
    METHOD_TIERED,
    EncodingConfig,
    ExperimentConfig,
    SyntheticSource,
    emit_report,
    run_experiment,
    write_models,
)
from spatialfl.nn import (
    ModelParams,
    TrainingConfig,
    flat_length,
    init_params,
    plan_cohort,
    predict_rows,
    train_cohort,
)


def check(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{status}: {name}{suffix}")
    assert ok, f"{name}{suffix}"


def test_gradient_oracle_finite_differences():
    """backward matches central finite differences on 20 random instances,
    and the training kernel's first step is the Adam step of that gradient."""
    rng = np.random.default_rng(20240901)
    h = 1e-6
    worst = 0.0
    kernel_exact = True
    start = time.perf_counter()
    for instance in range(20):
        dims = (int(rng.integers(1, 9)), int(rng.integers(1, 9)), int(rng.integers(2, 5)))
        n = int(rng.integers(1, 17))
        model = init_params(dims, seed=int(rng.integers(0, 2 ** 32)))
        batch = rng.normal(size=(n, dims[0]))
        labels = rng.integers(0, dims[2], size=n)

        def loss_of(flat_vec):
            m = ModelParams(flat_vec, dims)
            return loss_and_grad(forward(m, batch), labels)[0]

        _, grad_logits = loss_and_grad(forward(model, batch), labels)
        analytic = backward(model, batch, grad_logits)
        flat = model.vector
        numeric = np.zeros_like(flat)
        for i in range(flat.size):
            plus, minus = flat.copy(), flat.copy()
            plus[i] += h
            minus[i] -= h
            numeric[i] = (loss_of(plus) - loss_of(minus)) / (2.0 * h)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-3)
        worst = max(worst, float(np.max(np.abs(analytic - numeric) / denom)))

        # One full-batch epoch of the kernel, whose rows come in the order
        # its seeded generator draws, takes the Adam step of this gradient.
        config = TrainingConfig(epochs=1, batch_size=n)
        raw, codes, enc = no_encoding(batch)
        plan = plan_cohort(raw, labels, codes, enc, spans([0, n]), model.dims, config)
        params, _ = train_cohort(plan, model, [instance])
        order = np.random.default_rng(instance).permutation(n)
        _, grad_logits = loss_and_grad(forward(model, batch[order]), labels[order])
        stepped, _ = adam_step(model, backward(model, batch[order], grad_logits),
                               init_optimizer_state(model), config)
        kernel_exact &= params[0].vector.tobytes() == stepped.vector.tobytes()
    elapsed = time.perf_counter() - start
    check("gradient oracle", worst < 1e-5 and elapsed < 5.0,
          f"max rel err {worst:.2e}, {elapsed:.2f}s")
    check("gradient oracle: training kernel step", kernel_exact, "20 instances bit-exact")


def test_adam_oracle_reference_trajectory():
    """adam_step reproduces a straight-line reference loop within 1e-12."""
    dims = (2, 2, 2)
    n = flat_length(dims)
    target = np.linspace(-2.0, 3.0, n)
    lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
    config = TrainingConfig(learning_rate=lr, adam_beta1=b1, adam_beta2=b2, adam_epsilon=eps)

    x = [0.5] * n
    m = [0.0] * n
    v = [0.0] * n
    reference = []
    for t in range(1, 11):
        g = [x[i] - target[i] for i in range(n)]
        for i in range(n):
            m[i] = b1 * m[i] + (1 - b1) * g[i]
            v[i] = b2 * v[i] + (1 - b2) * g[i] * g[i]
            x[i] -= lr * (m[i] / (1 - b1 ** t)) / (math.sqrt(v[i] / (1 - b2 ** t)) + eps)
        reference.append(list(x))

    params = ModelParams(np.full(n, 0.5), dims)
    state = init_optimizer_state(params)
    worst = 0.0
    for t in range(10):
        grad = params.vector - target
        params, state = adam_step(params, grad, state, config)
        worst = max(worst, float(np.max(np.abs(params.vector - reference[t]))))
    check("adam oracle", worst <= 1e-12, f"max trajectory gap {worst:.2e}")

    # The training kernel follows the same straight-line loop fed with the
    # network's full-batch gradient, its rows in the kernel's seeded order.
    data = np.random.default_rng(5)
    rows, labels = data.normal(size=(6, dims[0])), data.integers(0, dims[2], size=6)
    raw, codes, enc = no_encoding(rows)
    init = init_params(dims, seed=3)
    orders = np.random.default_rng(11)
    x, m, v = init.vector.tolist(), [0.0] * n, [0.0] * n
    kernel_worst = 0.0
    for t in range(1, 11):
        order = orders.permutation(6)
        current = ModelParams(np.array(x), dims)
        _, grad_logits = loss_and_grad(forward(current, rows[order]), labels[order])
        g = backward(current, rows[order], grad_logits).tolist()
        for i in range(n):
            m[i] = b1 * m[i] + (1 - b1) * g[i]
            v[i] = b2 * v[i] + (1 - b2) * g[i] * g[i]
            x[i] -= lr * (m[i] / (1 - b1 ** t)) / (math.sqrt(v[i] / (1 - b2 ** t)) + eps)
        kernel_config = TrainingConfig(learning_rate=lr, epochs=t, batch_size=6, adam_beta1=b1,
                                       adam_beta2=b2, adam_epsilon=eps)
        plan = plan_cohort(raw, labels, codes, enc, spans([0, 6]), init.dims, kernel_config)
        trained, _ = train_cohort(plan, init, [11])
        kernel_worst = max(kernel_worst, float(np.max(np.abs(trained[0].vector - x))))
    check("adam oracle: training kernel", kernel_worst <= 1e-12,
          f"max trajectory gap {kernel_worst:.2e}")


def test_aggregation_algebra():
    """Idempotence, convexity, permutation invariance, single-client identity."""
    rng = np.random.default_rng(77)
    cases = 200

    idempotent = True
    for _ in range(cases):
        dims = (int(rng.integers(1, 5)), int(rng.integers(1, 5)), int(rng.integers(2, 4)))
        p = init_params(dims, seed=int(rng.integers(0, 2 ** 32)))
        k = int(rng.integers(2, 9))
        out = aggregate(np.stack([p.vector] * k), [1.0] * k, "uniform", dims)
        gap = float(np.max(np.abs(out.vector - p.vector)))
        idempotent &= gap <= 1e-15
        if k & (k - 1) == 0:
            idempotent &= params_equal(out, p)
    check("aggregation algebra: idempotence", idempotent, f"{cases} cases")

    convex = True
    for _ in range(cases):
        dims = (2, 3, 2)
        params, counts = random_buffer(int(rng.integers(1, 8)), dims, rng)
        for mode in AGGREGATION_MODES:
            vec = aggregate(params, counts, mode, dims).vector
            convex &= bool(np.all(vec >= params.min(axis=0) - 1e-15))
            convex &= bool(np.all(vec <= params.max(axis=0) + 1e-15))
    check("aggregation algebra: convexity", convex, f"{cases} cases")

    # The order in which the paths are listed does not change the tree,
    # and each interior node folds its children in ascending id order.
    permutation = True
    for _ in range(cases):
        dims = (2, 3, 2)
        paths = random_paths(rng, int(rng.integers(2, 8)))
        topology = TierTopology(paths)
        params, counts = random_buffer(len(topology.clients()), dims, rng)
        permutation &= TierTopology(paths[i] for i in rng.permutation(len(paths))) == topology
        rows = dict(zip(topology.clients(), zip(params, counts)))
        for mode in AGGREGATION_MODES:
            models = aggregate_tree(topology, params, counts, dims, mode)
            expected = child_order_models(topology, rows, dims, mode)
            permutation &= models.keys() == expected.keys()
            permutation &= all(params_equal(models[n], expected[n]) for n in models)
    check("aggregation algebra: permutation bit-invariance", permutation, f"{cases} cases")

    identity = True
    for _ in range(cases):
        dims = (int(rng.integers(1, 5)), int(rng.integers(1, 5)), int(rng.integers(2, 4)))
        params, counts = random_buffer(1, dims, rng)
        for mode in AGGREGATION_MODES:
            identity &= params_equal(aggregate(params, counts, mode, dims), ModelParams(params[0], dims))
    check("aggregation algebra: single-client identity", identity, f"{cases} cases")


def test_hierarchical_flat_equivalence():
    """Sample-weighted roots equal the flat weighted average on 50 trees."""
    rng = np.random.default_rng(4242)
    worst = 0.0
    for _ in range(50):
        topology = random_tree(rng, int(rng.integers(2, 12)))
        params, counts = random_buffer(len(topology.clients()), (2, 3, 2), rng)
        root = aggregate_tree(topology, params, counts, (2, 3, 2), "sample_weighted")[topology.root_id]
        flat = aggregate(params, counts, "sample_weighted", (2, 3, 2))
        worst = max(worst, float(np.max(np.abs(root.vector - flat.vector))))
    check("hierarchical/flat equivalence", worst <= 1e-12, f"50 trees, max gap {worst:.2e}")


def test_per_client_accuracy_vectors():
    """Scoring reproduces the printed per-client accuracies."""
    cases = [
        ([0, 1, 1, 0, 0], [0, 1, 1, 0, 0], 1.0),   # client 0
        ([1, 1, 1, 1, 1], [1, 1, 1, 1, 0], 0.8),   # client 2
        ([1, 1, 1, 2, 1], [1, 0, 1, 0, 1], 0.6),   # client 8
    ]
    exact = all(np.mean(np.array(p) == np.array(a)) == expected for p, a, expected in cases)

    # Same vectors end to end: one-hot rows through an identity-weight model
    # reproduce each predicted vector, and its accuracy against the actual
    # labels is the printed one.
    n_classes = 3
    dims = (n_classes, n_classes, n_classes)
    vec = np.zeros(flat_length(dims))
    eye = np.eye(n_classes).ravel()
    vec[:n_classes * n_classes] = eye
    offset = n_classes * n_classes + n_classes
    vec[offset:offset + n_classes * n_classes] = eye
    identity_model = ModelParams(vec, dims)
    for predicted, actual, expected in cases:
        scored = predict_rows(identity_model, *no_encoding(np.eye(n_classes)[predicted]))
        exact &= scored.tolist() == predicted and np.mean(scored == np.array(actual)) == expected
    check("per-client accuracy vectors", exact, "1.0 / 0.8 / 0.6 exact")


def _directional_config(seed, enabled):
    return ExperimentConfig(
        data=SyntheticSource(SyntheticSpec(
            n_regions=3, clients_per_region=4, rows_per_client=200,
            n_classes=3, region_separation=1.0, noise_rate=0.05, seed=seed,
        )),
        seed=seed,
        encoding=EncodingConfig(enabled=enabled),
        training=TrainingConfig(learning_rate=0.05, epochs=3, batch_size=32),
        hidden_dim=16,
        policy=AggregationPolicy("sample_weighted", rounds=30),
    )


def test_synthetic_directional_result():
    """Spatial encoding lifts global accuracy on the clustered benchmark."""
    start = time.perf_counter()
    seeds = (101, 102, 103, 104, 105)
    encoded, plain = [], []
    for seed in seeds:
        encoded.append(run_experiment(_directional_config(seed, True))
                       .report.global_accuracy[METHOD_TIERED])
        plain.append(run_experiment(_directional_config(seed, False))
                     .report.global_accuracy[METHOD_TIERED])
    elapsed = time.perf_counter() - start
    med_encoded = statistics.median(encoded)
    med_plain = statistics.median(plain)
    check("synthetic directional (a): encoded median >= 0.80",
          med_encoded >= 0.80, f"median {med_encoded:.3f}")
    check("synthetic directional (b): disabling encoding drops >= 0.10",
          med_encoded - med_plain >= 0.10,
          f"encoded {med_encoded:.3f} vs plain {med_plain:.3f}")
    check("synthetic directional runtime < 2 min", elapsed < 120.0, f"{elapsed:.1f}s")


def test_end_to_end_determinism(tmp_path):
    """Two identical runs emit byte-identical reports and model files."""
    def run_into(out_dir):
        config = ExperimentConfig(
            data=SyntheticSource(SyntheticSpec(2, 2, 40, n_classes=2, noise_rate=0.1, seed=23)),
            seed=99,
            training=TrainingConfig(learning_rate=0.05, epochs=3),
            policy=AggregationPolicy("sample_weighted", 2),
            baselines=(BaselineKind.CENTRALIZED_NN, BaselineKind.ENSEMBLE,
                       BaselineKind.FLAT_FEDAVG, BaselineKind.FLAT_FEDAVG_WEIGHTED),
        )
        result = run_experiment(config)
        emit_report(result.report, out_dir)
        write_models(result.node_models, out_dir)
        return sorted(p for p in out_dir.rglob("*") if p.is_file())

    files_a = run_into(tmp_path / "a")
    files_b = run_into(tmp_path / "b")
    names_a = [p.relative_to(tmp_path / "a") for p in files_a]
    names_b = [p.relative_to(tmp_path / "b") for p in files_b]
    identical = names_a == names_b and all(
        a.read_bytes() == b.read_bytes() for a, b in zip(files_a, files_b))
    check("end-to-end determinism", identical,
          f"{len(files_a)} files byte-identical across runs")


def test_model_serialization_contract():
    """Bit-exact round trips; corrupted files rejected with the message
    naming the fault."""
    rng = np.random.default_rng(31337)
    round_trips = True
    for _ in range(25):
        dims = (int(rng.integers(1, 9)), int(rng.integers(1, 9)), int(rng.integers(2, 5)))
        params = init_params(dims, seed=int(rng.integers(0, 2 ** 32)))
        round_trips &= params_equal(deserialize_model(serialize_model(params)), params)

    blob = serialize_model(init_params((2, 3, 2), seed=0))
    corruptions = {
        "bad magic": (b"XXXX" + blob[4:], "bad magic b'XXXX'"),
        "bad version": (blob[:4] + b"\x09" + blob[5:], "unsupported format version 9"),
        "truncated header": (blob[:10], "file too short (10 bytes) for a model header"),
        "short payload": (blob[:-8], "payload is 128 bytes, dims (2, 3, 2) require 136"),
        "trailing bytes": (blob + b"\x00", "payload is 137 bytes, dims (2, 3, 2) require 136"),
        "zero dims": (MODEL_MAGIC + b"\x01" + struct.pack("<III", 0, 3, 2),
                      "header declares invalid dims (0, 3, 2)"),
    }
    rejected = True
    for label, (bad, message) in corruptions.items():
        try:
            deserialize_model(bad)
            rejected = False
        except SpatialFLError as exc:
            rejected &= str(exc) == message
    check("model serialization", round_trips and rejected,
          "25 round trips bit-exact; 6 corruptions rejected")
