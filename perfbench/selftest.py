"""Tiny-size self-tests of the benchmark harness (kept out of tier-1).

    python3 perfbench/selftest.py            # or: python3 -m pytest perfbench/selftest.py
"""
from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (pins BLAS threads before numpy loads)

run._import_library()
run.WORK_ROOT.mkdir(exist_ok=True)

from corpus import surrogate, write_idx  # noqa: E402
from ltcl import bounds, datasets, models  # noqa: E402
from tracer import Tracer, summarize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = {
    "grid784": dict(n_per_class=60, n_max=40, imbalance_factors=[10.0], mu_values=[1e-1]),
    "lemma2_cli": dict(n_per_class=60, n_max=40, imbalance_factors=[10.0], mu_values=[1e-1]),
    "two_phase": dict(n_per_class=200, n_test_per_class=20, imbalance_factor=10.0, hidden=8,
                      phase1_epochs=1, phase1_batch=64, phase2_batch=32, gpm_batch=32, mu=1e-4),
}


def test_summarize_self_time_and_steps():
    spans = [
        ["training.train", 0.0, 10.0, -1],
        ["models.loss_and_gradient", 1.0, 3.0, 0],
        ["models.loss_and_gradient", 4.0, 5.0, 0],
        ["continual.fisher_diagonal", 6.0, 9.0, 0],
        ["models.loss_and_gradient", 7.0, 8.0, 3],
    ]
    s = summarize(spans, {}, wall_s=20.0)
    assert s["self"]["training.train"] == 10.0 - 2.0 - 1.0 - 3.0
    assert s["self"]["continual.fisher_diagonal"] == 2.0
    assert s["busy"]["models.loss_and_gradient"] == 4.0
    assert s["calls"]["models.loss_and_gradient"] == 3
    assert s["train_steps"] == 2
    assert s["coverage"] == 0.5


def test_coverage_leaves_out_pass_wrappers():
    spans = [
        ["cli.main", 0.0, 10.0, -1],
        ["bounds.bound_grid", 1.0, 9.0, 0],
        ["bounds.evaluate_cell", 2.0, 6.0, 1],
        ["training.train", 3.0, 5.0, 2],
        ["datasets.make_longtail", 7.0, 8.0, 1],
    ]
    assert summarize(spans, {}, wall_s=10.0)["coverage"] == 0.5


def test_tracer_restores_originals_and_counts_flops():
    before = (bounds.train, models.LinearModel.__dict__["loss_and_gradient"])
    tracer = Tracer()
    tracer.install()
    try:
        model = models.LinearModel.zeros(4, 3)
        model.loss_and_gradient(datasets.synthetic_gaussian(3, 4, 4, 2.0, 0).features, [0] * 12, models.LossSpec())
    finally:
        tracer.uninstall()
    assert (bounds.train, models.LinearModel.__dict__["loss_and_gradient"]) == before
    assert [span[0] for span in tracer.spans] == ["models.loss_and_gradient"]
    flops, nbytes = tracer.hook_totals["models.loss_and_gradient"]
    n, n_params = 12, 4 * 3 + 3
    assert flops == 4 * n * 4 * 3 and nbytes == 8 * (n * 4 + 2 * n_params)


def test_surrogate_matches_test_fixture():
    sys.path.insert(0, str(run.ROOT / "tests"))
    try:
        from _fixtures import _surrogate
    finally:
        sys.path.remove(str(run.ROOT / "tests"))
    ours, theirs = surrogate(4, 7), _surrogate(4, 7)
    assert (ours.features == theirs.features).all() and (ours.labels == theirs.labels).all()


def test_idx_round_trip():
    data = surrogate(3, 5)
    with tempfile.TemporaryDirectory(dir=run.WORK_ROOT) as tmp:
        images, labels = Path(tmp) / "img", Path(tmp) / "lab"
        write_idx(data, images, labels)
        loaded = datasets.load_idx(images, labels)
    assert loaded.features.shape == data.features.shape
    assert (loaded.labels == data.labels).all()


def test_workloads_at_tiny_size():
    with tempfile.TemporaryDirectory(dir=run.WORK_ROOT) as tmp:
        for name, workload in WORKLOADS.items():
            inputs = workload.setup(1, Path(tmp) / name, TINY[name])
            plain = workload.run(inputs)
            tracer = Tracer()
            tracer.install()
            try:
                traced = workload.run(inputs)
            finally:
                tracer.uninstall()
            assert workload.fingerprint(plain) == workload.fingerprint(traced), name
            attempted, failed, notes = workload.check(plain, workload.reference(plain))
            assert attempted >= 1, name
            if name != "two_phase":  # criterion 6 needs the full-size run
                assert failed == 0, (name, notes)
            metrics = run._layer_metrics(summarize(tracer.spans, tracer.hook_totals, 1.0), {}, traced)
            assert [m for m, _, _ in run.PER_LAYER if m not in metrics and not m.startswith("trace.")] == []


def test_benchmark_json_matches_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


def test_compare_flags_regressions_beyond_bound():
    with tempfile.TemporaryDirectory(dir=run.WORK_ROOT) as tmp:
        a, b = Path(tmp) / "a.json", Path(tmp) / "b.json"
        for path, value in ((a, 10.0), (b, 10.1)):
            path.write_text(json.dumps({"results": {"grid784": {"metrics": {"run_s": {"value": value, "unit": "s"}}}}}))
        assert run.compare(a, b) == 0
        b.write_text(json.dumps({"results": {"grid784": {"metrics": {"run_s": {"value": 20.0, "unit": "s"}}}}}))
        assert run.compare(a, b) == 1


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
    print(f"{len(tests)} self-tests passed")
