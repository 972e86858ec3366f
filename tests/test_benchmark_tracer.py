"""The benchmark's span tracer patches ltcl functions by name; renaming one
of them must fail here rather than break a traced benchmark pass."""
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    originals = [owner.__dict__[attr] for owner, attr, _, _ in tracer.PATCHES]
    spans = tracer.Tracer()
    spans.install()
    try:
        patched = [owner.__dict__[attr] for owner, attr, _, _ in tracer.PATCHES]
    finally:
        spans.uninstall()
    assert all(new is not old for new, old in zip(patched, originals))
    assert [owner.__dict__[attr] for owner, attr, _, _ in tracer.PATCHES] == originals


def test_traced_gpm_run_counts_steps_and_projections(monkeypatch):
    # train must reach loss_and_gradient through the model class, where the
    # tracer patches it, or training.steps and the step overhead read 0
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    from ltcl import continual, datasets, models, training

    lt = datasets.make_longtail(datasets.synthetic_gaussian(4, 6, 40, 2.0, seed=1), 10.0, seed=2)
    split = datasets.head_tail_split(lt, 0.5)
    phase1 = training.TrainConfig(learning_rate=0.01, momentum=0.9, epochs=3, batch_size=16, seed=0)
    phase2 = training.TrainConfig(learning_rate=0.001, epochs=4, batch_size=2, schedule="cosine", seed=1)
    steps1 = 3 * -(-split.head.n_samples // 16)
    steps2 = 4 * -(-split.tail.n_samples // 2)
    for variant in ("ewc", "lwf", "gpm"):
        model = models.MlpModel.initialize([6, 8, 4], seed=0)
        spans = tracer.Tracer()
        spans.install()
        try:
            continual.run_two_phase(variant, lt, split, phase1, phase2, models.LossSpec(mu=1e-4), model=model)
        finally:
            spans.uninstall()
        summary = tracer.summarize(spans.spans, spans.hook_totals, 1.0)
        # one loss_and_gradient call per step, and none after the last
        assert summary["train_steps"] == steps1 + steps2, variant
        # the first layer trains in its frame; only the hidden layer's inputs are projected
        projections = steps2 if variant == "gpm" else 0
        assert summary["calls"]["continual.gpm_project"] == projections, variant
