import ast
import copy
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from ltcl import bounds, cli, continual
from ltcl.errors import ConfigError


def _bound_grid_config(out_dir):
    return {
        "schema_version": 1,
        "kind": "bound_grid",
        "seed": 7,
        "output_dir": str(out_dir),
        "dataset": {
            "source": "synthetic",
            "n_classes": 5,
            "n_features": 6,
            "n_per_class": 60,
            "class_separation": 2.5,
        },
        "longtail": {"imbalance_factors": [5, 20], "head_fraction": 0.6},
        "bound_grid": {"mu_values": [0.05, 0.1]},
    }


PHASE2_EPOCHS = {"naive": 20, "ewc": 20, "gpm": 10, "lwf": 5, "modified_ewc": 20}


def _two_phase_config(out_dir, strategies=None):
    strategies = ["naive", "ewc"] if strategies is None else strategies
    return {
        "schema_version": 1,
        "kind": "ltr_two_phase",
        "seed": 3,
        "output_dir": str(out_dir),
        "dataset": {
            "source": "synthetic",
            "n_classes": 5,
            "n_features": 8,
            "n_per_class": 80,
            "class_separation": 2.5,
            "test_n_per_class": 40,
        },
        "longtail": {"imbalance_factor": 20, "head_fraction": 0.6},
        "loss": {"mu": 0.0001},
        "model": {"kind": "mlp", "hidden_sizes": [16]},
        "phase1": {"epochs": 15},
        "strategies": strategies,
        # a table only for each strategy that runs: an unrun one is an error
        "strategy_overrides": {name: {"epochs": PHASE2_EPOCHS[name]} for name in strategies if name in PHASE2_EPOCHS},
    }


def _write_config(tmp_path, cfg, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return path


def test_unknown_top_level_key_rejected(tmp_path):
    cfg = _bound_grid_config(tmp_path / "out")
    cfg["bogus"] = 1
    with pytest.raises(ConfigError, match="bogus"):
        cli.validate_config(cfg)


def test_unknown_nested_key_rejected(tmp_path):
    cfg = _bound_grid_config(tmp_path / "out")
    cfg["dataset"]["n_classs"] = 10
    with pytest.raises(ConfigError, match="dataset.n_classs"):
        cli.validate_config(cfg)


def test_missing_required_field(tmp_path):
    cfg = _bound_grid_config(tmp_path / "out")
    del cfg["bound_grid"]["mu_values"]
    with pytest.raises(ConfigError, match="mu_values"):
        cli.validate_config(cfg)


def test_invalid_values_rejected(tmp_path):
    bad = [
        ("kind", "mystery"),
        ("schema_version", 99),
        ("workers", 0),
    ]
    for field, value in bad:
        cfg = _bound_grid_config(tmp_path / "out")
        cfg[field] = value
        with pytest.raises(ConfigError, match=field):
            cli.validate_config(cfg)
    cfg = _bound_grid_config(tmp_path / "out")
    cfg["bound_grid"]["grad_tolerance"] = 0.0
    with pytest.raises(ConfigError, match="bound_grid.grad_tolerance"):
        cli.validate_config(cfg)
    # a repeated value used to write one cell twice, with different delta_hat
    for section, field in [("longtail", "imbalance_factors"), ("bound_grid", "mu_values")]:
        cfg = _bound_grid_config(tmp_path / "out")
        cfg[section][field] = [0.1, 5, 0.1] if field == "mu_values" else [5, 20, 5.0]
        with pytest.raises(ConfigError, match=f"{section}.{field}.*distinct"):
            cli.validate_config(cfg)
    cfg = _bound_grid_config(tmp_path / "out")
    cfg["seed"] = -1
    with pytest.raises(ConfigError, match="seed"):
        cli.validate_config(cfg)
    # each of these used to pass validation and crash later with a raw traceback
    for keys, value in [
        (("longtail", "n_max"), 0),
        (("strategy_overrides", "gpm", "energy_threshold"), 1.5),
        (("strategy_overrides", "ewc", "fisher_max_samples"), 0),
        (("strategy_overrides", "lwf", "temperature"), 0),
        (("model", "hidden_sizes"), [True]),
        # a train key is checked by its TrainConfig rule, under its own key path
        (("phase1", "momentum"), 1.5),
        (("phase1", "schedule"), "linear"),
        (("strategy_overrides", "ewc", "momentum"), 1.0),
        (("strategy_overrides", "gpm", "learning_rate"), -1.0),
        (("strategy_overrides", "lwf", "cl_weight"), -5),
    ]:
        cfg = _two_phase_config(tmp_path / "out", strategies=list(cli.VARIANTS))
        section = cfg
        for key in keys[:-1]:
            section = section[key]
        section[keys[-1]] = value
        with pytest.raises(ConfigError, match=re.escape(f"config field '{'.'.join(keys)}': ")):
            cli.validate_config(cfg)
    # a negative weight would reward moving away from the Phase-1 anchor or teacher
    assert cli.main(["two-phase", "--config", str(_write_config(tmp_path, cfg))]) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "flags, name, text",
    [
        (["--seed", "-1"], None, None),
        (["--workers", "0"], None, None),
        ([], "bad.yaml", "kind: [unclosed\n"),
        ([], "bad.json", "{not json"),
        ([], "missing.yaml", None),
    ],
)
def test_bad_overrides_and_unreadable_configs_exit_1(tmp_path, capsys, flags, name, text):
    out = tmp_path / "out"
    path = _write_config(tmp_path, _bound_grid_config(out))
    if name is not None:  # replace the valid config with an unreadable one
        path = tmp_path / name
        if text is not None:
            path.write_text(text)
    assert cli.main(["bound-grid", "--config", str(path), *flags]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


# a valid grid config that names no output directory
_GRID_YAML = ("schema_version: 1\nkind: bound_grid\ndataset: {source: synthetic}\n"
              "longtail: {imbalance_factors: [5]}\nbound_grid: {mu_values: [0.1]}\n")


@pytest.mark.parametrize("name, text, message", [
    # JSON's NaN and YAML's .inf are floats, but no finite ones
    pytest.param("nan.json", json.dumps({**yaml.safe_load(_GRID_YAML), "bound_grid": {"mu_values": [math.nan]}}),
                 "config field 'bound_grid.mu_values': must be finite", id="json-nan"),
    pytest.param("inf.yaml", _GRID_YAML.replace("[5]", "[.inf]"),
                 "config field 'longtail.imbalance_factors': must be finite", id="yaml-inf"),
    pytest.param("list.yaml", "- schema_version: 1\n", "config field '<root>': config must be a mapping",
                 id="not-a-mapping"),
    pytest.param("grid.yaml", _GRID_YAML, "config field 'output_dir': set output_dir in the config or pass --out",
                 id="no-output-dir"),
])
def test_a_config_that_cannot_run_exits_1_with_one_line_and_no_output(tmp_path, capsys, monkeypatch, name, text,
                                                                      message):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / name
    path.write_text(text)
    assert cli.main(["bound-grid", "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == [path]


def test_empty_head_grid_exits_3_and_names_the_fraction(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _bound_grid_config(out)
    cfg["dataset"]["n_classes"] = 10
    cfg["longtail"]["head_fraction"] = 0.05  # floor(10 * 0.05) = 0 head classes
    assert cli.main(["bound-grid", "--config", str(_write_config(tmp_path, cfg))]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "head fraction 0.05 of 10 classes" in err
    assert not (out / "bounds.csv").exists()


def test_pool_factor_not_dividing_the_image_exits_3(tmp_path, capsys):
    cfg = _bound_grid_config(tmp_path / "out")
    cfg["dataset"]["pool_factor"] = 3  # 6 features are no square image
    assert cli.main(["bound-grid", "--config", str(_write_config(tmp_path, cfg))]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4) | st.sampled_from(["naive", "idx", "mlp", "linear", "bound_grid"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _key_paths(cfg, prefix=()):
    for key, value in cfg.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


def _fuzz_bases():
    raw = [
        _bound_grid_config("out"),
        _two_phase_config("out"),
        _two_phase_config("out", strategies=["gpm", "lwf"]),
    ]
    # a resolved config is a valid input too, and names every field with its default
    return raw + [cli.validate_config(copy.deepcopy(cfg)) for cfg in raw]


FUZZ_BASES = _fuzz_bases()


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_validate_config_fuzz(data):
    cfg = copy.deepcopy(data.draw(st.sampled_from(FUZZ_BASES)))
    keys = data.draw(st.sampled_from(sorted(_key_paths(cfg))))
    section = cfg
    for key in keys[:-1]:
        section = section[key]
    section[keys[-1]] = data.draw(JSON_VALUES)
    try:
        resolved = cli.validate_config(cfg)
    except ConfigError:
        return
    assert cli.validate_config(copy.deepcopy(resolved)) == resolved


@pytest.mark.parametrize("head_fraction", [0.1, 1.0])
def test_empty_head_or_tail_fails_each_strategy(tmp_path, head_fraction):
    out = tmp_path / "out"
    cfg = _two_phase_config(out)
    cfg["longtail"]["head_fraction"] = head_fraction  # 5 classes: no head class, or no tail class
    assert cli.main(["two-phase", "--config", str(_write_config(tmp_path, cfg))]) == 3
    rows = (out / "summary.csv").read_text().strip().split("\n")[1:]
    assert len(rows) == 2 and all("failed: " in row for row in rows)
    # with no strategy's metrics to plot, plot-data is a validation error
    assert cli.main(["plot-data", "--results", str(out), "--kind", "per-class-delta"]) == 1
    assert not list(out.glob("plot_*"))


def test_unknown_override_key_rejected_even_for_unused_strategy(tmp_path):
    cfg = _two_phase_config(tmp_path / "out", strategies=["naive"])
    cfg["strategy_overrides"] = {"gpm": {"energy": 0.9}}
    with pytest.raises(ConfigError, match="strategy_overrides.gpm.energy"):
        cli.validate_config(cfg)


def test_a_table_for_a_strategy_that_does_not_run_exits_1(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _two_phase_config(out, strategies=["naive"])
    cfg["strategy_overrides"]["gpm"] = {"epochs": 10}
    assert cli.main(["two-phase", "--config", str(_write_config(tmp_path, cfg))]) == 1
    assert capsys.readouterr().err == (
        "error: config field 'strategy_overrides.gpm': strategy is not in strategies\n"
    )
    assert not out.exists()


def test_bad_strategy_rejected(tmp_path):
    cfg = _two_phase_config(tmp_path / "out", strategies=["naive", "dropout"])
    with pytest.raises(ConfigError, match="strategies"):
        cli.validate_config(cfg)


def test_empty_strategy_list_rejected(tmp_path):
    cfg = _two_phase_config(tmp_path / "out", strategies=[])
    with pytest.raises(ConfigError, match="strategies"):
        cli.validate_config(cfg)


def test_missing_idx_file_rejected(tmp_path):
    cfg = _bound_grid_config(tmp_path / "out")
    cfg["dataset"] = {
        "source": "idx",
        "train_images": str(tmp_path / "none.idx"),
        "train_labels": str(tmp_path / "none2.idx"),
    }
    with pytest.raises(ConfigError, match="train_images"):
        cli.validate_config(cfg)


def test_idx_path_that_is_a_directory_exits_1_before_any_output(tmp_path, capsys):
    # it used to pass validation, make the output directory and die reading the directory
    _, lab = _write_idx_dataset(tmp_path, 10)
    (tmp_path / "images").mkdir()
    out = tmp_path / "out"
    cfg = _bound_grid_config(out)
    cfg["dataset"] = {"source": "idx", "train_images": str(tmp_path / "images"), "train_labels": str(lab)}
    assert cli.main(["bound-grid", "--config", str(_write_config(tmp_path, cfg))]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config field 'dataset.train_images': ") and err.count("\n") == 1
    assert not out.exists()


def test_overlong_idx_path_exits_1_before_any_output(tmp_path, capsys):
    # checking a name too long for the file system raised OSError, a traceback
    _, lab = _write_idx_dataset(tmp_path, 10)
    out = tmp_path / "out"
    cfg = _bound_grid_config(out)
    cfg["dataset"] = {"source": "idx", "train_images": "x" * 5000, "train_labels": str(lab)}
    assert cli.main(["bound-grid", "--config", str(_write_config(tmp_path, cfg))]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config field 'dataset.train_images': must name an existing file, got 'xxx")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["bound-grid", "plot-data"])
def test_out_naming_an_existing_file_exits_1(tmp_path, capsys, command):
    out = tmp_path / "taken"
    out.write_text("kept\n")
    if command == "plot-data":
        argv = ["plot-data", "--results", str(tmp_path), "--kind", "distance-vs-if"]
    else:
        argv = ["bound-grid", "--config", str(_write_config(tmp_path, _bound_grid_config(tmp_path / "unused")))]
    assert cli.main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config field 'output_dir': ") and err.count("\n") == 1
    assert out.read_text() == "kept\n"


def test_cli_validation_error_exit_code(tmp_path):
    cfg = _bound_grid_config(tmp_path / "out")
    cfg["kind"] = "mystery"
    path = _write_config(tmp_path, cfg)
    assert cli.main(["bound-grid", "--config", str(path)]) == 1


def test_kind_subcommand_mismatch(tmp_path):
    path = _write_config(tmp_path, _bound_grid_config(tmp_path / "out"))
    assert cli.main(["two-phase", "--config", str(path)]) == 1


def test_kind_compare_is_gone_and_exits_1(tmp_path, capsys):
    # every two-phase run writes the pairwise diffs that compare wrote
    out = tmp_path / "out"
    cfg = _two_phase_config(out)
    cfg["kind"] = "compare"
    assert cli.main(["two-phase", "--config", str(_write_config(tmp_path, cfg))]) == 1
    assert capsys.readouterr().err == (
        "error: config field 'kind': must be one of ('bound_grid', 'ltr_two_phase'), got 'compare'\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["bound-grid"],  # no --config
        ["frobnicate", "--config", "x.yaml"],
        ["compare", "--config", "x.yaml"],  # folded into two-phase
        ["two-phase", "--config", "x.yaml", "--workers", "abc"],
    ],
)
def test_usage_errors_exit_1_not_the_bound_violation_code(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    assert excinfo.value.code == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("usage: ltcl") and len([line for line in err if ": error: " in line]) == 1


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["--help"])
    assert excinfo.value.code == 0
    assert "{bound-grid,two-phase,plot-data}" in capsys.readouterr().out


def test_bound_grid_run_and_manifest_rerun(tmp_path, capsys):
    out = tmp_path / "out"
    path = _write_config(tmp_path, _bound_grid_config(out))
    assert cli.main(["bound-grid", "--config", str(path)]) == 0
    bounds_csv = (out / "bounds.csv").read_bytes()
    manifest = json.loads((out / "manifest.json").read_text())
    assert "resolved_config" in manifest

    lines = bounds_csv.decode().strip().split("\n")
    assert lines[0] == cli.BOUNDS_CSV_HEADER
    assert len(lines) == 1 + 4  # 2 IFs x 2 mus
    assert all("true" in line for line in lines[1:])  # holds_tight column

    out2 = tmp_path / "out2"
    assert cli.main(["bound-grid", "--config", str(out / "manifest.json"), "--out", str(out2)]) == 0
    assert (out2 / "bounds.csv").read_bytes() == bounds_csv


@pytest.mark.parametrize("compute_lemma2", [False, True])
def test_bound_grid_workers_deterministic(tmp_path, compute_lemma2):
    # with Lemma 2 the eigensolves run in the worker threads too
    out1 = tmp_path / "w1"
    out2 = tmp_path / "w2"
    cfg = _bound_grid_config(out1)
    cfg["bound_grid"]["compute_lemma2"] = compute_lemma2
    path = _write_config(tmp_path, cfg)
    assert cli.main(["bound-grid", "--config", str(path)]) == 0
    assert cli.main(["bound-grid", "--config", str(path), "--out", str(out2), "--workers", "3"]) == 0
    assert (out1 / "bounds.csv").read_bytes() == (out2 / "bounds.csv").read_bytes()


def test_two_phase_workers_deterministic(tmp_path):
    cfg = _two_phase_config(tmp_path / "w1", strategies=list(cli.VARIANTS))
    path = _write_config(tmp_path, cfg)
    assert cli.main(["two-phase", "--config", str(path), "--workers", "1"]) == 0
    assert cli.main(["two-phase", "--config", str(path), "--workers", "3", "--out", str(tmp_path / "w3")]) == 0
    first = {p.name: p.read_bytes() for p in (tmp_path / "w1").iterdir() if p.name != "manifest.json"}
    assert len(first) == 1 + 1 + 2 * 5 + 10  # summary, head ckpt; metrics, tail ckpt each; pair diffs
    for name, blob in first.items():
        assert (tmp_path / "w3" / name).read_bytes() == blob, name
    manifest = json.loads((tmp_path / "w3" / "manifest.json").read_text())
    assert manifest["resolved_config"]["workers"] == 3


def test_two_phase_run_outputs(tmp_path):
    out = tmp_path / "out"
    path = _write_config(tmp_path, _two_phase_config(out))
    assert cli.main(["two-phase", "--config", str(path)]) == 0
    summary = (out / "summary.csv").read_text().strip().split("\n")
    assert summary[0] == cli.SUMMARY_CSV_HEADER
    assert len(summary) == 3  # naive + ewc
    assert (out / "metrics_naive.csv").exists()
    assert (out / "metrics_ewc.csv").exists()
    assert (out / "model_head.ckpt").exists()  # Phase 1 runs once, so its checkpoint is written once
    assert not list(out.glob("model_*_head.ckpt"))
    assert (out / "model_ewc_tail.ckpt").exists()

    metrics_lines = (out / "metrics_naive.csv").read_text().strip().split("\n")
    assert metrics_lines[0] == cli.METRICS_CSV_HEADER
    assert len(metrics_lines) == 1 + 5  # one row per class
    assert [p.name for p in out.glob("accdiff_*")] == ["accdiff_naive_vs_ewc.csv"]


def test_one_strategy_run_writes_no_accuracy_diff(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["two-phase", "--config", str(_write_config(tmp_path, _two_phase_config(out, ["naive"])))]) == 0
    assert (out / "metrics_naive.csv").exists()
    assert not list(out.glob("accdiff_*"))


def test_readme_config_examples_validate(tmp_path):
    # an example that drifts from the schema would fail for every reader who copies it
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```yaml\n(.*?)```", readme, flags=re.S)
    kinds = []
    for block in blocks:
        cfg = yaml.safe_load(block)
        for key in cfg["dataset"]:
            if key.endswith(("_images", "_labels")):  # the IDX paths must exist
                (tmp_path / key).touch()
                cfg["dataset"][key] = str(tmp_path / key)
        kinds.append(cli.validate_config(cfg)["kind"])
    assert kinds == ["bound_grid", "ltr_two_phase"]


def test_readme_library_example_runs_and_both_bounds_hold():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    (block,) = re.findall(r"```python\n(.*?)```", readme.read_text(), flags=re.S)
    src = str(readme.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", block], capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    distance, tight, holds = run.stdout.strip().split(" ", 2)
    assert ast.literal_eval(holds) == {"tight": True, "loose": True}
    assert 0.0 < float(distance) <= float(tight)


BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_BLAS_PIN_SCRIPT = f"""
import os, sys
import ltcl
assert "numpy" not in sys.modules, "importing ltcl loaded numpy"
import ltcl.cli
print([os.environ[name] for name in {BLAS_VARIABLES!r}])
print(len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else "")
"""


def test_importing_the_cli_pins_blas_to_one_thread_before_numpy_loads():
    # the console script and python -m ltcl.cli import the package first, so
    # it must not load numpy; the caller's thread counts are overridden
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, **dict.fromkeys(BLAS_VARIABLES, "4"),
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", _BLAS_PIN_SCRIPT], capture_output=True, text=True, env=env,
                         timeout=60)
    assert run.returncode == 0, run.stderr
    variables, tasks = run.stdout.split("\n")[:2]
    assert ast.literal_eval(variables) == ["1"] * 3
    # OpenBLAS starts its worker threads when numpy loads it, so an unpinned
    # BLAS shows as more than one task; on a 1-CPU host it starts none, and
    # this check cannot fail there
    if tasks:
        assert int(tasks) == 1


def test_two_phase_manifest_echoes_hyperparameter_table(tmp_path):
    out = tmp_path / "out"
    cfg = _two_phase_config(out, strategies=["lwf", "ewc", "modified_ewc", "gpm"])
    cfg["strategy_overrides"] = {}
    resolved = cli.validate_config(cfg)
    table = resolved["strategy_overrides"]
    assert table["lwf"]["learning_rate"] == 0.001
    assert table["lwf"]["momentum"] == 0.9
    assert table["lwf"]["cl_weight"] == 0.01
    assert table["lwf"]["epochs"] == 5
    assert table["ewc"]["learning_rate"] == 0.01
    assert table["ewc"]["cl_weight"] == 10.0
    assert table["ewc"]["epochs"] == 90
    assert table["modified_ewc"]["cl_weight"] == 1000.0
    assert table["modified_ewc"]["epochs"] == 90
    assert table["gpm"]["learning_rate"] == 0.001
    assert table["gpm"]["momentum"] == 0.0
    assert table["gpm"]["schedule"] == "cosine"
    assert table["gpm"]["epochs"] == 100


def test_null_batch_size_takes_the_default_not_full_batch(tmp_path):
    out = tmp_path / "out"
    cfg = _two_phase_config(out, strategies=["gpm"])
    cfg["phase1"]["batch_size"] = None
    cfg["strategy_overrides"]["gpm"]["batch_size"] = None
    assert cli.main(["two-phase", "--config", str(_write_config(tmp_path, cfg))]) == 0
    resolved = json.loads((out / "manifest.json").read_text())["resolved_config"]
    assert resolved["phase1"]["batch_size"] == resolved["strategy_overrides"]["gpm"]["batch_size"] == 64


def test_two_phase_rerun_from_manifest_byte_identical(tmp_path):
    out = tmp_path / "out"
    path = _write_config(tmp_path, _two_phase_config(out))
    assert cli.main(["two-phase", "--config", str(path)]) == 0
    first = {p.name: p.read_bytes() for p in out.glob("*.csv")}
    out2 = tmp_path / "out2"
    assert cli.main(["two-phase", "--config", str(out / "manifest.json"), "--out", str(out2)]) == 0
    for name, blob in first.items():
        assert (out2 / name).read_bytes() == blob, name


def test_two_phase_emits_pairwise_diffs(tmp_path):
    out = tmp_path / "out"
    cfg = _two_phase_config(out, strategies=["naive", "ewc", "lwf"])
    path = _write_config(tmp_path, cfg)
    assert cli.main(["two-phase", "--config", str(path)]) == 0
    assert (out / "accdiff_naive_vs_ewc.csv").exists()
    assert (out / "accdiff_naive_vs_lwf.csv").exists()
    assert (out / "accdiff_ewc_vs_lwf.csv").exists()
    lines = (out / "accdiff_naive_vs_ewc.csv").read_text().strip().split("\n")
    assert lines[0] == "class,diff"
    assert len(lines) == 6


def test_plot_data_kinds(tmp_path):
    out = tmp_path / "out"
    path = _write_config(tmp_path, _bound_grid_config(out))
    assert cli.main(["bound-grid", "--config", str(path)]) == 0
    assert cli.main(["plot-data", "--results", str(out), "--kind", "distance-vs-if"]) == 0
    plot = (out / "plot_distance_vs_if.csv").read_text().strip().split("\n")
    assert plot[0] == "series,x,y"
    assert len(plot) == 5  # 2 series x 2 IF points
    series = {line.split(",")[0] for line in plot[1:]}
    assert len(series) == 2  # one series per mu

    out2 = tmp_path / "tp"
    path2 = _write_config(tmp_path, _two_phase_config(out2), name="tp.yaml")
    assert cli.main(["two-phase", "--config", str(path2)]) == 0
    assert cli.main(["plot-data", "--results", str(out2), "--kind", "per-class-delta"]) == 0
    assert (out2 / "plot_per_class_delta_naive.csv").exists()
    assert cli.main(["plot-data", "--results", str(out2), "--kind", "per-class-norm"]) == 0
    norm_lines = (out2 / "plot_per_class_norm.csv").read_text().strip().split("\n")
    assert norm_lines[0] == "series,class,norm"
    assert len({line.split(",")[0] for line in norm_lines[1:]}) == 2


def test_plot_data_reads_only_the_strategies_of_the_last_run(tmp_path):
    out = tmp_path / "out"
    for strategies in (["naive", "ewc"], ["naive"]):
        path = _write_config(tmp_path, _two_phase_config(out, strategies=strategies))
        assert cli.main(["two-phase", "--config", str(path)]) == 0
    assert cli.main(["plot-data", "--results", str(out), "--kind", "per-class-norm"]) == 0
    norm_lines = (out / "plot_per_class_norm.csv").read_text().strip().split("\n")
    assert {line.split(",")[0] for line in norm_lines[1:]} == {"naive"}
    assert cli.main(["plot-data", "--results", str(out), "--kind", "per-class-delta"]) == 0
    assert sorted(p.name for p in out.glob("plot_per_class_delta_*.csv")) == ["plot_per_class_delta_naive.csv"]
    assert (out / "metrics_ewc.csv").exists()  # the earlier run's file is left in place


@pytest.mark.parametrize("kind, name, header, missing", [
    pytest.param("distance-vs-if", "bounds.csv", "if,measured_distance\n10.0,0.5\n", "mu", id="bounds-without-mu"),
    pytest.param("per-class-norm", "summary.csv", "strategy\nnaive\n", "status", id="summary-without-status"),
])
def test_plot_data_names_a_missing_column(tmp_path, capsys, kind, name, header, missing):
    # a file without a column that the kind reads used to raise a raw KeyError
    (tmp_path / name).write_text(header)
    assert cli.main(["plot-data", "--results", str(tmp_path), "--kind", kind]) == 1
    assert capsys.readouterr().err == (
        f"error: config field 'results': {tmp_path / name} has no column {missing!r}\n"
    )
    assert not list(tmp_path.glob("plot_*"))


def test_plot_data_unknown_kind(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    assert cli.main(["plot-data", "--results", str(out), "--kind", "sparkline"]) == 1


def test_grid_exit_codes():
    from ltcl.bounds import BoundReport

    def report(measured, tight, converged=True):
        return BoundReport(
            imbalance_factor=10.0,
            mu_full=0.01,
            measured_distance=measured,
            delta=0.1,
            loose_bound=10.0,
            tight_bound=tight,
            converged_full=converged,
            converged_head=converged,
        )

    assert cli.grid_exit_code([report(1.0, 2.0)]) == 0
    assert cli.grid_exit_code([report(3.0, 2.0)]) == 2  # violated tight bound
    assert cli.grid_exit_code([report(1.0, 2.0), report(1.0, float("nan"), converged=False)]) == 3
    # violation outranks a failed cell
    assert cli.grid_exit_code([report(3.0, 2.0), report(1.0, float("nan"), converged=False)]) == 2


def test_non_converged_grid_exit_and_csv(tmp_path, monkeypatch):
    monkeypatch.setattr(bounds, "NEWTON_MAX_ITERS", 2)
    cfg = _bound_grid_config(tmp_path / "out")
    path = _write_config(tmp_path, cfg)
    assert cli.main(["bound-grid", "--config", str(path)]) == 3
    lines = (tmp_path / "out" / "bounds.csv").read_text().strip().split("\n")
    header = lines[0].split(",")
    row = dict(zip(header, lines[1].split(",")))
    assert row["converged_full"] == "false"
    assert row["tight_bound"] == ""  # nan renders empty
    assert row["holds_tight"] == "false"


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.filterwarnings("ignore:invalid value")
def test_strategy_failure_recorded_and_run_continues(tmp_path):
    out = tmp_path / "out"
    cfg = _two_phase_config(out, strategies=["naive", "ewc"])
    cfg["strategy_overrides"]["naive"] = {"learning_rate": 1e9, "epochs": 20}
    path = _write_config(tmp_path, cfg)
    assert cli.main(["two-phase", "--config", str(path)]) == 3
    summary = (out / "summary.csv").read_text().strip().split("\n")
    naive_row = next(line for line in summary[1:] if line.startswith("naive"))
    assert "failed" in naive_row
    assert (out / "metrics_ewc.csv").exists()
    assert not (out / "metrics_naive.csv").exists()
    assert not list(out.glob("accdiff_*"))  # one strategy succeeded: no pair


def _write_idx_dataset(tmp_path, n_per_class, side=4, n_classes=4, seed=0, prefix="train"):
    import struct

    rng = np.random.default_rng(seed)
    n = n_per_class * n_classes
    labels = np.repeat(np.arange(n_classes), n_per_class).astype(np.uint8)
    images = rng.integers(0, 256, size=(n, side, side)).astype(np.uint8)
    # class-dependent bright patch so the classes are learnable
    for c in range(n_classes):
        images[labels == c, c % side, :] = 255
        images[labels == c, :, c % side] = 255
    img_path = tmp_path / f"{prefix}-images.idx"
    lab_path = tmp_path / f"{prefix}-labels.idx"
    img_path.write_bytes(struct.pack(">IIII", 0x803, n, side, side) + images.tobytes())
    lab_path.write_bytes(struct.pack(">II", 0x801, n) + labels.tobytes())
    return img_path, lab_path


def test_bound_grid_on_corrupt_or_missing_idx_file(tmp_path, capsys):
    img, lab = _write_idx_dataset(tmp_path, 10)
    img.write_bytes(b"\x1f\x8bjunk")  # gzip magic, then no valid stream
    cfg = _bound_grid_config(tmp_path / "out")
    cfg["dataset"] = {"source": "idx", "train_images": str(img), "train_labels": str(lab)}
    path = _write_config(tmp_path, cfg)
    assert cli.main(["bound-grid", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "gzip" in err
    img.unlink()
    assert cli.main(["bound-grid", "--config", str(path)]) == 1


def _idx_two_phase_config(tmp_path, out, train_classes=4, test_classes=4):
    train_img, train_lab = _write_idx_dataset(tmp_path, 60, n_classes=train_classes, seed=1, prefix="train")
    test_img, test_lab = _write_idx_dataset(tmp_path, 20, n_classes=test_classes, seed=2, prefix="test")
    return {
        "schema_version": 1,
        "kind": "ltr_two_phase",
        "seed": 9,
        "output_dir": str(out),
        "dataset": {
            "source": "idx",
            "train_images": str(train_img),
            "train_labels": str(train_lab),
            "test_images": str(test_img),
            "test_labels": str(test_lab),
        },
        "longtail": {"imbalance_factor": 10, "head_fraction": 0.5},
        "loss": {"mu": 0.0001},
        "model": {"kind": "linear"},
        "phase1": {"epochs": 20},
        "strategies": ["naive", "gpm"],
        "strategy_overrides": {"naive": {"epochs": 20}, "gpm": {"epochs": 20}},
    }


def test_two_phase_from_idx_files(tmp_path):
    out = tmp_path / "out"
    path = _write_config(tmp_path, _idx_two_phase_config(tmp_path, out), name="idx.yaml")
    assert cli.main(["two-phase", "--config", str(path)]) == 0
    summary = (out / "summary.csv").read_text().strip().split("\n")
    assert len(summary) == 3
    metrics_lines = (out / "metrics_gpm.csv").read_text().strip().split("\n")
    assert len(metrics_lines) == 1 + 4


@pytest.mark.parametrize("train_classes, test_classes", [(6, 5), (5, 6)])
def test_test_set_with_other_class_count_fails_each_strategy(tmp_path, train_classes, test_classes):
    # a wider model once indexed past the accuracy vector; a narrower one
    # averaged over a class it cannot predict and wrote truncated metrics
    out = tmp_path / "out"
    cfg = _idx_two_phase_config(tmp_path, out, train_classes, test_classes)
    assert cli.main(["two-phase", "--config", str(_write_config(tmp_path, cfg))]) == 3
    rows = (out / "summary.csv").read_text().strip().split("\n")[1:]
    detail = f"model predicts {train_classes} classes, test set has {test_classes}"
    assert len(rows) == 2 and all(f"failed: {detail}" in row for row in rows)
    assert not list(out.glob("metrics_*.csv"))
    assert not list(out.glob("accdiff_*"))  # no pair of strategies succeeded


def test_two_phase_trains_phase_1_once(tmp_path, monkeypatch):
    calls = []
    train = continual.train

    def counting_train(*args, **kwargs):
        calls.append(args[1].n_samples)  # the head or the tail set
        return train(*args, **kwargs)

    monkeypatch.setattr(continual, "train", counting_train)
    strategies = ["naive", "ewc", "lwf"]
    cfg = _two_phase_config(tmp_path / "out", strategies=strategies)
    assert cli.main(["two-phase", "--config", str(_write_config(tmp_path, cfg)), "--workers", "2"]) == 0
    assert len(calls) == 1 + len(strategies)
    assert calls[0] > calls[1] and len(set(calls[1:])) == 1


def test_seed_override_changes_outputs(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    path = _write_config(tmp_path, _two_phase_config(out1))
    assert cli.main(["two-phase", "--config", str(path)]) == 0
    assert cli.main(["two-phase", "--config", str(path), "--out", str(out2), "--seed", "99"]) == 0
    assert (out1 / "summary.csv").read_bytes() != (out2 / "summary.csv").read_bytes()


# ------------------------------------------------- one rule: a key the run does not read is an error

def _idx_grid_config(tmp_path, out):
    img, lab = _write_idx_dataset(tmp_path, 30)
    cfg = _bound_grid_config(out)
    cfg["dataset"] = {"source": "idx", "train_images": str(img), "train_labels": str(lab), "pool_factor": 2}
    return cfg


CONFIGS = {
    "grid": lambda tmp_path, out: _bound_grid_config(out),
    "idx_grid": _idx_grid_config,
    "two_phase": lambda tmp_path, out: _two_phase_config(out),
    "idx_two_phase": _idx_two_phase_config,  # a linear model
    "all_strategies": lambda tmp_path, out: _two_phase_config(out, strategies=list(cli.VARIANTS)),
}
COMMANDS = {"bound_grid": "bound-grid", "ltr_two_phase": "two-phase"}
IMAGES = "<an IDX image file>"
UNREAD_KEYS = [
    *[("two_phase", ("strategy_overrides", name, key), 1)
      for name in cli.VARIANTS
      for key in ("cl_weight", "temperature", "energy_threshold", "fisher_max_samples")
      if key not in continual.STRATEGIES[name].settings],
    # the cap on Newton iterations, the loss-gap probes and the cosine
    # floor are constants, not settings
    ("grid", ("bound_grid", "max_epochs"), 200_000),
    ("grid", ("bound_grid", "delta_probes"), 64),
    ("two_phase", ("phase1", "lr_min"), 0.0),
    ("two_phase", ("strategy_overrides", "gpm", "lr_min"), 0.0),
    ("grid", ("strategies",), ["naive"]),
    ("grid", ("loss",), {"mu": 0.1}),
    ("idx_grid", ("dataset", "test_images"), IMAGES),
    ("grid", ("dataset", "test_n_per_class"), 20),
    ("grid", ("longtail", "imbalance_factor"), 10),
    ("two_phase", ("bound_grid",), {"mu_values": [0.1]}),
    ("two_phase", ("longtail", "imbalance_factors"), [10]),
    ("two_phase", ("dataset", "train_images"), IMAGES),
    ("idx_grid", ("dataset", "n_classes"), 4),
    ("idx_two_phase", ("model", "hidden_sizes"), [8]),
]


@pytest.mark.parametrize("base, keys, value", UNREAD_KEYS, ids=[".".join(case[1]) for case in UNREAD_KEYS])
def test_a_key_the_run_does_not_read_exits_1_and_is_named(tmp_path, capsys, base, keys, value):
    out = tmp_path / "out"
    cfg = CONFIGS[base](tmp_path, out)
    if keys[0] == "strategy_overrides":  # the strategy runs, so its table is read
        cfg = _two_phase_config(out, strategies=[keys[1]])
    section = cfg
    for key in keys[:-1]:
        section = section[key]
    section[keys[-1]] = str(_write_idx_dataset(tmp_path, 5, prefix="extra")[0]) if value is IMAGES else value
    command = COMMANDS[cfg["kind"]]
    assert cli.main([command, "--config", str(_write_config(tmp_path, cfg, name="rule.yaml"))]) == 1
    assert capsys.readouterr().err == f"error: config field '{'.'.join(keys)}': unknown key\n"
    assert not out.exists()


class _ReadRecorder(dict):
    """A resolved config that adds the path of every key read from it to `reads`."""

    def __init__(self, mapping, reads, path=()):
        super().__init__(
            (key, _ReadRecorder(value, reads, path + (key,)) if isinstance(value, dict) else value)
            for key, value in mapping.items()
        )
        self.reads, self.path = reads, path

    def __getitem__(self, key):
        self.reads.add(self.path + (key,))
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.reads.add(self.path + (key,))
        return super().get(key, default)

    def items(self):
        self.reads.update(self.path + (key,) for key in self)
        return super().items()


@pytest.mark.parametrize("base", sorted(CONFIGS))
def test_every_resolved_key_is_read_by_its_run(tmp_path, monkeypatch, base):
    out = tmp_path / "out"
    cfg = CONFIGS[base](tmp_path, out)
    resolved = cli.validate_config(copy.deepcopy(cfg))
    reads, read_by_run = set(), set()
    validate = cli.validate_config
    monkeypatch.setattr(cli, "validate_config", lambda raw: _ReadRecorder(validate(raw), reads))

    def recorded(run):
        def wrapper(cfg, out_dir):
            code = run(cfg, out_dir)
            read_by_run.update(reads)  # before main writes the manifest, which reads every key
            return code
        return wrapper

    for name in ("run_bound_grid", "run_ltr_two_phase"):
        monkeypatch.setattr(cli, name, recorded(getattr(cli, name)))
    assert cli.main([COMMANDS[cfg["kind"]], "--config", str(_write_config(tmp_path, cfg))]) == 0
    # a strategy's settings all go to strategy_term, which rejects one it
    # does not read; schema_version is read by validation alone
    assert set(_key_paths(resolved)) - read_by_run == {("schema_version",)}
    assert json.loads((out / "manifest.json").read_text())["resolved_config"] == resolved
