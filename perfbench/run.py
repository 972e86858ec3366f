"""ltcl benchmark: three workloads, end-to-end metrics, and a traced per-layer run.

One workload run (from the repository root):

    python3 perfbench/run.py --workload grid784 --seed 0 --seconds 25 --trace 0

It sets the inputs up once untimed, to warm the process, and then
SETUP_REPEATS times (setup_s is the median). It then repeats passes
over them while the next pass is expected to end inside --seconds (at
least one pass; run_s is the median pass time). With
--trace 1 it alternates untraced and traced passes and reports the
per-layer metrics of the traced ones, the tracing overhead, and whether
traced outputs equal untraced ones. The last stdout line is the result:
{"correct", "attempted", "failed", "metrics"}.

All workloads, every metric, one row per workload, and a result file:

    python3 perfbench/run.py --all --seed 0 --out results.json

Per-metric deltas between two result files (perfbench/baseline.json is
one):

    python3 perfbench/run.py --compare perfbench/baseline.json results.json

FLOP and byte figures are computed from array shapes, not counted by
hardware: matmul FLOPs, and the minimum bytes the call must read and
write once.
"""
from __future__ import annotations

import os

# BLAS reads these once, when numpy loads it; threadpoolctl is not a
# dependency, so this is the only way to pin the thread count.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_work"
REFERENCES = HERE / "references.json"
SETUP_REPEATS = 9

END_TO_END = [
    ("run_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

_TIMED = ["datasets.make_longtail", "datasets.head_tail_split", "datasets.load_idx", "datasets.mean_pool_images"]
PER_LAYER = (
    [(f"{n}.s", "s", "lower") for n in _TIMED]
    + [
        ("models.loss_and_gradient.calls", "count", "lower"),
        ("models.loss_and_gradient.s", "s", "lower"),
        ("models.loss_and_gradient.gflops", "GFLOP/s", "higher"),
        ("models.loss_and_gradient.flop_per_byte", "FLOP/B", "higher"),
        ("models.loss.calls", "count", "lower"),
        ("models.loss.s", "s", "lower"),
        ("models.hessian.calls", "count", "lower"),
        ("models.hessian.s", "s", "lower"),
        ("models.hessian.gflops", "GFLOP/s", "higher"),
        ("models.hessian.flop_per_byte", "FLOP/B", "higher"),
        ("training.train.calls", "count", "lower"),
        ("training.train.s", "s", "lower"),
        ("training.train.self_s", "s", "lower"),
        ("training.steps", "count", "lower"),
        ("training.step_overhead_us", "us", "lower"),
        ("bounds.evaluate_cell.s", "s", "lower"),
        ("bounds.evaluate_cell.max_s", "s", "lower"),
        ("bounds.solver_epochs", "count", "lower"),
        ("bounds.loss_gap_surrogate.s", "s", "lower"),
        ("bounds.min_eigenvalue.calls", "count", "lower"),
        ("bounds.min_eigenvalue.s", "s", "lower"),
        ("bounds.softmax_smoothness_bound.s", "s", "lower"),
    ]
    + [(f"continual.run_two_phase.{v}.s", "s", "lower") for v in ("naive", "ewc", "modified_ewc", "lwf", "gpm")]
    + [
        ("continual.fisher_diagonal.s", "s", "lower"),
        ("continual.gpm_collect_bases.s", "s", "lower"),
        ("continual.gpm_project.calls", "count", "lower"),
        ("continual.gpm_project.s", "s", "lower"),
        ("continual.ewc_penalty.s", "s", "lower"),
        ("continual.gpm_max_inspan_ratio", "ratio", "lower"),
        ("continual.avg_class_acc", "frac", "higher"),
        ("metrics.evaluate.calls", "count", "lower"),
        ("metrics.evaluate.s", "s", "lower"),
        ("cli.main.s", "s", "lower"),
        ("cli.self_s", "s", "lower"),
        ("cli.bytes_written", "B", "lower"),
        ("trace.untraced_run_s", "s", "lower"),
        ("trace.traced_run_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.coverage", "frac", "higher"),
    ]
)
UNITS = dict(END_TO_END + [(name, unit) for name, unit, _ in PER_LAYER])
EXACT_UNITS = ("count", "B")  # metrics that must repeat exactly for one seed


def _import_library():
    if not (ROOT / "src" / "ltcl" / "__init__.py").is_file():
        print(f"error: no ltcl package under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    import numpy  # noqa: F401  (loads BLAS with the pinned thread count)


def _keep_freed_memory() -> str:
    """Make glibc keep freed memory in the process instead of returning it.

    By default each large numpy array is its own mmap, so every set-up and
    pass page-faults fresh zeroed memory, and that cost follows the host's
    memory load rather than the program. After this call, memory freed by
    one set-up or pass is reused by the next one, already mapped. Returns
    the allocator setting for the environment record.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return "default"
    m_trim_threshold, m_mmap_max = -1, -4
    if mallopt(m_trim_threshold, 2**31 - 1) and mallopt(m_mmap_max, 0):
        return "glibc, no trim, no mmap"
    return "default"


def environment(workload, seed, malloc) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        revision = "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "malloc": malloc,
        "git_revision": revision,
    }


def _layer_metrics(summary, setup_busy, outputs) -> dict:
    """Per-layer metrics of one traced pass; the datasets.* times also
    include the traced set-up, where two_phase builds its LT split."""
    from workloads import avg_class_acc

    busy, self_s, calls, hooks = summary["busy"], summary["self"], summary["calls"], summary["hooks"]
    out = {f"{n}.s": busy.get(n, 0.0) + setup_busy.get(n, 0.0) for n in _TIMED}
    for name in ("models.loss_and_gradient", "models.hessian"):
        flops, nbytes = hooks.get(name, (0, 0))
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.s"] = busy.get(name, 0.0)
        out[f"{name}.gflops"] = flops / busy[name] / 1e9 if busy.get(name) else 0.0
        out[f"{name}.flop_per_byte"] = flops / nbytes if nbytes else 0.0
    steps = summary["train_steps"]
    out.update({
        "models.loss.calls": calls.get("models.loss", 0),
        "models.loss.s": busy.get("models.loss", 0.0),
        "training.train.calls": calls.get("training.train", 0),
        "training.train.s": busy.get("training.train", 0.0),
        "training.train.self_s": self_s.get("training.train", 0.0),
        "training.steps": steps,
        "training.step_overhead_us": 1e6 * self_s.get("training.train", 0.0) / steps if steps else 0.0,
        "bounds.evaluate_cell.s": busy.get("bounds.evaluate_cell", 0.0),
        "bounds.evaluate_cell.max_s": summary["max"].get("bounds.evaluate_cell", 0.0),
        "bounds.solver_epochs": hooks.get("bounds.evaluate_cell", (0, 0))[0],
        "bounds.loss_gap_surrogate.s": busy.get("bounds.loss_gap_surrogate", 0.0),
        "bounds.min_eigenvalue.calls": calls.get("bounds.min_eigenvalue", 0),
        "bounds.min_eigenvalue.s": busy.get("bounds.min_eigenvalue", 0.0),
        "bounds.softmax_smoothness_bound.s": busy.get("bounds.softmax_smoothness_bound", 0.0),
    })
    for variant in ("naive", "ewc", "modified_ewc", "lwf", "gpm"):
        out[f"continual.run_two_phase.{variant}.s"] = busy.get(f"continual.run_two_phase.{variant}", 0.0)
    strategies = outputs.get("strategies", {})
    out.update({
        "continual.fisher_diagonal.s": busy.get("continual.fisher_diagonal", 0.0),
        "continual.gpm_collect_bases.s": busy.get("continual.gpm_collect_bases", 0.0),
        "continual.gpm_project.calls": calls.get("continual.gpm_project", 0),
        "continual.gpm_project.s": busy.get("continual.gpm_project", 0.0),
        "continual.ewc_penalty.s": busy.get("continual.ewc_penalty", 0.0),
        "continual.gpm_max_inspan_ratio": strategies.get("gpm", {}).get("max_inspan_ratio", 0.0),
        "continual.avg_class_acc": avg_class_acc(outputs) if strategies else 0.0,
        "metrics.evaluate.calls": calls.get("metrics.evaluate", 0),
        "metrics.evaluate.s": busy.get("metrics.evaluate", 0.0),
        "cli.main.s": busy.get("cli.main", 0.0),
        "cli.self_s": self_s.get("cli.main", 0.0),
        "cli.bytes_written": sum(len(b) for b in outputs.get("files", {}).values()),
        "trace.coverage": summary["coverage"],
    })
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Set up, run passes for `seconds`, check; returns (result, env)."""
    from tracer import Tracer, summarize
    from workloads import WORKLOADS

    malloc = _keep_freed_memory()
    workload = WORKLOADS[name]
    workdir = WORK_ROOT / f"{name}-s{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    inputs = workload.setup(seed, workdir)  # warm-up, not timed
    setup_times = []
    setup_tracer = Tracer()
    for repeat in range(SETUP_REPEATS):
        inputs = None  # release the previous inputs before building new ones
        traced = trace and repeat == SETUP_REPEATS - 1
        if traced:
            setup_tracer.install()
        start = time.perf_counter()
        try:
            inputs = workload.setup(seed, workdir)
        finally:
            if traced:
                setup_tracer.uninstall()
        setup_times.append(time.perf_counter() - start)
    setup_busy = summarize(setup_tracer.spans, {}, 1.0)["busy"]

    references = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    reference = references.get(name, {}).get(str(seed))
    attempted = failed = 0
    notes: list = []
    walls = {False: [], True: []}
    layer_rows: list = []
    first_fingerprint = None
    tracer = None
    window_start = time.perf_counter()
    while True:
        traced = trace and len(walls[False]) > len(walls[True])
        tracer = Tracer() if traced else tracer
        if traced:
            tracer.install()
        start = time.perf_counter()
        try:
            outputs = workload.run(inputs)
            n_attempted, n_failed, pass_notes = workload.check(outputs, reference)
        finally:
            if traced:
                tracer.uninstall()
        wall = time.perf_counter() - start
        fingerprint = workload.fingerprint(outputs)
        if first_fingerprint is None:
            first_fingerprint = fingerprint
        elif fingerprint != first_fingerprint:
            n_failed = n_attempted
            pass_notes = pass_notes + [f"{'traced' if traced else 'untraced'} pass output differs from the first pass"]
        attempted += n_attempted
        failed += n_failed
        notes.extend(pass_notes)
        walls[traced].append(wall)
        if traced:
            layer_rows.append(_layer_metrics(summarize(tracer.spans, tracer.hook_totals, wall), setup_busy, outputs))
        elapsed = time.perf_counter() - window_start
        need_more = trace and not walls[True]
        if not need_more and elapsed + wall > seconds:
            break

    if trace:
        metrics = {}
        for key in layer_rows[0]:
            values = [row[key] for row in layer_rows]
            if UNITS[key] in EXACT_UNITS and len(set(values)) > 1:
                failed += 1
                notes.append(f"count {key} differs between traced passes: {values}")
            metrics[key] = statistics.median(values)
        metrics["trace.untraced_run_s"] = statistics.median(walls[False])
        metrics["trace.traced_run_s"] = statistics.median(walls[True])
        metrics["trace.overhead_s"] = metrics["trace.traced_run_s"] - metrics["trace.untraced_run_s"]
        WORK_ROOT.mkdir(exist_ok=True)
        tracer.write(WORK_ROOT / f"spans-{name}-s{seed}.jsonl")
    else:
        metrics = {
            "run_s": statistics.median(walls[False]),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    for note in notes:
        print(f"check failed: {note}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }
    return result, environment(name, seed, malloc)


# --- one command over all workloads, and comparison -------------------------

def _benchmark_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    return json.loads(path.read_text()) if path.exists() else {}


def _run_child(workload, seed, seconds, trace) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} (trace {trace}) exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    env_lines = [line for line in lines if line.startswith("env ")]
    return {"env": json.loads(env_lines[-1][4:]) if env_lines else {}, **json.loads(lines[-1])}


def run_all(seed, seconds, out) -> dict:
    from workloads import WORKLOADS

    results = {}
    env = {}
    for name in WORKLOADS:
        plain = _run_child(name, seed, seconds, 0)
        traced = [_run_child(name, seed, seconds, 1) for _ in range(2)]
        env = {k: v for k, v in plain["env"].items() if k != "workload"}
        repeat_problems = [
            key for key, m in traced[0]["metrics"].items()
            if m["unit"] in EXACT_UNITS and m["value"] != traced[1]["metrics"][key]["value"]
        ]
        runs = [plain] + traced
        results[name] = {
            "correct": all(r["correct"] for r in runs) and not repeat_problems,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "counts_repeat": not repeat_problems,
            "metrics": {**plain["metrics"], **traced[0]["metrics"]},
        }
        if repeat_problems:
            print(f"{name}: counts differ between two traced runs: {repeat_problems}", file=sys.stderr)
    report = {"env": env, "results": results}
    print_table(report)
    if out:
        Path(out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return report


def print_table(report) -> None:
    results = report["results"]
    names = list(results)
    print("env: " + ", ".join(f"{k}={v}" for k, v in report.get("env", {}).items()))
    header = ["workload"] + [f"{m} [{u}]" for m, u in END_TO_END] + ["failed_frac", "avg_class_acc", "correct"]
    rows = []
    for name in names:
        r = results[name]
        m = r["metrics"]
        acc = m.get("continual.avg_class_acc", {}).get("value")
        rows.append([name] + [f"{m[k]['value']:.4f}" if k in m else "-" for k, _ in END_TO_END]
                    + [f"{r['failed'] / max(r['attempted'], 1):.3f}",
                       f"{acc:.4f}" if name == "two_phase" and acc is not None else "-", str(r["correct"])])
    _print_rows(header, rows)
    print()
    header = ["metric [unit]"] + names
    rows = [[f"{metric} [{unit}]"] + [_fmt(results[n]["metrics"].get(metric, {}).get("value")) for n in names]
            for metric, unit, _ in PER_LAYER]
    _print_rows(header, rows)


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return f"{value:.6g}"


def _print_rows(header, rows) -> None:
    widths = [max(len(str(row[i])) for row in [header] + rows) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(str(cell).ljust(w) if i == 0 else str(cell).rjust(w) for i, (cell, w) in enumerate(zip(row, widths))))


def compare(path_a, path_b) -> int:
    a = json.loads(Path(path_a).read_text())["results"]
    b = json.loads(Path(path_b).read_text())["results"]
    spec = _benchmark_spec()
    bounds = {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}
    better = {m["name"]: m["better"] for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}
    regressions = 0
    rows = []
    for name in [n for n in a if n in b]:
        for metric in a[name]["metrics"]:
            if metric not in b[name]["metrics"]:
                continue
            va, vb = a[name]["metrics"][metric]["value"], b[name]["metrics"][metric]["value"]
            share = (vb - va) / abs(va) if va else 0.0
            worse = share if better.get(metric, "lower") == "lower" else -share
            flag = ""
            if metric in bounds and worse > bounds[metric]:
                flag = "WORSE THAN BOUND"
                regressions += 1
            rows.append([name, f"{metric} [{UNITS.get(metric, a[name]['metrics'][metric]['unit'])}]",
                         _fmt(va), _fmt(vb), _fmt(vb - va), f"{100 * share:+.2f}%" if va else "-", flag])
    _print_rows(["workload", "metric [unit]", "a", "b", "b-a", "change", ""], rows)
    return 1 if regressions else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, traced and untraced")
    parser.add_argument("--out", help="with --all: write the result file here")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="print per-metric deltas B vs A")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    _import_library()
    from workloads import WORKLOADS

    seconds = args.seconds if args.seconds is not None else _benchmark_spec().get("run_seconds", 25)
    if args.all:
        report = run_all(args.seed, seconds, args.out)
        return 0 if all(r["correct"] for r in report["results"].values()) else 1
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    result, env = run_workload(args.workload, args.seed, seconds, bool(args.trace))
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
