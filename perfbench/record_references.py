"""Record the reference outputs that later runs are checked against.

    python3 perfbench/record_references.py 0 15      # seeds 0..15

For each workload and seed it sets up, runs one pass, checks it, and
stores what must not drift: the measured minimizer distance of every
grid cell (later runs must stay within the certified radius 4*tol/mu)
and every strategy's average class accuracy. Record once, at the commit
that defines the baseline; a later change must not re-record to pass.
"""
from __future__ import annotations

import json
import shutil
import sys

import run  # pins BLAS threads before numpy loads


def main(argv) -> int:
    first, last = int(argv[0]), int(argv[1])
    run._import_library()
    from workloads import WORKLOADS

    references = json.loads(run.REFERENCES.read_text()) if run.REFERENCES.exists() else {}
    for name, workload in WORKLOADS.items():
        for seed in range(first, last + 1):
            workdir = run.WORK_ROOT / f"{name}-s{seed}"
            shutil.rmtree(workdir, ignore_errors=True)
            outputs = workload.run(workload.setup(seed, workdir))
            attempted, failed, notes = workload.check(outputs, None)
            if failed:
                print(f"{name} seed {seed}: {failed}/{attempted} failed: {notes}", file=sys.stderr)
                return 1
            references.setdefault(name, {})[str(seed)] = workload.reference(outputs)
            print(f"{name} seed {seed}: {references[name][str(seed)]}", flush=True)
            run.REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
