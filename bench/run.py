"""Run one mtlid benchmark workload and print its metrics.

Usage, from the repository root:

    python3 bench/run.py --workload train-short-mtl --seed 1 --seconds 20 --trace 0

Inputs are generated from --seed. With --trace 0 the run prints every
end-to-end metric; with --trace 1 it prints the per-layer metrics of a
traced pass. The line before the last describes the run: workload, seed,
machine, BLAS, library versions, the source commit, each task's dev
macro-F1 and the failure share. The last line is
the result object. --out appends both, as one JSON line, to a results
file that bench/compare.py reads. The exit code is 0 only when every
output check passed; a checkout without src/mtlid exits 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


# The operands are small, so a second BLAS thread buys little, and on a
# shared machine a thread waiting for its descheduled partner turns one
# tenant's burst into a slowdown of every matrix product.
BLAS_THREADS = 1


def _source() -> dict:
    """The git commit when the checkout is a repository, and always a digest
    of the package sources, so results stay traceable without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "mtlid").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True,
                text=True,
                timeout=30,
            )
        except (OSError, subprocess.TimeoutExpired):
            proc = None
        if proc is not None and proc.returncode == 0:
            commit = proc.stdout.strip()
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def _machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def _number(value: float) -> float | None:
    return value if math.isfinite(value) else None


def main(argv: list[str] | None = None) -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)  # before numpy loads
    if not (SRC / "mtlid" / "__init__.py").is_file():
        print(f"error: no package sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mtlid

    if Path(mtlid.__file__).resolve().parent != SRC / "mtlid":
        print(f"error: imported mtlid from {mtlid.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from harness import WORKLOADS, Run, run_workload

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="append the run's record to this JSON-lines file")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix=".bench-work-", dir=ROOT) as work:
        run = Run(WORKLOADS[args.workload], args.seed, Path(work))
        metrics = run_workload(run, args.seconds, bool(args.trace))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": _number(v), "unit": unit} for name, (v, unit) in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": _machine(),
        "source": _source(),
        "details": run.details,
        "fail_frac": run.failed / run.attempted,
        "failures": run.failures,
    }
    if args.out:
        with open(args.out, "a", encoding="utf-8") as f:
            f.write(json.dumps({**record, "result": result}, sort_keys=True) + "\n")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
