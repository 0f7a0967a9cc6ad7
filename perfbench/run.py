"""sdcw benchmark: one workload, one process, one caller.

    python3 perfbench/run.py --workload desk-pipeline --seed 1 --seconds 33 --trace 0

Runs from the root of a source checkout and imports sdcw from its `src/`.
With `--trace 0` it sets the workload up several times (setup_s is the
median), checks the program's outputs, runs a warm-up round where the
workload needs one, then repeats rounds of the workload for `--seconds` and
reports the end-to-end metrics as medians over the samples. With
`--trace 1` it runs a warm-up round, one untraced round and one traced
round, so that work counters repeat exactly, and reports the per-layer
metrics plus the tracing overhead. The last line of standard output is the
result; a fuller record with provenance goes to perfbench/out/.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"


def cap_blas_threads() -> int:
    """Size the BLAS/OpenMP pools to the CPUs this process may use; must run
    before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
    return nproc


def import_sdcw() -> None:
    src = ROOT / "src"
    if not (src / "sdcw" / "__init__.py").is_file():
        sys.exit(f"error: no sdcw source tree at {src}")
    sys.path.insert(0, str(src))
    import sdcw

    if Path(sdcw.__file__).resolve().parent != (src / "sdcw").resolve():
        sys.exit(f"error: imported sdcw from {sdcw.__file__}, not from {src}")


def main(argv=None) -> int:
    nproc = cap_blas_threads()
    import_sdcw()
    sys.path.insert(0, str(ROOT))
    from perfbench import harness, workloads
    from perfbench.metrics import END_TO_END, PER_LAYER

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    result, record = harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                                 OUT, nproc, ROOT)
    for name, unit in (PER_LAYER if args.trace else END_TO_END).items():
        print(f"{name} = {result['metrics'][name]['value']:.6g} {unit}")
    for failure in record["failures"][:20]:
        print(f"failed: {failure}", file=sys.stderr)
    print(harness.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
