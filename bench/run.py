"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload train-short --seed 1 --seconds 40 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics, or with
``--trace 1`` the per-layer metrics of a traced run. The full result,
with the environment, is written to ``bench/out/``. The exit code is
non-zero when a correctness check fails.
"""

import os

# BLAS threads are pinned before numpy loads, to the same value on every run.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "varnamer" / "__init__.py").is_file():
        print(f"varnamer sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import bench_workloads as bw

    if args.workload not in bw.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(bw.WORKLOADS)}")
    try:
        result = bw.run(args.workload, args.seed, args.seconds, bool(args.trace))
    except bw.CheckFailed as exc:
        print(f"CHECK FAILED: {exc}")
        print(json.dumps({"correct": False, "attempted": 0, "failed": 0, "metrics": {}}))
        return 1
    out = ROOT / "bench" / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1, default=str) + "\n")
    print("\n".join(bw.report_lines(result)))
    print(f"  full result: {out}")
    print(json.dumps(bw.result_line(result)))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
