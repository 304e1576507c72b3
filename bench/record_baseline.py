"""Run every workload over several seeds and record the spread of each
end-to-end metric.

    python3 bench/record_baseline.py --seeds 1-10 --out bench/baseline.json

Each run is one ``bench/run.py`` process with the run length from
BENCHMARK.json. For every metric the output holds the ten values, their
median and quartiles (``statistics.quantiles(values, n=4)``), and the
spread: the distance between the quartiles as a share of the median; for
every workload it also holds the operations attempted and failed over all
its runs.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=None,
                        help="comma-separated; default: all in BENCHMARK.json")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    summary: dict = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in workloads:
        values: dict[str, list[float]] = {}
        attempted = failed = 0
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not line["correct"]:
                print(proc.stdout, proc.stderr, file=sys.stderr)
                return 1
            attempted += line["attempted"]
            failed += line["failed"]
            for name, metric in line["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            if "environment" not in summary:
                result = json.loads((ROOT / "bench" / "out" /
                                     f"{workload}-seed{seed}-trace0.json").read_text())
                summary["environment"] = result["environment"]
        table = {}
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            spread = (q3 - q1) / median
            table[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                           "values": vals}
            print(f"{workload:12} {name:26} median {median:12.6g}  spread {spread:6.3f}"
                  f"  bound {bounds[name]:.2f}", flush=True)
        print(f"{workload:12} attempted {attempted}  failed {failed}", flush=True)
        summary["workloads"][workload] = {"attempted": attempted, "failed": failed,
                                          "metrics": table}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
