"""Run one workload over several seeds, one run after another, and print
each end-to-end metric's median, quartiles and spread (interquartile
distance as a share of the median).

    python3 perfbench/repeat.py --workload query --seeds 1-10 --seconds 20

With --json FILE the per-run results and the summary are also written there.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else float("nan")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="20")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--json", default=None)
    args = ap.parse_args(argv)

    runs = []
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
               "--seconds", args.seconds, "--trace", args.trace]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result, record = json.loads(lines[-1]), json.loads(lines[-2])
        runs.append({"seed": seed, "result": result, "record": record})
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)

    summary = {}
    for name, first in runs[0]["result"]["metrics"].items():
        stats = summarize([r["result"]["metrics"][name]["value"] for r in runs])
        summary[name] = {"unit": first["unit"], **stats}
        print(f"{name:>40} {stats['median']:.6g} {first['unit']}  q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}  spread {stats['spread']:.4f}")
    if args.json:
        Path(args.json).write_text(json.dumps({"workload": args.workload, "runs": runs, "summary": summary}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
