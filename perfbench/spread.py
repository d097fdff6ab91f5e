"""Run the benchmark over several seeds and report each metric's median and spread.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --workloads binary-n300 --seeds 1-5
    python3 perfbench/spread.py --seeds 0-9 --out perfbench/baseline.json
    python3 perfbench/spread.py --seeds 0 --trace 1 --out perfbench/baseline.json

Spread is the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.  An
end-to-end metric is steady when its spread is below a third of its bound
in ``BENCHMARK.json``; ``setup_s`` too.  Each workload also reports in how
many runs the seed had reference orders to check (seeds 0-63 do).  ``--out``
stores the summary under the key ``trace0`` or ``trace1`` of that file and
keeps the other key.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=_seeds, default=_seeds("0-9"))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    section = {"seeds": args.seeds, "seconds": args.seconds, "workloads": {}}
    steady = True
    for name in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{name} seed {seed}: NOT CORRECT ({result['failed']} failed)")
                steady = False
            result_file = HERE / "out" / f"{name}-seed{seed}-trace{args.trace}.json"
            full = json.loads(result_file.read_text())
            result["reference_checked"] = full["reference_checked"]
            runs.append(result)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        checked = sum(r["reference_checked"] for r in runs)
        print(f"{name}: {len(runs)} runs, attempted {attempted}, failed {failed}, "
              f"reference orders checked in {checked}")
        metrics = {}
        for metric in runs[0]["metrics"]:
            summary = summarise([r["metrics"][metric]["value"] for r in runs])
            summary["unit"] = runs[0]["metrics"][metric]["unit"]
            metrics[metric] = summary
            bound = bounds.get(metric)
            verdict = ""
            if bound is not None:
                ok = summary["spread"] < bound / 3
                steady &= ok
                verdict = f"bound {bound:.2f} {'ok' if ok else 'WIDE'}"
            print(f"  {metric:38s} median {summary['median']:12.6g} {summary['unit']:9s} "
                  f"q1 {summary['q1']:10.5g} q3 {summary['q3']:10.5g} "
                  f"spread {summary['spread']:6.3f} {verdict}")
        section["workloads"][name] = {"attempted": attempted, "failed": failed,
                                      "reference_checked": checked, "metrics": metrics}
        if "provenance" not in section:
            section["provenance"] = full["provenance"]
            del section["provenance"]["seed"]

    if args.out:
        data = json.loads(args.out.read_text()) if args.out.is_file() else {}
        data[f"trace{args.trace}"] = section
        args.out.write_text(json.dumps(data, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
