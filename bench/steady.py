"""Repeat workloads over several seeds and show how steady every metric is.

    python3 bench/steady.py                      # 10 seeds on every workload
    python3 bench/steady.py --runs 5 --workloads online --traced

For each workload, runs bench/run.py for BENCHMARK.json's run_seconds
once per seed (seeds 1 .. runs, one run at a time) and prints, per end-to-end
metric, the median, the quartiles (statistics.quantiles, n=4), the
spread (q3 - q1) / median, and the metric's bound from BENCHMARK.json.
A spread above a third of the bound is flagged; ``setup_s`` is compared
between sets by its median, so its spread is shown but not flagged.
With --traced it also makes one traced run per workload and prints the
tracing overhead (traced minus untraced) and each layer's share of the
traced operation time, as the traced run reports them.  Everything
printed is also saved as JSON under bench/out/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    if trace:
        result["traced"] = json.loads(lines[-2])
    return result


def spread_table(workload: str, results: list[dict], spec: dict) -> list[dict]:
    rows = []
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
        spread = (q3 - q1) / med
        flag = "" if metric["name"] == "setup_s" or spread <= metric["bound"] / 3 else "  <-- above bound/3"
        rows.append({"workload": workload, "metric": metric["name"], "unit": metric["unit"], "median": med,
                     "q1": q1, "q3": q3, "spread": spread, "bound": metric["bound"], "values": values})
        print(f"  {metric['name']:<16} median {med:12.5g} {metric['unit']:<8} q1 {q1:12.5g} q3 {q3:12.5g}"
              f"  spread {100 * spread:6.2f}%  bound {100 * metric['bound']:.0f}%{flag}")
    return rows


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)

    seconds, seeds = spec["run_seconds"], range(1, args.runs + 1)
    report = {"seconds": seconds, "seeds": [seeds[0], seeds[-1]], "workloads": {}}
    for workload in args.workloads.split(","):
        print(f"{workload}: {args.runs} runs of {seconds} s", flush=True)
        results = [run_once(workload, seed, seconds, 0) for seed in seeds]
        entry = {"runs": results, "table": spread_table(workload, results, spec)}
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"  attempted {[r['attempted'] for r in results]}  failed share {sorted(shares)}"
              f"  correct {all(r['correct'] for r in results)}"
              f"  wall per run {max(r['wall_s'] for r in results):.1f} s at most", flush=True)
        if args.traced:
            traced = run_once(workload, seeds[0], seconds, 1)
            untraced = entry["table"]
            overhead = {}
            for row in untraced:
                if row["metric"] in ("items_per_s", "latency_p50_ms", "latency_p90_ms"):
                    t = traced["traced"]["traced_end_to_end"][row["metric"]]["value"]
                    overhead[row["metric"]] = (t - row["median"]) / row["median"]
            shares = traced["traced"]["self_time_share"]
            entry |= {"traced": traced, "tracing_overhead": overhead, "self_time_share": shares}
            print("  tracing overhead (traced - untraced median): "
                  + ", ".join(f"{k} {100 * v:+.1f}%" for k, v in overhead.items()))
            print("  self-time share of traced operation time: "
                  + ", ".join(f"{k} {100 * v:.1f}%" for k, v in shares.items()))
            print("  per-layer (nonzero): " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in traced["metrics"].items() if v["value"]), flush=True)
        report["workloads"][workload] = entry
    (BENCH / "out").mkdir(exist_ok=True)
    out = BENCH / "out" / f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.write_text(json.dumps(report, indent=1))
    print(f"saved {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
