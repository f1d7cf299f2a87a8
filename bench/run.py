"""Run one stakit benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload online --seed 1 --seconds 30 --trace 0

Run from the repository root (the program is imported from ./src).  The
run generates its inputs from --seed, then for --seconds of wall time runs
whole rounds of closed-loop operations, checking every output outside the
timed region, and loads the standing data SETUPS times spread over that
phase, between rounds (the median of those program calls is ``setup_s``).
The last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.  A traced
run also prints, on the line before, its own (slowed) end-to-end figures
and each module's share of the operation time, and writes every span to
bench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

# one waiting caller: keep BLAS (used by the reference checks) to this thread too
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np  # noqa: E402  (after the thread settings)

from spans import CHECK_OP, SETUP_OP, Tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUPS = 9  # set-ups per run, spread over the measured phase
WINDOWS = 10  # stretches of the run whose throughputs give the median items_per_s


def measure(workload, seconds: float, tracer) -> dict:
    """Closed loop of whole rounds for ``seconds`` of wall time, checks included.

    The standing data is loaded SETUPS times, spread evenly over the phase
    (between rounds), so that ``setup_s``, their median, samples the host's
    speed over the whole run rather than over one moment of it.  The
    previous load stays in place until the next is complete, as in a service
    that reloads its data; that also makes the memory peak settle at the
    same height in every run.  Only the operations themselves are timed for
    the latency and throughput figures; ``rounds`` holds the (items,
    seconds) of each round.
    """
    latencies, setup_times, rounds = [], [], []
    failed, wrong, k = 0, 0, 0

    def setup() -> None:
        if tracer:
            tracer.op = SETUP_OP
        gc.collect()
        setup_times.append(workload.setup())

    start = perf_counter()
    while (elapsed := perf_counter() - start) < seconds:
        if len(setup_times) < SETUPS and elapsed >= len(setup_times) * seconds / SETUPS:
            setup()
            continue
        items, timed = 0, 0.0
        for _ in range(workload.round_size):
            if tracer:
                tracer.op = k
            t0 = perf_counter()
            try:
                out = workload.run(k)
            except Exception:  # a failing operation is counted, and the loop goes on
                t1 = perf_counter()
                failed += 1
                sys.stderr.write(f"operation {k} raised:\n{traceback.format_exc()}")
            else:
                t1 = perf_counter()
                if tracer:
                    tracer.op = CHECK_OP
                try:
                    workload.check(k, out)
                    items += workload.items(k)
                except Exception as exc:  # a wrong output, or a check that could not run on it
                    failed += 1
                    wrong += 1
                    sys.stderr.write(f"operation {k} failed its check: {exc!r}\n")
            latencies.append(t1 - t0)
            timed += t1 - t0
            k += 1
        rounds.append((items, timed))
    while len(setup_times) < SETUPS:  # rounds outlasted the run: finish the set-ups
        setup()
    return {"attempted": k, "failed": failed, "wrong": wrong, "rounds": rounds, "timed": sum(latencies),
            "latencies": latencies, "setup_times": setup_times}


def items_per_s(rounds: list[tuple[int, float]]) -> float:
    """Median throughput over WINDOWS stretches of consecutive whole rounds.

    A median of stretches rather than one overall ratio, so that a few
    seconds in which the host runs slow move the figure less.
    """
    n = min(WINDOWS, len(rounds))
    rates = []
    for i in range(n):
        part = rounds[i * len(rounds) // n:(i + 1) * len(rounds) // n]
        rates.append(sum(r[0] for r in part) / sum(r[1] for r in part))
    return statistics.median(rates)


def end_to_end(m: dict) -> dict:
    p50, p90 = np.percentile(m["latencies"], [50, 90])
    return {
        "items_per_s": {"value": items_per_s(m["rounds"]), "unit": "items/s"},
        "latency_p50_ms": {"value": 1e3 * float(p50), "unit": "ms"},
        "latency_p90_ms": {"value": 1e3 * float(p90), "unit": "ms"},
        "setup_s": {"value": statistics.median(m["setup_times"]), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
    }


def peak_rss_mb() -> float:
    """High-water resident memory of this process's own address space.

    VmHWM, not ru_maxrss: Linux carries the launching process's peak into
    ru_maxrss across exec, so that figure would depend on who started us.
    """
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0  # kB
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def layer_unit(name: str) -> str:
    if name.endswith("self_ms"):
        return "ms/setup" if name.startswith("setup.") else "ms/op"
    if "bytes" in name:
        return "B/setup" if name.startswith("setup.") else "B/op"
    return "flop/op" if name.endswith("flops") else "count/op"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "stakit" / "__init__.py").is_file():
        sys.stderr.write(f"stakit sources not found under {src}; run from a checkout of the repository\n")
        return 2
    sys.path.insert(0, str(src))
    import stakit
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}\n")
        return 2
    if args.seconds <= 0:
        sys.stderr.write("--seconds must be positive\n")
        return 2

    (BENCH / "work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BENCH / "work"))
    tracer = Tracer() if args.trace else None
    try:
        workload = WORKLOADS[args.workload](args.seed, work)
        workload.generate()
        if tracer:
            tracer.install(stakit)
        m = measure(workload, args.seconds, tracer)
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    metrics = end_to_end(m)
    if tracer:
        print(json.dumps({"traced_end_to_end": metrics, "self_time_share": tracer.module_shares(m["timed"])}))
        (BENCH / "out").mkdir(exist_ok=True)
        tracer.write(BENCH / "out" / f"trace-{args.workload}-seed{args.seed}.npz")
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in tracer.layer_metrics(m["attempted"], SETUPS).items()}
    print(json.dumps({"correct": m["wrong"] == 0, "attempted": m["attempted"], "failed": m["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
