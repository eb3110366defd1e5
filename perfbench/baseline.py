"""Run every workload on several seeds and record the numbers.

    python3 perfbench/baseline.py

For each workload of BENCHMARK.json: ``run.py --trace 0`` with seeds 1..10,
then one ``run.py --trace 1`` with seed 1, each for BENCHMARK.json's
run_seconds.  Prints every end-to-end metric with its unit, median,
quartiles and spread ((q3 - q1) / median, as ``statistics.quantiles(n=4)``
gives them) next to its bound, flagged WIDE unless below a third of it,
plus fail_ratio, and writes it all with the machine facts and the per-layer
metrics of the traced run to baseline.json beside this script.

HOLDOUT_SEED is never used here nor while tuning a change; run it once to
confirm a claimed gain on a seed the change was not shaped on.
"""

import json
import statistics
import subprocess
import sys
import time

from run import HERE, ROOT, machine_facts

SEEDS = list(range(1, 11))
HOLDOUT_SEED = 7777
OUT = HERE / "baseline.json"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, float]:
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    elapsed = time.monotonic() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), elapsed


def spread_stats(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    record = {
        "machine": machine_facts(),
        "run_seconds": seconds,
        "seeds": SEEDS,
        "holdout_seed": HOLDOUT_SEED,
        "workloads": {},
    }
    for name in (w["name"] for w in spec["workloads"]):
        results, elapsed = [], []
        for seed in SEEDS:
            res, dt = run_once(name, seed, seconds, 0)
            results.append(res)
            elapsed.append(dt)
        traced, dt = run_once(name, 1, seconds, 1)
        elapsed.append(dt)
        attempted = sum(r["attempted"] for r in results) + traced["attempted"]
        failed = sum(r["failed"] for r in results) + traced["failed"]
        entry = {
            "end_to_end": {},
            "fail_ratio": failed / attempted,
            "attempted": attempted,
            "failed": failed,
            "max_run_elapsed_s": max(elapsed),
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        print(f"{name}: {len(SEEDS)} runs of {seconds} s, longest run {max(elapsed):.1f} s")
        for m in spec["end_to_end"]:
            st = spread_stats([r["metrics"][m["name"]]["value"] for r in results])
            entry["end_to_end"][m["name"]] = {"unit": m["unit"], **st}
            flag = "ok" if st["spread"] < m["bound"] / 3 else "WIDE"
            print(f"  {m['name']:<12} {st['median']:>14.6g} {m['unit']:<5} "
                  f"q1 {st['q1']:<12.6g} q3 {st['q3']:<12.6g} "
                  f"spread {st['spread']:.4f} (bound {m['bound']}) {flag}")
        print(f"  {'fail_ratio':<12} {failed / attempted:>14.6g} ratio ({failed}/{attempted} ops)")
        record["workloads"][name] = entry
    OUT.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
