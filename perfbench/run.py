"""Benchmark of the qlim command line: one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Load model: closed loop, one client.  The run starts one ``qlim`` process
at a time (a fresh interpreter running ``child.py``), waits for it to exit,
and repeats the same seeded invocation until the next one would end past
``--seconds``.  Every process gets ``QL_THREADS`` = the number of CPUs this
process may run on.  After the timed region the artifacts are checked:
the first successful invocation's against the library's reference path
(workloads.py), every other one's byte for byte against the first.  A
defect that repeats in every invocation fails its operations in each.

``--trace 0`` reports the end-to-end metrics, medians over invocations.
``--trace 1`` alternates untraced and traced invocations and reports the
per-layer metrics of spans.py, medians over the traced ones, plus
``trace.overhead_s``.  Metric names and units come from BENCHMARK.json.
The last line of stdout is the JSON result; a readable summary, with the
machine facts, goes to stderr.

``--smoke`` runs every workload at tiny sizes, untraced and traced, and
shows that every metric is emitted, every check passes, and a corrupted
artifact is counted as a failed operation.  It exits non-zero otherwise.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
INVOCATION_TIMEOUT_S = 120  # keeps a hung run inside 180 s


@dataclass
class Invocation:
    trace: bool
    rc: int
    wall: float  # spawn to exit
    main_wall: float  # spawn to cli.main returning
    setup: float  # spawn to quantile_limits.cli imported
    cpu: float
    rss_mb: float
    stamp: dict
    out: Path
    digest: str


def ql_threads() -> int:
    return len(os.sched_getaffinity(0))


def machine_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "QL_THREADS": ql_threads(),
    }


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["QL_THREADS"] = str(ql_threads())
    return env


def _digest(out: Path, patterns) -> str:
    h = hashlib.sha256()
    for path in sorted(p for pat in patterns for p in out.glob(pat)):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def invoke(job, out: Path, trace: bool, env: dict) -> Invocation:
    out.mkdir(parents=True)
    stamp_path = out.with_suffix(".stamp.json")
    cmd = [sys.executable, str(HERE / "child.py"), str(stamp_path), str(int(trace)), *job.argv(out)]
    with open(out / "stdout.txt", "wb") as so, open(out.with_suffix(".err"), "wb") as se:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=so, stderr=se, env=env, cwd=ROOT)
        timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = time.monotonic()
    proc.returncode = rc = os.waitstatus_to_exitcode(status)
    stamp = json.loads(stamp_path.read_text()) if rc == 0 else {}
    return Invocation(
        trace=trace,
        rc=rc,
        wall=end - start,
        main_wall=stamp.get("main_end", end) - start,
        setup=stamp.get("ready", end) - start,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        stamp=stamp,
        out=out,
        digest=_digest(out, job.artifacts) if rc == 0 else "",
    )


def run_invocations(job, work: Path, seconds: float, trace: bool) -> list[Invocation]:
    """Closed loop: invoke until the next invocation would end past ``seconds``.
    Only the first successful invocation's directory is kept."""
    env = _child_env()
    # warm the file cache for the imports every invocation makes
    subprocess.run(
        [sys.executable, "-c", "import quantile_limits.cli, scipy.stats"],
        env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        timeout=INVOCATION_TIMEOUT_S,
    )
    invs: list[Invocation] = []
    ref = None
    deadline = time.monotonic() + seconds
    while True:
        inv = invoke(job, work / f"inv{len(invs)}", trace and len(invs) % 2 == 1, env)
        invs.append(inv)
        if inv.rc == 0 and ref is None:
            ref = inv
        else:
            shutil.rmtree(inv.out)
        if len(invs) >= 1 + trace and time.monotonic() + max(i.wall for i in invs[-2:]) > deadline:
            return invs


def score(job, invs: list[Invocation]) -> tuple[int, int]:
    """(attempted, failed) operations.  The first successful invocation's
    artifacts are checked; every invocation with the same digest fails as
    many operations as it did.  A non-zero exit, or output differing from
    the checked one, fails every operation of its invocation."""
    ref = next((i for i in invs if i.rc == 0), None)
    ref_failed = job.check(ref.out) if ref else 0
    failed = 0
    for inv in invs:
        if inv.rc == 0 and inv.digest == ref.digest:
            failed += ref_failed
        else:
            failed += job.ops
    return job.ops * len(invs), failed


def end_to_end(job, invs: list[Invocation]) -> dict:
    ok = [i for i in invs if i.rc == 0 and not i.trace]

    def med(f):
        return statistics.median(f(i) for i in ok)

    return {
        "wall_s": med(lambda i: i.wall),
        "setup_s": med(lambda i: i.setup),
        "items_per_s": med(lambda i: job.items / (i.wall - i.setup)),
        "cpu_s": med(lambda i: i.cpu),
        "peak_rss_mb": med(lambda i: i.rss_mb),
    }


def per_layer(invs: list[Invocation]) -> tuple[dict, float]:
    """Medians of the traced invocations' layer metrics, and the largest
    accounting residual among them."""
    import spans

    traced = [i for i in invs if i.rc == 0 and i.trace]
    plain = [i for i in invs if i.rc == 0 and not i.trace]
    per_inv = [spans.layer_metrics(i.stamp["trace"], i.stamp["import_s"]) for i in traced]
    metrics = {k: statistics.median(m[k] for m, _ in per_inv) for k in per_inv[0][0]}
    metrics["trace.overhead_s"] = statistics.median(i.main_wall for i in traced) - statistics.median(
        i.main_wall for i in plain
    )
    return metrics, max(abs(r) for _, r in per_inv)


def result_line(spec_metrics: list[dict], values: dict, attempted: int, failed: int) -> str:
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec_metrics
        },
    })


def summary(title: str, spec_metrics: list[dict], values: dict, attempted: int, failed: int) -> str:
    lines = [title]
    lines += [f"  {m['name']:<34} {values[m['name']]:>16.6g} {m['unit']}" for m in spec_metrics]
    lines.append(f"  {'fail_ratio':<34} {failed / attempted:>16.6g} ratio ({failed}/{attempted} ops)")
    return "\n".join(lines)


def measure(name: str, seed: int, seconds: float, trace: bool, sizes: dict, work: Path):
    """Run one workload; return (job, invocations, metric values, residual)."""
    from workloads import WORKLOADS

    work.mkdir(parents=True)
    job = WORKLOADS[name](seed, work, sizes)
    invs = run_invocations(job, work, seconds, trace)
    if not any(i.rc == 0 and not i.trace for i in invs) or (
        trace and not any(i.rc == 0 and i.trace for i in invs)
    ):
        err = next(i for i in invs if i.rc != 0).out.with_suffix(".err")
        raise RuntimeError(f"{name}: qlim failed:\n{err.read_text()[-2000:]}")
    if trace:
        values, residual = per_layer(invs)
    else:
        values, residual = end_to_end(job, invs), 0.0
    return job, invs, values, residual


def _cleanup(work: Path) -> None:
    shutil.rmtree(work, ignore_errors=True)
    try:
        WORK.rmdir()
    except OSError:  # another run is using it
        pass


def _corrupt(out: Path, patterns) -> None:
    """Bump the last digit of the last artifact: one altered CSV row, or the
    last number of the blocks JSON."""
    path = sorted(p for pat in patterns for p in out.glob(pat))[-1]
    data = bytearray(path.read_bytes())
    i = max(i for i, b in enumerate(data) if chr(b).isdigit())
    data[i] = ord(str((int(chr(data[i])) + 1) % 10))
    path.write_bytes(bytes(data))


def smoke(spec: dict) -> int:
    import spans
    from workloads import SMOKE_SIZES, WORKLOADS

    wanted = [m["name"] for m in spec["end_to_end"]] + [m["name"] for m in spec["per_layer"]]
    problems, layers = [], set()
    print(json.dumps(machine_facts()), file=sys.stderr)
    for name in WORKLOADS:
        work = WORK / f"smoke-{name}-{os.getpid()}"
        try:
            job, invs, layer_values, residual = measure(name, 1, 0, True, SMOKE_SIZES[name], work)
            values = {**end_to_end(job, invs), **layer_values}
            attempted, failed = score(job, invs)
            for metrics in (spec["end_to_end"], spec["per_layer"]):
                print(summary(f"{name}:", metrics, values, attempted, failed), file=sys.stderr)
            layers |= {spans.LAYER[s[1]] for i in invs if i.trace for s in i.stamp["trace"]["spans"]}
            missing = [m for m in wanted if m not in values]
            if missing:
                problems.append(f"{name}: metrics not emitted: {missing}")
            if failed:
                problems.append(f"{name}: {failed}/{attempted} operations failed")
            if residual > 1e-6:
                problems.append(f"{name}: self times miss the traced wall by {residual} s")
            ok = [i for i in invs if i.rc == 0]
            _corrupt(ok[0].out, job.artifacts)
            ref_failed = job.check(ok[0].out)
            attempted, failed = score(job, invs)
            print(f"  corrupted artifact: fail_ratio {failed / attempted:.6g} ({failed}/{attempted} ops)",
                  file=sys.stderr)
            if not ref_failed or failed != ref_failed * len(ok):
                problems.append(f"{name}: corrupted artifact counted {failed} failed operations, "
                                f"not {ref_failed} in each of {len(ok)} invocations")
        finally:
            _cleanup(work)
    missing_layers = set(spans.LAYER.values()) - layers
    if missing_layers:
        problems.append(f"layers without spans: {sorted(missing_layers)}")
    print("\n".join(problems) or "smoke: every metric emitted, every check passed, "
          "corruption detected", file=sys.stderr)
    return 1 if problems else 0


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not (SRC / "quantile_limits" / "cli.py").is_file():
        print(f"run.py: no quantile_limits sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import SIZES, WORKLOADS

    if args.smoke:
        return smoke(spec)
    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        job, invs, values, _ = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), SIZES[args.workload], work
        )
        attempted, failed = score(job, invs)
    finally:
        _cleanup(work)
    spec_metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    facts = {**machine_facts(), "workload": args.workload, "seed": args.seed,
             "sizes": job.sizes, "invocations": len(invs), "traced": sum(i.trace for i in invs),
             "walls_s": [round(i.wall, 4) for i in invs]}
    print(json.dumps(facts), file=sys.stderr)
    print(summary(f"{args.workload}:", spec_metrics, values, attempted, failed), file=sys.stderr)
    print(result_line(spec_metrics, values, attempted, failed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
