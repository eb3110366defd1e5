"""Layer spans for the traced benchmark run.

Workload side (:func:`traced_main`, run by ``child.py``): wrap the
library's public functions wherever the library looks them up, run
``cli.main`` under a root span, then make untraced side calls on the same
derived seeds: ``run_replicated`` once more on one thread, serializing and
writing like the CLI, for the speedup the worker threads achieved, and
``uniforms``, ``sample_stream`` and ``run_trajectory`` with one record and
at the workload's stride, whose differences split ``run_trajectory`` into
draw, count and extract.
Spans stay in memory until the run ends.  Nothing in the library changes.

Benchmark side (:func:`layer_metrics`): turn one dump into the per-layer
metrics.

A span is ``[id, name, parent, thread, start, end, cpu, counts]``: wall
clock start and end, and the CPU time its thread spent inside it.  A span
opened on a thread with no open span of its own has as parent the innermost
open span of the main thread, so replication workers hang under
``run_replicated``.

Two self times come of that.  The wall self time is a span's duration minus
the durations of its direct children, whatever their thread: summed over
all spans it gives the root's duration exactly, and where workers overlap,
that of ``run_replicated`` goes negative by the overlap they achieved.  The
CPU self time is a span's CPU time minus that of its direct children on its
own thread.  It leaves out the time a thread waits for the GIL or for I/O,
which with worker threads the wall time charges to whatever span is open;
so the ``busy_s`` and ``ns_per_*`` metrics are CPU self times.
"""

import dataclasses
import functools
import importlib
import itertools
import os
import sys
import tempfile
import threading
import time
from collections import defaultdict


def _words(args, result):
    return {"words": result.size}


# (module, attribute, layer, counts(args, result) or None).  Module
# functions are replaced in every quantile_limits module that imported
# them; class attributes are replaced on the class.
TARGETS = [
    ("quantile_limits.rng", "uniforms", "rng", _words),
    ("quantile_limits.rng", "uniform_matrix", "rng", _words),
    ("quantile_limits.rng", "stream_words", "rng", _words),
    ("quantile_limits.simulate", "sample_stream", "simulate.draw",
     lambda a, r: {"draws": r.size}),
    ("quantile_limits.simulate", "run_trajectory", "simulate.trajectory",
     lambda a, r: {"records": len(r)}),
    ("quantile_limits.simulate", "switch_stats", "simulate.analysis", None),
    ("quantile_limits.simulate", "sandwich_check", "simulate.analysis", None),
    ("quantile_limits.simulate", "gap_interior_hits", "simulate.analysis", None),
    ("quantile_limits.simulate", "trajectory_csv_bytes", "simulate.serialize",
     lambda a, r: {"bytes": len(r), "records": len(a[0])}),
    ("quantile_limits.simulate", "report_to_json_bytes", "simulate.serialize",
     lambda a, r: {"bytes": len(r)}),
    ("quantile_limits.simulate", "run_replicated", "simulate.replicate", None),
    ("quantile_limits.simulate", "deviation_experiment", "simulate.blocks.deviation", None),
    ("quantile_limits.simulate", "block_event_experiment", "simulate.blocks.block_event", None),
    ("quantile_limits.simulate", "write_trajectory_csv", "cli.write",
     lambda a, r: {"bytes": os.path.getsize(a[1])}),
    ("quantile_limits.berry_esseen", "phi_of_k", "berry_esseen", lambda a, r: {"calls": 1}),
    ("quantile_limits.berry_esseen", "bernoulli_moments", "berry_esseen", None),
    ("quantile_limits.empirical", "EmpiricalSample.extend", "empirical.extend",
     lambda a, r: {"draws": len(a[1])}),
    ("quantile_limits.empirical", "gc_distance", "empirical.gc", None),
    ("quantile_limits.distributions", "from_spec", "distributions", None),
    ("quantile_limits.distributions", "fair_coin", "distributions", None),
    ("quantile_limits.distributions", "bernoulli", "distributions", None),
    ("quantile_limits.distributions", "gapped_example", "distributions", None),
    ("quantile_limits.distributions", "DiscreteDistribution.quantile_pair", "distributions", None),
    ("pathlib", "Path.write_bytes", "cli.write", lambda a, r: {"bytes": len(a[1])}),
    ("pathlib", "Path.write_text", "cli.write", lambda a, r: {"bytes": len(a[1].encode())}),
    ("pathlib", "Path.replace", "cli.write", None),
]

LAYER = {f"{mod.rsplit('.', 1)[-1]}.{attr}": layer for mod, attr, layer, _ in TARGETS}
LAYER["cli.stdout"] = "cli.write"
LAYER["cli.main"] = "cli.other"


class Tracer:
    """In-memory span recorder; ``wrap`` returns a timed stand-in for a function."""

    def __init__(self, capture=()):
        self.spans: list[list] = []
        self.first_args: dict[str, tuple] = {}  # of the spans named in capture
        self._capture = frozenset(capture)
        self.enabled = True
        self._ids = itertools.count()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.get_ident()

    def wrap(self, fn, name, counts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if name in self._capture:
                self.first_args.setdefault(name, (args, kwargs))
            thread = threading.get_ident()
            stack = self._stacks.setdefault(thread, [])
            main = self._stacks.get(self._main)
            parent = stack[-1] if stack else (main[-1] if main else None)
            sid = next(self._ids)
            stack.append(sid)
            start, cpu = time.perf_counter(), time.thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                cpu = time.thread_time() - cpu
                end = time.perf_counter()
                stack.pop()
            n = counts(args, result) if counts else {}
            self.spans.append([sid, name, parent, thread, start, end, cpu, n])
            return result

        return traced


class _Stdout:
    """sys.stdout stand-in whose writes are spans of the cli.write layer."""

    def __init__(self, raw, tracer):
        self._raw = raw
        self.write = tracer.wrap(raw.write, "cli.stdout", lambda a, r: {"bytes": len(a[0].encode())})

    def __getattr__(self, name):
        return getattr(self._raw, name)


def _install(tracer: Tracer) -> None:
    for mod_name, attr, _, counts in TARGETS:
        mod = importlib.import_module(mod_name)
        name = f"{mod_name.rsplit('.', 1)[-1]}.{attr}"
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, tracer.wrap(getattr(cls, meth), name, counts))
            continue
        original = getattr(mod, attr)
        wrapped = tracer.wrap(original, name, counts)
        for m in list(sys.modules.values()):
            if getattr(m, "__name__", "").startswith("quantile_limits") and getattr(m, attr, None) is original:
                setattr(m, attr, wrapped)


def _timed(fn, *args, clock=time.thread_time, **kwargs) -> float:
    t0 = clock()
    fn(*args, **kwargs)
    return clock() - t0


def _side_calls(first_args: dict, scratch: str) -> dict:
    from quantile_limits import rng, simulate

    side = {}
    if "simulate.run_replicated" in first_args:
        args, kwargs = first_args["simulate.run_replicated"]
        # the same replications on one thread, each written to a file in
        # scratch as the CLI writes it
        threads = os.environ.get("QL_THREADS", "")
        os.environ["QL_THREADS"] = "1"
        try:
            with tempfile.TemporaryDirectory(dir=scratch) as tmp:
                side["replicate_serial"] = _timed(
                    simulate.run_replicated, *args, clock=time.perf_counter,
                    **{**kwargs, "on_trajectory": lambda rep, traj: simulate.write_trajectory_csv(
                        traj, os.path.join(tmp, f"traj_{rep}.csv"))},
                )
        finally:
            os.environ["QL_THREADS"] = threads
        cfg = args[0]
        one = dataclasses.replace(cfg, record_stride=cfg.n_max)
        t = dict.fromkeys(("uniforms", "sample_stream", "one_record", "full"), 0.0)
        for rep in range(cfg.replications):
            seed = rng.derive_seed(cfg.master_seed, rep)
            t["uniforms"] += _timed(rng.uniforms, seed, cfg.n_max)
            t["sample_stream"] += _timed(simulate.sample_stream, cfg.distribution, seed, cfg.n_max)
            t["one_record"] += _timed(simulate.run_trajectory, one, rep)
            t["full"] += _timed(simulate.run_trajectory, cfg, rep)
        side.update(t, draws=cfg.replications * cfg.n_max, atoms=len(cfg.distribution))
    if "simulate.block_event_experiment" in first_args:
        args, kwargs = first_args["simulate.block_event_experiment"]
        side["block_event_warm"] = _timed(simulate.block_event_experiment, *args, **kwargs)
    return side


def traced_main(argv: list[str], scratch: str) -> tuple[int, float, dict]:
    """Run ``cli.main(argv)`` traced; return its code, the monotonic time it
    returned, and the dump (spans and side-call timings).  Side calls write
    under the directory ``scratch``."""
    from quantile_limits import cli

    tracer = Tracer(capture=("simulate.run_replicated", "simulate.block_event_experiment"))
    _install(tracer)
    stdout = sys.stdout
    sys.stdout = _Stdout(stdout, tracer)
    try:
        rc = tracer.wrap(cli.main, "cli.main")(argv)
    finally:
        main_end = time.monotonic()
        tracer.enabled = False
        sys.stdout = stdout
    side = _side_calls(tracer.first_args, scratch) if rc == 0 else {}
    return rc, main_end, {"spans": tracer.spans, "side": side}


# ---------------------------------------------------------------------------
# Benchmark side


def _ns(seconds: float, n: float) -> float:
    return seconds / n * 1e9 if n else 0.0


def layer_metrics(dump: dict, import_s: float) -> tuple[dict, float]:
    """Per-layer metrics of one traced invocation, and the accounting
    residual: the root's duration minus the sum of all wall self times."""
    spans, side = dump["spans"], dump["side"]
    dur = {s[0]: s[5] - s[4] for s in spans}
    cpu = {s[0]: s[6] for s in spans}
    thread = {s[0]: s[3] for s in spans}
    layer = {s[0]: LAYER[s[1]] for s in spans}
    child_time, child_cpu = defaultdict(float), defaultdict(float)
    for s in spans:
        if s[2] is not None:
            child_time[s[2]] += dur[s[0]]
            if thread[s[2]] == s[3]:
                child_cpu[s[2]] += cpu[s[0]]
    wall_self = defaultdict(float)
    busy = defaultdict(float)  # CPU self time
    counts = defaultdict(int)
    for sid, name, parent, *_, n in spans:
        wall_self[layer[sid]] += dur[sid] - child_time[sid]
        busy[layer[sid]] += cpu[sid] - child_cpu[sid]
        if parent is None or layer[parent] != layer[sid]:  # count work once per layer
            for key, value in n.items():
                counts[f"{layer[sid]}.{key}"] += value

    wall = sum(dur[s[0]] for s in spans if s[2] is None)
    rep_ids = {s[0] for s in spans if s[1] == "simulate.run_replicated"}
    rep_wall = sum(dur[i] for i in rep_ids)
    rep_children = [s for s in spans if s[2] in rep_ids]
    draw_busy = busy["simulate.draw"] + side.get("sample_stream", 0.0) - side.get("uniforms", 0.0)
    count_busy = side.get("one_record", 0.0) - side.get("sample_stream", 0.0)
    extract_busy = side.get("full", 0.0) - side.get("one_record", 0.0)
    block_event_first = sum(
        cpu[s[0]] for s in spans if s[1] == "simulate.block_event_experiment"
    )
    metrics = {
        "rng.words": counts["rng.words"],
        "rng.busy_s": busy["rng"],
        "rng.ns_per_word": _ns(busy["rng"], counts["rng.words"]),
        "simulate.draw.busy_s": draw_busy,
        "simulate.draw.ns_per_draw": _ns(
            draw_busy, counts["simulate.draw.draws"] + side.get("draws", 0)
        ),
        "simulate.count.busy_s": count_busy,
        "simulate.count.ns_per_draw_atom": _ns(
            count_busy, side.get("draws", 0) * side.get("atoms", 0)
        ),
        "simulate.extract.busy_s": extract_busy,
        "simulate.extract.records": counts["simulate.trajectory.records"],
        "simulate.trajectory.busy_s": busy["simulate.trajectory"],
        "simulate.analysis.busy_s": busy["simulate.analysis"],
        "simulate.serialize.busy_s": busy["simulate.serialize"],
        "simulate.serialize.bytes": counts["simulate.serialize.bytes"],
        "simulate.serialize.ns_per_record": _ns(
            busy["simulate.serialize"], counts["simulate.serialize.records"]
        ),
        "simulate.replicate.wall_s": rep_wall,
        "simulate.replicate.self_s": wall_self["simulate.replicate"],
        "simulate.replicate.speedup": (
            side["replicate_serial"] / rep_wall if rep_wall else 0.0
        ),
        "simulate.replicate.concurrency": (
            sum(dur[s[0]] for s in rep_children) / rep_wall if rep_wall else 0.0
        ),
        "simulate.replicate.workers": len({s[3] for s in rep_children}),
        "simulate.blocks.deviation_s": busy["simulate.blocks.deviation"],
        "simulate.blocks.block_event_s": busy["simulate.blocks.block_event"],
        "simulate.blocks.lazy_import_s": (
            block_event_first - side["block_event_warm"] if "block_event_warm" in side else 0.0
        ),
        "berry_esseen.phi_calls": counts["berry_esseen.calls"],
        "berry_esseen.busy_s": busy["berry_esseen"],
        "empirical.extend.busy_s": busy["empirical.extend"],
        "empirical.extend.ns_per_draw": _ns(
            busy["empirical.extend"], counts["empirical.extend.draws"]
        ),
        "empirical.gc.busy_s": busy["empirical.gc"],
        "distributions.busy_s": busy["distributions"],
        "cli.import_s": import_s,
        "cli.write_s": busy["cli.write"],
        "cli.write_bytes": counts["cli.write.bytes"],
        "cli.other_s": busy["cli.other"],
        "trace.wall_s": wall,
        "trace.offcpu_s": wall - sum(busy.values()),
    }
    return metrics, wall - sum(wall_self.values())
