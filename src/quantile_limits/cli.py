"""Command-line front end.

Subcommands, and what each prints: quantile ``key: value`` lines; simulate
one summary line, its trajectories and report going to CSV and JSON files;
blocks, be-bound and phi-of-k JSON; transform text, or CSV with ``--format
csv``; gc a CSV table, or with ``--output`` a one-line note of the file it
wrote.  Plotting belongs to downstream tools.  Exit codes: 0 success, 2
validation error (message names the offending flag), 1 internal error.
Identical flags and seeds produce byte-identical output.  Every flag error is
a ``QuantileLimitsError`` whose ``param`` names the flag (``n_max`` is
reported as ``--n-max``, and the moments derived from ``--q`` as ``--q``).
``--family`` and ``--q`` are a spec for ``distributions.from_spec``, as a
``--dist-file`` is.  Value ranges are checked by the library's
``errors.check_*`` rules only (``qlim gc --n``, which no library call takes,
is checked with them here), whose argument names match the flags.
``simulate`` stages a run in ``.qlim-partial/`` inside ``--output-dir``, which it
owns and removes after every run, and moves the files out, ``report.json`` last.
An ``--output-dir`` that is no directory, or where the stage cannot be written, is a flag error.

Loading this module configures the process, and only this module does:
numpy's OpenBLAS starts no thread pool, and under glibc the allocator keeps
the memory it frees (its mmap threshold is fixed at 32 MiB and its trim
threshold at 64 MiB, glibc's own ceiling and twice it), so the arrays every
trajectory frees are not faulted in again by the next one.  Either threshold
alone leaves one way for freed arrays back to the kernel.  All threads share
one arena, so what one worker frees the other reuses.  A setting the
caller made, an ``OPENBLAS_NUM_THREADS`` value or any ``MALLOC_*`` variable or
``glibc.malloc`` tunable, is kept.  Once its imports are done the module
also moves every object the collector tracks into the permanent generation
(``gc.freeze()``), so interpreter exit does not traverse and free numpy's and
the package's import-time objects one by one, which took 30-40 ms of every
run; objects made later are collected as before.  A long-lived process that
imports this module can hand them back to the collector with ``gc.unfreeze()``.
The collector is paused while the module imports (36 passes, 4-6 ms on 2 vCPUs),
then left as the caller had it.  No pass runs before the freeze: it would cost
more than it frees, so ~360 unreachable import-time objects (~60 KB) are frozen.
"""

import gc
_collecting = gc.isenabled()
gc.disable()  # until the freeze below, which keeps what these imports make

import argparse
import json
import os
import re
import shutil
import sys
from dataclasses import asdict
from pathlib import Path

# OpenBLAS reads this once, when numpy loads it, and otherwise starts a
# spinning thread per extra core; no qlim command makes a BLAS call.  A value
# the caller set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


def _keep_freed_memory() -> None:
    """Let glibc keep freed memory for reuse, unless the caller configured it."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
    except (AttributeError, ValueError, OSError):  # no confstr, or not glibc
        return
    if any(k.startswith("MALLOC_") for k in os.environ) or (
        "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", "")
    ):
        return
    import ctypes  # numpy imports it anyway

    # Every trajectory allocates and frees arrays of 256-800 KiB.  glibc
    # starts at a 128 KiB mmap threshold and a trim threshold twice that and
    # raises them only as it frees large blocks, so until then each such
    # array gets a fresh mmap or goes back to the kernel in a heap trim, and
    # its next use faults it in page by page.  Either threshold alone leaves
    # the other way open.  32 MiB is glibc's own ceiling for its dynamic mmap
    # threshold on 64-bit systems and 64 MiB keeps its 2x trim ratio: the
    # process starts where glibc would settle after freeing one 32 MiB block.
    #
    # One arena: with one per worker thread, the scratch each worker frees
    # stays in its own arena, where the other cannot reuse it, so the
    # process holds the peak of every worker's scratch at once.
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
    mallopt(-8, 1)  # M_ARENA_MAX


_keep_freed_memory()

from . import distributions as dist_mod
from . import simulate as sim
from .berry_esseen import BEParams, be_bound, bernoulli_moments, phi_of_k
from .errors import QuantileLimitsError, check_size

# The finalizer would otherwise collect and free the ~33,000 objects the
# collector tracks by now (numpy's and this package's modules, functions and
# classes) one by one; frozen, they are never traversed and are left to the
# OS.  Here and not in main(): a freeze per call would pin each call's garbage.
gc.freeze()
if _collecting:
    gc.enable()


def _add_dist_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--family",
        choices=tuple(dist_mod.FAMILIES),
        help="built-in distribution family",
    )
    p.add_argument("--q", type=float, help="success probability for --family bernoulli")
    p.add_argument("--dist-file", type=Path, help="JSON distribution spec file")


def _add_moment_flags(p: argparse.ArgumentParser) -> None:
    for flag in ("--q", "--mu", "--sigma", "--rho"):
        p.add_argument(flag, type=float, default=None)


def _resolve_distribution(args) -> dist_mod.DiscreteDistribution:
    if args.dist_file is not None and args.family is not None:
        raise QuantileLimitsError("pass either --family or --dist-file, not both", param="family")
    if args.dist_file is not None and args.q is not None:
        raise QuantileLimitsError("q goes in the --dist-file spec, not next to it", param="q")
    if args.dist_file is None:
        if args.family is None:
            raise QuantileLimitsError("one of --family or --dist-file is required", param="family")
        flags = {"family": args.family, "q": args.q}
        return dist_mod.from_spec({k: v for k, v in flags.items() if v is not None})
    try:
        spec = json.loads(args.dist_file.read_text())
    except OSError as exc:
        raise QuantileLimitsError(f"cannot read {args.dist_file}: {exc}", param="dist_file")
    except ValueError as exc:  # not UTF-8, not JSON, or an integer too long to parse
        raise QuantileLimitsError(f"invalid JSON: {exc}", param="dist_file")
    try:
        return dist_mod.from_spec(spec)
    except QuantileLimitsError as exc:
        exc.param = "dist_file"  # a bad field of the file, not a flag
        raise


def _fmt(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# Subcommand bodies (parsed args in, exit code out)


def _cmd_quantile(args) -> int:
    d = _resolve_distribution(args)
    pair = d.quantile_pair(args.p)
    print(f"p: {_fmt(args.p)}")
    print(f"left_quantile: {_fmt(pair.left)}")
    print(f"right_quantile: {_fmt(pair.right)}")
    print(f"coincide: {str(pair.coincide).lower()}")
    if 0.0 < args.p < 1.0:  # [left, right] solves F(x-) <= p <= F(x)
        print(
            f"solution_interval: [{_fmt(pair.left)}, {_fmt(pair.right)}] "
            f"unique={str(pair.coincide).lower()}"
        )
    return 0


def _cmd_simulate(args) -> int:
    d = _resolve_distribution(args)
    cfg = sim.SimConfig(
        distribution=d,
        p=args.p,
        n_max=args.n_max,
        master_seed=args.master_seed,
        record_stride=args.record_stride,
        replications=args.replications,
    )

    out_dir: Path = args.output_dir
    if out_dir.exists() and not out_dir.is_dir():
        raise QuantileLimitsError(f"{out_dir} is not a directory", param="output_dir")
    names = [f"traj_{rep}.csv" for rep in range(cfg.replications)] + ["report.json"]
    if not args.force:
        clashes = [name for name in names if (out_dir / name).exists()]
        if clashes:
            raise QuantileLimitsError(
                f"{', '.join(clashes)} already exist(s); use --force", param="output_dir"
            )

    stage = out_dir / ".qlim-partial"

    def csv_path(rep: int) -> Path:
        stage.mkdir(parents=True, exist_ok=True)
        return stage / f"traj_{rep}.csv"

    try:  # run_replicated validates first: a flag error creates no out_dir
        try:
            report = sim.run_replicated(
                cfg,
                args.analysis,
                burn_in=args.burn_in,
                epsilon=args.epsilon,
                min_switches=args.min_switches,
                csv_path=csv_path,
            )
            (stage / "report.json").write_bytes(sim.report_to_json_bytes(report))
        except OSError as exc:
            raise QuantileLimitsError(f"cannot write {stage}: {exc}", param="output_dir")
        # report.json marks a complete run: the old one goes before the first
        # move, the new one is moved into place last
        (out_dir / "report.json").unlink(missing_ok=True)
        if args.force:  # an earlier run's surplus files would look like part of this one
            ours = set(names)
            for path in out_dir.glob("traj_*.csv"):
                if path.name not in ours and re.fullmatch(r"traj_\d+\.csv", path.name):
                    path.unlink()
        for name in names:
            (stage / name).replace(out_dir / name)
    finally:  # also clears what a failed or killed earlier run left there
        shutil.rmtree(stage, ignore_errors=True)
    agg = report["aggregate"]
    print(
        f"wrote {cfg.replications} trajectory files and report.json to {out_dir} "
        f"({agg['pass_count']}/{agg['total']} replications pass)"
    )
    return 0


def _cmd_blocks(args) -> int:
    params = bernoulli_moments(args.q)
    info = phi_of_k(params, args.k, args.alpha)
    # first, as it refuses an unreachable second block before any draw
    block_freq = sim.block_event_experiment(
        args.q, args.alpha, args.reps, args.master_seed
    )
    freq_low, freq_high = sim.deviation_experiment(
        args.q, args.k, args.alpha, args.reps, args.master_seed
    )
    payload = {
        "config": {k: vars(args)[k] for k in ("q", "alpha", "k", "reps", "master_seed")},
        "n1": info.n1,
        "n2": info.n2,
        "phi": info.phi,
        "deviation": {
            "freq_low": freq_low,
            "freq_high": freq_high,
            "guaranteed_above": 0.5 - args.alpha,
        },
        "block_event": {
            "freq": block_freq,
            "guaranteed_above": (0.5 - args.alpha) ** 2,
        },
    }
    sys.stdout.write(sim.report_to_json_bytes(payload).decode())
    return 0


def _params_from_args(args) -> BEParams:
    by_q = args.q is not None
    by_moments = args.mu is not None or args.sigma is not None or args.rho is not None
    if by_q and by_moments:
        raise QuantileLimitsError("pass either --q or the --mu/--sigma/--rho triple", param="q")
    if by_q:
        return bernoulli_moments(args.q)
    if args.mu is None or args.sigma is None or args.rho is None:
        raise QuantileLimitsError("need --q, or all of --mu, --sigma and --rho", param="q")
    return BEParams(mu=args.mu, sigma=args.sigma, rho=args.rho)


def _cmd_be_bound(args) -> int:
    params = _params_from_args(args)
    payload = {**asdict(params), "n": args.n, "bound": be_bound(params, args.n)}
    sys.stdout.write(sim.report_to_json_bytes(payload).decode())
    return 0


def _cmd_phi_of_k(args) -> int:
    params = _params_from_args(args)
    payload = asdict(phi_of_k(params, args.k, args.alpha))
    sys.stdout.write(sim.report_to_json_bytes(payload).decode())
    return 0


def _cmd_transform(args) -> int:
    from .transforms import binarize, collapse_shift  # no other command uses it
    d = _resolve_distribution(args)
    out = (binarize if args.kind == "binarize" else collapse_shift)(d, args.p)
    pair_in = d.quantile_pair(args.p)
    pair_out = out.quantile_pair(args.p)
    if args.format == "csv":
        print("section,a,b")
        for v, q in d.as_pairs():
            print(f"atom_in,{_fmt(v)},{_fmt(q)}")
        for v, q in out.as_pairs():
            print(f"atom_out,{_fmt(v)},{_fmt(q)}")
        print(f"quantiles_in,{_fmt(pair_in.left)},{_fmt(pair_in.right)}")
        print(f"quantiles_out,{_fmt(pair_out.left)},{_fmt(pair_out.right)}")
    else:
        print(f"transform: {args.kind}  p: {_fmt(args.p)}")
        print("input atoms:")
        for v, q in d.as_pairs():
            print(f"  {_fmt(v)}  {_fmt(q)}")
        print(
            f"input quantiles: left={_fmt(pair_in.left)} right={_fmt(pair_in.right)}"
        )
        print("output atoms:")
        for v, q in out.as_pairs():
            print(f"  {_fmt(v)}  {_fmt(q)}")
        print(
            f"output quantiles: left={_fmt(pair_out.left)} right={_fmt(pair_out.right)}"
        )
    return 0


def _cmd_gc(args) -> int:
    d = _resolve_distribution(args)
    check_size("n", args.n)
    if args.checkpoints:
        try:
            checkpoints = sorted({int(tok) for tok in args.checkpoints.split(",")})
        except ValueError:
            raise QuantileLimitsError(
                f"must be comma-separated integers, got {args.checkpoints!r}", param="checkpoints"
            )
        if checkpoints[-1] > args.n:
            raise QuantileLimitsError("values must lie in [1, --n]", param="checkpoints")
    else:
        checkpoints = []
        decade = 10
        while decade < args.n:
            checkpoints.append(decade)
            decade *= 10
        checkpoints.append(args.n)
    if args.output is not None and not args.output.parent.is_dir():
        raise QuantileLimitsError(f"directory {args.output.parent} does not exist", param="output")

    dist, witness = sim.gc_path(d, args.seed, checkpoints)
    lines = ["n,gc_distance,witness"]
    lines.extend(
        f"{ck},{_fmt(g)},{_fmt(w)}" for ck, g, w in zip(checkpoints, dist, witness)
    )
    text = "\n".join(lines) + "\n"
    if args.output is not None:
        try:
            args.output.write_text(text)
        except OSError as exc:
            raise QuantileLimitsError(f"cannot write {args.output}: {exc}", param="output")
        print(f"wrote {len(checkpoints)} checkpoints to {args.output}")
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="qlim",
        description=(
            "Exact left/right quantiles of finite discrete distributions and "
            "seeded Monte Carlo experiments on their sample versions."
        ),
    )
    subs = top.add_subparsers(dest="command", required=True)

    p = subs.add_parser("quantile", help="left/right quantiles and solution interval")
    _add_dist_flags(p)
    p.add_argument("--p", type=float, required=True, help="probability level in [0, 1]")
    p.set_defaults(func=_cmd_quantile)

    p = subs.add_parser("simulate", help="replicated quantile trajectories")
    _add_dist_flags(p)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--replications", type=int, default=1)
    p.add_argument("--master-seed", type=int, default=0)
    p.add_argument("--record-stride", type=int, default=None)
    p.add_argument(
        "--analysis",
        choices=sim.ANALYSES,
        default="convergence",
    )
    p.add_argument("--burn-in", type=int, default=0)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--min-switches", type=int, default=10)
    p.add_argument("--output-dir", type=Path, required=True)
    p.add_argument("--force", action="store_true", help="overwrite existing outputs")
    p.set_defaults(func=_cmd_simulate)

    p = subs.add_parser("blocks", help="deviation and paired block-event experiment")
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--alpha", type=float, default=0.25)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--reps", type=int, default=10_000)
    p.add_argument("--master-seed", type=int, default=0)
    p.set_defaults(func=_cmd_blocks)

    p = subs.add_parser("be-bound", help="normal-approximation error bound")
    _add_moment_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_be_bound)

    p = subs.add_parser("phi-of-k", help="deviation block-length construction")
    _add_moment_flags(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--alpha", type=float, default=0.25)
    p.set_defaults(func=_cmd_phi_of_k)

    p = subs.add_parser("transform", help="binarize or collapse-shift a distribution")
    _add_dist_flags(p)
    p.add_argument("--p", type=float, required=True)
    p.add_argument(
        "--kind", choices=("binarize", "collapse_shift"), required=True
    )
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.set_defaults(func=_cmd_transform)

    p = subs.add_parser("gc", help="empirical-vs-true CDF sup distance table")
    _add_dist_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--checkpoints", type=str, default="")
    p.add_argument("--output", type=Path, default=None)
    p.set_defaults(func=_cmd_gc)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return int(exc.code or 0)
    try:
        return args.func(args)
    except QuantileLimitsError as exc:
        if exc.param in ("mu", "sigma", "rho") and args.q is not None:
            exc.param = "q"  # moments derived from --q are no flags
        flag = f"--{exc.param.replace('_', '-')}: " if exc.param else ""
        print(f"error: {flag}{exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        notes = getattr(exc, "__notes__", [])  # e.g. the failed replication
        print(f"internal error: {type(exc).__name__}: {exc}", *notes, sep="\n", file=sys.stderr)
        return 1


def console_entry() -> None:
    raise SystemExit(main())
