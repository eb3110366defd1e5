"""Command-line front end.

Subcommands: quantile, simulate, blocks, be-bound, phi-of-k, transform, gc.
Outputs are CSV and JSON only; plotting belongs to downstream tools.  Exit
codes: 0 success, 2 validation error (message names the offending flag),
1 internal error.  Identical flags and seeds produce byte-identical output.
Every flag error is a ``QuantileLimitsError`` whose ``param`` names the flag
(``n_max`` is reported as ``--n-max``).  Value ranges are checked by the
library's ``errors.check_*`` rules only (``qlim gc --n``, which no library
call takes, is checked with them here), whose argument names match the flags.
"""

import argparse
import json
import re
import sys
from pathlib import Path

from . import distributions as dist_mod
from . import simulate as sim
from .berry_esseen import BEParams, be_bound, bernoulli_moments, phi_of_k
from .errors import QuantileLimitsError, check_at_least, check_at_most
from .transforms import BINARIZE, COLLAPSE_SHIFT, binarize, collapse_shift


def _add_dist_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--family",
        choices=("coin", "bernoulli", "figure"),
        help="built-in distribution family",
    )
    p.add_argument("--q", type=float, help="success probability for --family bernoulli")
    p.add_argument("--dist-file", type=Path, help="JSON distribution spec file")


def _resolve_distribution(args) -> dist_mod.DiscreteDistribution:
    if args.dist_file is not None and args.family is not None:
        raise QuantileLimitsError("pass either --family or --dist-file, not both", param="family")
    if args.dist_file is not None:
        try:
            spec = json.loads(args.dist_file.read_text())
        except OSError as exc:
            raise QuantileLimitsError(f"cannot read {args.dist_file}: {exc}", param="dist_file")
        except json.JSONDecodeError as exc:
            raise QuantileLimitsError(f"invalid JSON: {exc}", param="dist_file")
        try:
            return dist_mod.from_spec(spec)
        except QuantileLimitsError as exc:
            exc.param = "dist_file"  # a bad field of the file, not a flag
            raise
    if args.family is None:
        raise QuantileLimitsError("one of --family or --dist-file is required", param="family")
    if args.family == "bernoulli":
        if args.q is None:
            raise QuantileLimitsError("required with --family bernoulli", param="q")
        return dist_mod.bernoulli(args.q)
    if args.q is not None:
        raise QuantileLimitsError("only valid with --family bernoulli", param="q")
    return dist_mod.fair_coin() if args.family == "coin" else dist_mod.gapped_example()


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
    if 0.0 < args.p < 1.0:
        si = d.solution_interval(args.p)
        print(
            f"solution_interval: [{_fmt(si.lo)}, {_fmt(si.hi)}] "
            f"unique={str(si.unique).lower()}"
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
    targets = [out_dir / f"traj_{rep}.csv" for rep in range(cfg.replications)]
    targets.append(out_dir / "report.json")
    if not args.force:
        clashes = [t.name for t in targets if t.exists()]
        if clashes:
            raise QuantileLimitsError(
                f"{', '.join(clashes)} already exist(s); use --force", param="output_dir"
            )

    tmp_paths: list[tuple[Path, Path]] = []

    def writer(rep: int, traj: sim.Trajectory) -> None:
        out_dir.mkdir(parents=True, exist_ok=True)
        final = out_dir / f"traj_{rep}.csv"
        tmp = out_dir / f"traj_{rep}.csv.tmp"
        tmp_paths.append((tmp, final))  # before the write: a failed one is cleaned up
        sim.write_trajectory_csv(traj, tmp)

    try:  # run_replicated validates first: a flag error creates no out_dir
        report = sim.run_replicated(
            cfg,
            args.analysis,
            burn_in=args.burn_in,
            epsilon=args.epsilon,
            min_switches=args.min_switches,
            on_trajectory=writer,
        )
        # report.json marks a complete run: the old one goes before the first
        # rename, the new one is renamed into place last
        report_tmp, report_path = out_dir / "report.json.tmp", out_dir / "report.json"
        tmp_paths.append((report_tmp, report_path))
        report_tmp.write_bytes(sim.report_to_json_bytes(report))
        report_path.unlink(missing_ok=True)
        if args.force:  # an earlier run's surplus files would look like part of this one
            ours = {path.name for pair in tmp_paths for path in pair}
            for path in out_dir.glob("traj_*.csv*"):
                if path.name not in ours and re.fullmatch(
                    r"traj_\d+\.csv|traj_.*\.csv\.tmp", path.name
                ):
                    path.unlink()
        for tmp, final in tmp_paths:
            tmp.replace(final)
    except BaseException:
        for tmp, _ in tmp_paths:
            tmp.unlink(missing_ok=True)
        raise
    agg = report["aggregate"]
    print(
        f"wrote {cfg.replications} trajectory files and report.json to {out_dir} "
        f"({agg['pass_count']}/{agg['total']} replications pass)"
    )
    return 0


def _cmd_blocks(args) -> int:
    params = bernoulli_moments(args.q)
    info = phi_of_k(params, args.k, args.alpha)
    freq_low, freq_high = sim.deviation_experiment(
        args.q, args.k, args.alpha, args.reps, args.master_seed
    )
    block_freq = sim.block_event_experiment(
        args.q, args.alpha, args.reps, args.master_seed
    )
    payload = {
        "config": {
            "q": args.q,
            "alpha": args.alpha,
            "k": args.k,
            "reps": args.reps,
            "master_seed": args.master_seed,
        },
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
    payload = {
        "mu": params.mu,
        "sigma": params.sigma,
        "rho": params.rho,
        "n": args.n,
        "bound": be_bound(params, args.n),
    }
    sys.stdout.write(sim.report_to_json_bytes(payload).decode())
    return 0


def _cmd_phi_of_k(args) -> int:
    params = _params_from_args(args)
    info = phi_of_k(params, args.k, args.alpha)
    payload = {
        "k": info.k,
        "alpha": info.alpha,
        "n1": info.n1,
        "n2": info.n2,
        "phi": info.phi,
    }
    sys.stdout.write(sim.report_to_json_bytes(payload).decode())
    return 0


def _cmd_transform(args) -> int:
    d = _resolve_distribution(args)
    kind = BINARIZE if args.kind == "binarize" else COLLAPSE_SHIFT
    out = binarize(d, args.p) if kind == BINARIZE else collapse_shift(d, args.p)
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
        print(f"transform: {kind}  p: {_fmt(args.p)}")
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
    check_at_least("n", args.n, 1)
    check_at_most("n", args.n, 2**63 - 1)  # a sample size is an int64
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
    p.add_argument("--q", type=float, default=None)
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_be_bound)

    p = subs.add_parser("phi-of-k", help="deviation block-length construction")
    p.add_argument("--q", type=float, default=None)
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--rho", type=float, default=None)
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
        flag = f"--{exc.param.replace('_', '-')}: " if exc.param else ""
        print(f"error: {flag}{exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def console_entry() -> None:
    raise SystemExit(main())
