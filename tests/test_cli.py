import ast
import importlib
import itertools
import json
import math
import os
import pkgutil
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import quantile_limits
from conftest import gc_table_materialised
from quantile_limits import simulate as sim
from quantile_limits.cli import build_parser, main
from quantile_limits.distributions import fair_coin, from_spec, gapped_example
from quantile_limits.errors import QuantileLimitsError, _brief, check_size


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fresh(*args: str, **env_vars: str) -> subprocess.CompletedProcess:
    """Run a new interpreter with ``args`` on this checkout's sources, with
    OPENBLAS_NUM_THREADS, GLIBC_TUNABLES and every MALLOC_* variable unset
    unless passed in ``env_vars``; stdout and stderr are piped, as bytes."""
    env = {
        k: v for k, v in os.environ.items()
        if k not in ("OPENBLAS_NUM_THREADS", "GLIBC_TUNABLES") and not k.startswith("MALLOC_")
    }
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.update(env_vars)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, timeout=120)


def run_fresh(code: str, **env_vars: str) -> str:
    """Run ``code`` with ``fresh``, check that it exits 0; return its stdout."""
    proc = fresh("-c", code, **env_vars)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout.decode()


class TestQuantileCommand:
    def test_coin_half(self, capsys):
        code, out, _ = run_cli(capsys, "quantile", "--family", "coin", "--p", "0.5")
        assert code == 0
        assert "left_quantile: -1.0" in out
        assert "right_quantile: 1.0" in out
        assert "coincide: false" in out
        assert "unique=false" in out

    def test_three_atom_instance(self, capsys):
        code, out, _ = run_cli(capsys, "quantile", "--family", "figure", "--p", "0.5")
        assert code == 0
        assert "left_quantile: 0.0" in out
        assert "right_quantile: 3.0" in out

    def test_bad_level_names_flag(self, capsys):
        code, _, err = run_cli(capsys, "quantile", "--family", "coin", "--p", "1.5")
        assert code == 2
        assert "--p" in err

    def test_endpoint_levels_print_infinities(self, capsys):
        code, out, _ = run_cli(capsys, "quantile", "--family", "coin", "--p", "0")
        assert code == 0
        assert "left_quantile: -inf" in out

    def test_dist_file(self, capsys, tmp_path):
        f = tmp_path / "d.json"
        f.write_text(json.dumps({"atoms": [{"x": 2, "p": 0.25}, {"x": 4, "p": 0.75}]}))
        code, out, _ = run_cli(capsys, "quantile", "--dist-file", str(f), "--p", "0.5")
        assert code == 0
        assert "left_quantile: 4.0" in out

    def test_bernoulli_family_requires_q(self, capsys):
        code, _, err = run_cli(capsys, "quantile", "--family", "bernoulli", "--p", "0.5")
        assert code == 2
        assert "--q" in err

    @pytest.mark.parametrize(
        "content",
        [
            b"{not json",
            b'{"family": "bernoulli", "q": 0.5}\xff',
            b'{"family": "bernoulli", "q": 1' + b"0" * 4300 + b"}",
            b'{"family": "bernoulli", "q": 1' + b"0" * 400 + b"}",
        ],
        ids=["not-json", "not-utf8", "over-4300-digits", "over-double-range"],
    )
    def test_bad_dist_file(self, capsys, tmp_path, content):
        f = tmp_path / "bad.json"
        f.write_bytes(content)
        code, _, err = run_cli(capsys, "quantile", "--dist-file", str(f), "--p", "0.5")
        assert code == 2
        assert "--dist-file" in err


    def test_unreadable_dist_file(self, capsys, tmp_path):
        f = tmp_path / "missing.json"
        code, _, err = run_cli(capsys, "quantile", "--dist-file", str(f), "--p", "0.5")
        assert code == 2
        assert err.startswith(f"error: --dist-file: cannot read {f}: ")
        assert "No such file or directory" in err


class TestSimulateCommand:
    def test_writes_trajectories_and_report(self, capsys, tmp_path):
        out_dir = tmp_path / "runs"
        code, _, _ = run_cli(
            capsys,
            "simulate", "--family", "coin", "--p", "0.5", "--n-max", "100",
            "--replications", "3", "--master-seed", "7",
            "--output-dir", str(out_dir),
        )
        assert code == 0
        csvs = sorted(out_dir.glob("traj_*.csv"))
        assert [c.name for c in csvs] == ["traj_0.csv", "traj_1.csv", "traj_2.csv"]
        for c in csvs:
            lines = c.read_text().splitlines()
            assert lines[0] == "n,lq,rq"
            assert len(lines) == 101  # header + one row per step
        report = json.loads((out_dir / "report.json").read_text())
        assert report["config"]["n_max"] == 100
        assert report["aggregate"]["total"] == 3

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_failed_replication_names_itself(self, capsys, monkeypatch, tmp_path, threads):
        # replication 3 of 5 fails: the error carries a note with its index
        # and derived seed, and qlim's internal error line prints it
        monkeypatch.setenv("QL_THREADS", threads)
        seed = sim.derive_seed(7, 3)
        blocks = sim._trajectory_blocks

        def failing(plan, rep_seed, *args):
            if rep_seed == seed:
                raise RuntimeError("draw failed")
            return blocks(plan, rep_seed, *args)

        monkeypatch.setattr(sim, "_trajectory_blocks", failing)
        cfg = sim.SimConfig(fair_coin(), 0.5, 100, 7, replications=5)
        with pytest.raises(RuntimeError, match="draw failed") as info:
            sim.run_replicated(cfg, "convergence")
        assert info.value.__notes__ == [f"replication 3, seed {seed}"]
        code, _, err = run_cli(
            capsys,
            "simulate", "--family", "coin", "--p", "0.5", "--n-max", "100",
            "--replications", "5", "--master-seed", "7", "--output-dir", str(tmp_path),
        )
        assert code == 1
        assert err == f"internal error: RuntimeError: draw failed\nreplication 3, seed {seed}\n"

    def test_refuses_overwrite_without_force(self, capsys, tmp_path):
        out_dir = tmp_path / "runs"
        args = (
            "simulate", "--family", "coin", "--p", "0.5", "--n-max", "50",
            "--replications", "1", "--output-dir", str(out_dir),
        )
        assert run_cli(capsys, *args)[0] == 0
        code, _, err = run_cli(capsys, *args)
        assert code == 2
        assert "--force" in err or "force" in err
        # and nothing extra was created
        assert sorted(p.name for p in out_dir.iterdir()) == ["report.json", "traj_0.csv"]

    def test_force_rerun_is_byte_identical(self, capsys, tmp_path):
        out_dir = tmp_path / "runs"
        args = (
            "simulate", "--family", "figure", "--p", "0.5", "--n-max", "200",
            "--replications", "2", "--master-seed", "11",
            "--analysis", "sandwich_check", "--epsilon", "0.1", "--burn-in", "20",
            "--output-dir", str(out_dir),
        )
        assert run_cli(capsys, *args)[0] == 0
        first = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        assert run_cli(capsys, *args, "--force")[0] == 0
        second = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        assert first == second

    def test_force_rerun_removes_surplus_files(self, capsys, tmp_path):
        out_dir = tmp_path / "runs"
        args = (
            "simulate", "--family", "coin", "--p", "0.5", "--n-max", "50",
            "--master-seed", "3", "--output-dir", str(out_dir),
        )
        assert run_cli(capsys, *args, "--replications", "5")[0] == 0
        (out_dir / ".qlim-partial").mkdir()
        (out_dir / ".qlim-partial" / "traj_9.csv").write_bytes(b"left by a killed run")
        assert run_cli(capsys, *args, "--replications", "2", "--force")[0] == 0
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == ["report.json", "traj_0.csv", "traj_1.csv"]
        assert json.loads((out_dir / "report.json").read_text())["aggregate"]["total"] == 2

    def test_rerun_clears_a_killed_runs_stage(self, capsys, tmp_path):
        out_dir = tmp_path / "runs"
        (out_dir / ".qlim-partial").mkdir(parents=True)
        (out_dir / ".qlim-partial" / "traj_7.csv").write_bytes(b"left by a killed run")
        code, _, err = run_cli(
            capsys,
            "simulate", "--family", "coin", "--p", "0.5", "--n-max", "50",
            "--output-dir", str(out_dir),
        )
        assert code == 0, err
        assert sorted(p.name for p in out_dir.iterdir()) == ["report.json", "traj_0.csv"]

    def test_failed_force_rerun_keeps_earlier_files(self, capsys, tmp_path, monkeypatch):
        out_dir = tmp_path / "runs"
        args = (
            "simulate", "--family", "coin", "--p", "0.5", "--n-max", "50",
            "--master-seed", "3", "--output-dir", str(out_dir),
        )
        assert run_cli(capsys, *args, "--replications", "5")[0] == 0
        first = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        encode, calls = sim._csv_pieces, itertools.count()

        def failing(*args):  # the second replication to start writing fails
            if next(calls) == 1:
                raise RuntimeError("encoder failed")
            yield from encode(*args)

        monkeypatch.setattr(sim, "_csv_pieces", failing)
        assert run_cli(capsys, *args, "--replications", "2", "--force")[0] == 1
        assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == first

    def test_failed_rename_leaves_no_report(self, capsys, tmp_path, monkeypatch):
        # report.json marks a complete run; a rerun that fails mid-rename
        # must not leave the old one beside a mix of new and old files
        out_dir = tmp_path / "runs"
        args = (
            "simulate", "--family", "coin", "--p", "0.5", "--n-max", "50",
            "--replications", "3", "--master-seed", "3", "--output-dir", str(out_dir),
        )
        assert run_cli(capsys, *args)[0] == 0
        replace, calls = Path.replace, []

        def failing(self, target):
            calls.append(self)
            if len(calls) == 2:
                raise OSError("rename failed")
            return replace(self, target)

        monkeypatch.setattr(Path, "replace", failing)
        code, _, err = run_cli(capsys, *args, "--force")
        assert code == 1, err
        assert len(calls) == 2
        assert not (out_dir / "report.json").exists()
        assert not list(out_dir.glob("*.tmp"))
        assert not (out_dir / ".qlim-partial").exists()

    def test_sandwich_report_schema(self, capsys, tmp_path):
        out_dir = tmp_path / "runs"
        code, _, _ = run_cli(
            capsys,
            "simulate", "--family", "figure", "--p", "0.5", "--n-max", "300",
            "--replications", "4", "--analysis", "sandwich_check",
            "--epsilon", "0.1", "--burn-in", "50",
            "--output-dir", str(out_dir),
        )
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["analysis"]["name"] == "sandwich_check"
        assert len(report["replications"]) == 4
        for row in report["replications"]:
            assert isinstance(row["pass"], bool)
        agg = report["aggregate"]
        assert agg["pass_count"] + agg["fail_count"] == agg["total"] == 4

    def test_sandwich_requires_epsilon(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "simulate", "--family", "figure", "--p", "0.5", "--n-max", "100",
            "--analysis", "sandwich_check", "--output-dir", str(tmp_path / "x"),
        )
        assert code == 2
        assert "--epsilon" in err

    def test_validation_happens_before_any_output(self, capsys, tmp_path):
        out_dir = tmp_path / "runs"
        code, _, err = run_cli(
            capsys,
            "simulate", "--family", "coin", "--p", "1.2", "--n-max", "100",
            "--output-dir", str(out_dir),
        )
        assert code == 2
        assert "--p" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("where", ["runs", "runs/sub"])
    def test_output_dir_under_a_regular_file(self, capsys, tmp_path, monkeypatch, where):
        # a regular file is refused before any draw; a directory below one
        # fails when the first trajectory is staged.  Both are flag errors
        # and leave the file as it was
        (tmp_path / "runs").write_text("keep")
        if where == "runs":
            monkeypatch.setattr(sim, "run_replicated", None)  # calling it fails with exit 1
        code, _, err = run_cli(
            capsys,
            "simulate", "--family", "coin", "--p", "0.5", "--n-max", "100",
            "--replications", "2", "--output-dir", str(tmp_path / where),
        )
        assert code == 2, err
        assert err.startswith("error: --output-dir: ")
        assert (tmp_path / "runs").read_text() == "keep"

    @pytest.mark.parametrize("n_max", [10**4, 10**6])
    def test_memory_does_not_grow_with_n_max(self, capsys, tmp_path, monkeypatch, n_max):
        # the coin at stride 1, a record at every draw, on two worker
        # threads.  Each worker holds one chunk's workspace, counts, ranks
        # and block of records, and one piece of CSV being encoded: under
        # 18 chunk-length int64 rows (4.5 MiB) a worker at both lengths,
        # where the records of one replication of 10**6 take 92 rows
        monkeypatch.setattr(sim.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setenv("QL_THREADS", "2")
        args = (
            "simulate", "--family", "coin", "--p", "0.5", "--n-max", str(n_max),
            "--record-stride", "1", "--replications", "3", "--master-seed", "7",
            "--analysis", "switch_stats", "--min-switches", "0",
            "--output-dir", str(tmp_path / "runs"),
        )
        tracemalloc.start()
        try:
            code, _, err = run_cli(capsys, *args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0, err
        assert (tmp_path / "runs" / "traj_2.csv").stat().st_size > 10 * n_max
        assert peak < 2 * 18 * sim._CHUNK * 8

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("fault", ["encode", "write"])
    def test_failed_write_leaves_no_tmp_file(self, capsys, tmp_path, monkeypatch, threads, fault):
        # the second replication to write its records fails while its CSV
        # is encoded, or while its file is written, after the header
        encode, calls = sim._csv_pieces, itertools.count()

        def failing(*args):
            if next(calls) != 1:
                yield from encode(*args)
                return
            if fault == "encode":
                raise RuntimeError("encoder failed")
            yield "not bytes"  # fh.write raises TypeError

        monkeypatch.setattr(sim, "_csv_pieces", failing)
        monkeypatch.setenv("QL_THREADS", threads)
        out_dir = tmp_path / "runs"
        code, _, err = run_cli(
            capsys,
            "simulate", "--family", "coin", "--p", "0.5", "--n-max", "100",
            "--replications", "4", "--master-seed", "7",
            "--output-dir", str(out_dir),
        )
        assert code == 1, err
        assert sorted(p.name for p in out_dir.iterdir()) == []


class TestBlocksCommand:
    def test_schema_and_sizes(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "blocks", "--q", "0.5", "--alpha", "0.25", "--k", "1",
            "--reps", "300", "--master-seed", "9",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["n1"] == 576
        assert payload["n2"] == 40
        assert payload["phi"] == 576
        assert 0.0 <= payload["deviation"]["freq_low"] <= 1.0
        assert 0.0 <= payload["deviation"]["freq_high"] <= 1.0
        assert 0.0 <= payload["block_event"]["freq"] <= 1.0

    def test_stdout_same_at_one_and_two_threads(self, capsys, monkeypatch):
        # 4000 reps of phi(1) = 923 words are four jobs; the cache is
        # cleared so that each run counts its own blocks
        monkeypatch.setattr(sim.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        out = {}
        for threads in ("1", "2"):
            monkeypatch.setenv("QL_THREADS", threads)
            sim._bernoulli_block_sums.cache_clear()
            code, out[threads], _ = run_cli(
                capsys,
                "blocks", "--q", "0.3", "--alpha", "0.25", "--k", "1",
                "--reps", "4000", "--master-seed", "41",
            )
            assert code == 0
        sim._bernoulli_block_sums.cache_clear()
        assert out["1"] == out["2"]

    def test_rejects_degenerate_q(self, capsys):
        code, _, err = run_cli(capsys, "blocks", "--q", "0", "--reps", "10")
        assert code == 2
        assert "--q" in err

    def test_runs_without_scipy(self):
        # scipy is a test-only dependency: the package never imports it
        code = (
            "import sys, quantile_limits\n"
            "from quantile_limits import cli\n"
            "rc = cli.main(['blocks', '--q', '0.5', '--reps', '20'])\n"
            "assert rc == 0, rc\n"
            "assert 'scipy' not in sys.modules, 'scipy was imported'\n"
        )
        assert json.loads(run_fresh(code))["config"]["reps"] == 20


class TestBeBoundCommand:
    def test_fair_coin_hundred(self, capsys):
        code, out, _ = run_cli(capsys, "be-bound", "--q", "0.5", "--n", "100")
        assert code == 0
        assert json.loads(out)["bound"] == pytest.approx(0.3, abs=1e-15)

    def test_moment_triple(self, capsys):
        code, out, _ = run_cli(
            capsys, "be-bound", "--mu", "0", "--sigma", "1", "--rho", "1", "--n", "4"
        )
        assert code == 0
        assert json.loads(out)["bound"] == 1.5

    def test_incomplete_triple(self, capsys):
        code, _, err = run_cli(capsys, "be-bound", "--mu", "0", "--n", "4")
        assert code == 2
        assert "--sigma" in err or "--q" in err


class TestPhiOfKCommand:
    def test_fair_coin(self, capsys):
        code, out, _ = run_cli(capsys, "phi-of-k", "--q", "0.5", "--k", "1", "--alpha", "0.25")
        assert code == 0
        payload = json.loads(out)
        assert (payload["n1"], payload["n2"], payload["phi"]) == (576, 40, 576)

    def test_alpha_validated(self, capsys):
        code, _, err = run_cli(capsys, "phi-of-k", "--q", "0.5", "--k", "1", "--alpha", "0.8")
        assert code == 2
        assert "--alpha" in err


class TestTransformCommand:
    def test_collapse_shift_text(self, capsys):
        code, out, _ = run_cli(
            capsys, "transform", "--family", "figure", "--p", "0.5",
            "--kind", "collapse_shift",
        )
        assert code == 0
        assert "0.0  0.8" in out
        assert "2.0  0.2" in out
        assert "output quantiles: left=0.0 right=0.0" in out

    def test_binarize_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "transform", "--family", "coin", "--p", "0.5",
            "--kind", "binarize", "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "section,a,b"
        assert "atom_out,0.0,0.5" in lines
        assert "atom_out,1.0,0.5" in lines

    def test_output_bytes_are_pinned(self):
        # a fresh process, so transforms is loaded by the command itself
        proc = fresh("-m", "quantile_limits", "transform", "--family", "figure", "--p", "0.5",
                     "--kind", "collapse_shift")
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stdout == (
            b"transform: collapse_shift  p: 0.5\ninput atoms:\n  0.0  0.5\n  3.0  0.3\n"
            b"  5.0  0.2\ninput quantiles: left=0.0 right=3.0\noutput atoms:\n  0.0  0.8\n"
            b"  2.0  0.2\noutput quantiles: left=0.0 right=0.0\n"
        )
        proc = fresh("-m", "quantile_limits", "transform", "--family", "coin", "--p", "0.5",
                     "--kind", "binarize", "--format", "csv")
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stdout == (
            b"section,a,b\natom_in,-1.0,0.5\natom_in,1.0,0.5\natom_out,0.0,0.5\n"
            b"atom_out,1.0,0.5\nquantiles_in,-1.0,1.0\nquantiles_out,0.0,1.0\n"
        )

    def test_no_gap_is_validation_error(self, capsys):
        code, _, err = run_cli(
            capsys, "transform", "--family", "figure", "--p", "0.3",
            "--kind", "binarize",
        )
        assert code == 2
        assert "coincide" in err


class TestGcCommand:
    def test_point_mass_zero_distance(self, capsys, tmp_path):
        f = tmp_path / "pm.json"
        f.write_text(json.dumps({"atoms": [{"x": 7, "p": 1.0}]}))
        code, out, _ = run_cli(
            capsys, "gc", "--dist-file", str(f), "--n", "1000", "--seed", "4"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,gc_distance,witness"
        for line in lines[1:]:
            assert line.split(",")[1] == "0.0"

    def test_seed_with_level_one_first_draw(self, capsys):
        # this seed's first word is 2**64 - 1, whose uniform is exactly 1.0
        code, out, err = run_cli(
            capsys, "gc", "--family", "coin", "--n", "5", "--seed", "3558559446808474027"
        )
        assert (code, err) == (0, "")
        assert out.splitlines()[-1].startswith("5,")

    def test_checkpoints_and_output_file(self, capsys, tmp_path):
        out_file = tmp_path / "gc.csv"
        code, _, _ = run_cli(
            capsys, "gc", "--family", "coin", "--n", "1000", "--seed", "4",
            "--checkpoints", "10,100,1000", "--output", str(out_file),
        )
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0] == "n,gc_distance,witness"
        assert [int(l.split(",")[0]) for l in lines[1:]] == [10, 100, 1000]

    def test_median_distance_shrinks_over_seeds(self, capsys):
        smalls, larges = [], []
        for seed in range(20):
            code, out, _ = run_cli(
                capsys, "gc", "--family", "coin", "--n", "100000",
                "--seed", str(seed), "--checkpoints", "100,100000",
            )
            assert code == 0
            rows = [line.split(",") for line in out.splitlines()[1:]]
            smalls.append(float(rows[0][1]))
            larges.append(float(rows[1][1]))
        assert np.median(larges) < np.median(smalls)

    @pytest.mark.parametrize("support", ["figure", "coin", "dyadic128", "uniform4096"])
    @pytest.mark.parametrize(
        "n, checkpoints",
        [
            (70_001, None),  # every decade, then n
            (1, None),
            (sim._CHUNK + 1, [sim._CHUNK - 1, sim._CHUNK, sim._CHUNK + 1]),
            (300, list(range(1, 301))),
            (100_000, [7, 5000, 77_777]),  # drawing stops below --n
        ],
        ids=["decades", "one", "chunk-edges", "every-n", "below-n"],
    )
    def test_table_matches_materialised_path(self, capsys, tmp_path, support, n, checkpoints):
        if support in ("figure", "coin"):
            d = gapped_example() if support == "figure" else fair_coin()
            dist_flags = ("--family", support)
        else:
            atoms = 128 if support == "dyadic128" else 4096
            # mass 1/atoms each, with a wide gap after the middle atom
            xs = np.cumsum(1 + np.arange(atoms) % 9 + 1000 * (np.arange(atoms) == atoms // 2))
            spec = {"atoms": [{"x": float(x), "p": 1.0 / atoms} for x in xs]}
            f = tmp_path / "d.json"
            f.write_text(json.dumps(spec))
            d = from_spec(spec)
            dist_flags = ("--dist-file", str(f))
        flags = ("--checkpoints", ",".join(map(str, checkpoints))) if checkpoints else ()
        if checkpoints is None:
            checkpoints = [10**k for k in range(1, len(str(n - 1)))] + [n]
        for seed in [*range(1, 11), 2**64 - 1]:
            code, out, err = run_cli(
                capsys, "gc", *dist_flags, "--n", str(n), "--seed", str(seed), *flags
            )
            assert code == 0, err
            assert out == gc_table_materialised(d, seed, n, checkpoints)

    @pytest.mark.parametrize("family", ["figure", "coin"])
    def test_matches_bincount_recount(self, capsys, family):
        # the gc-long benchmark's check, at a smaller n: at the default
        # decade checkpoints, every line equals a bincount recount of the
        # searchsorted draws
        d = gapped_example() if family == "figure" else fair_coin()
        n = 300_000
        checkpoints = [10, 100, 1000, 10_000, 100_000, n]
        for seed in (5, 2**62 + 11, 3558559446808474027):
            code, out, err = run_cli(
                capsys, "gc", "--family", family, "--n", str(n), "--seed", str(seed)
            )
            assert code == 0, err
            idx = np.searchsorted(d.values_array, sim.sample_stream(d, seed, n))
            counts = np.zeros(len(d), dtype=np.int64)
            want = ["n,gc_distance,witness"]
            done = 0
            for ck in checkpoints:
                counts += np.bincount(idx[done:ck], minlength=len(d))
                done = ck
                diffs = np.abs(np.cumsum(counts) / ck - d.cum_array)
                j = int(np.argmax(diffs))
                want.append(f"{ck},{float(diffs[j])!r},{d.values[j]!r}")
            assert out.splitlines() == want

    @pytest.mark.parametrize("n", [10**4, 10**6])
    def test_memory_does_not_grow_with_n(self, capsys, tmp_path, n):
        out_file = tmp_path / "gc.csv"
        tracemalloc.start()
        try:
            code, _, err = run_cli(
                capsys, "gc", "--family", "figure", "--n", str(n), "--seed", "1",
                "--output", str(out_file),
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0, err
        assert peak < 8 * 2**20

    def test_bad_checkpoints(self, capsys):
        code, _, err = run_cli(
            capsys, "gc", "--family", "coin", "--n", "100", "--checkpoints", "5,x"
        )
        assert code == 2
        assert "--checkpoints" in err


class TestParserBehavior:
    def test_unknown_command_exits_two(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2

    def test_no_command_exits_two(self, capsys):
        assert run_cli(capsys)[0] == 2

    def test_both_dist_sources_rejected(self, capsys, tmp_path):
        f = tmp_path / "d.json"
        f.write_text(json.dumps({"family": "coin"}))
        code, _, err = run_cli(
            capsys, "quantile", "--family", "coin", "--dist-file", str(f), "--p", "0.5"
        )
        assert code == 2

    def test_readme_commands_parse(self):
        # every qlim line of the README's CLI block, continuations joined
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"## CLI\n.*?```sh\n(.*?)```", readme, re.S).group(1)
        lines = [ln for ln in block.replace("\\\n", " ").splitlines() if ln.startswith("qlim ")]
        assert lines
        for line in lines:
            argv = shlex.split(line, comments=True)[1:]
            assert build_parser().parse_args(argv).command == argv[0], line


needs_proc_tasks = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="threads are counted in /proc/self/task"
)
THREADS = "len(os.listdir('/proc/self/task'))"

# the public names of the package, by the submodule that defines each
PUBLIC_NAMES = {
    "berry_esseen": "BEParams PhiOfK be_bound bernoulli_moments interval_prob_bounds "
    "phi_of_k std_normal_cdf",
    "distributions": "DiscreteDistribution QuantilePair bernoulli fair_coin "
    "from_spec gapped_example make_discrete point_mass",
    "empirical": "EmpiricalSample gc_distance",
    "errors": "QuantileLimitsError",
    "simulate": "SimConfig SwitchStats Trajectory block_event_experiment "
    "block_schedule derive_seed deviation_experiment gap_interior_hits gc_path "
    "report_to_json_bytes run_replicated run_trajectory sample_stream sandwich_check "
    "switch_stats write_trajectory_csv",
    "transforms": "TransformSpec binarize binarize_value collapse_shift collapse_shift_value "
    "gap_spec",
}


class TestStartup:
    """What a process pays before any work: qlim starts no BLAS thread, and
    the package namespace loads its submodules on first use."""

    @needs_proc_tasks
    def test_cli_import_starts_no_thread(self):
        out = run_fresh(
            f"import os\nimport quantile_limits.cli\n"
            f"print({THREADS}, os.environ['OPENBLAS_NUM_THREADS'])"
        )
        assert out.split() == ["1", "1"]

    def test_caller_blas_threads_are_kept(self):
        out = run_fresh(
            "import os\nimport quantile_limits.cli\nprint(os.environ['OPENBLAS_NUM_THREADS'])",
            OPENBLAS_NUM_THREADS="3",
        )
        assert out.split() == ["3"]

    def test_package_import_loads_nothing(self):
        run_fresh(
            "import os, sys\n"
            "before = dict(os.environ)\n"
            "import quantile_limits\n"
            "assert 'numpy' not in sys.modules\n"
            "assert not [m for m in sys.modules if m.startswith('quantile_limits.')]\n"
            "assert dict(os.environ) == before\n"
        )

    def test_cli_import_freezes_the_loaded_heap(self):
        # numpy's and the package's objects sit in the permanent generation,
        # so interpreter exit neither traverses nor frees them one by one
        out = run_fresh(
            "import gc\nimport quantile_limits.cli\nimport numpy\n"
            "print(gc.get_freeze_count(), any(o is numpy.__dict__ for o in gc.get_objects()))"
        )
        count, numpy_dict_tracked = out.split()
        assert int(count) >= 10_000
        assert numpy_dict_tracked == "False"  # frozen after numpy loaded

    def test_cli_import_leaves_out_what_no_command_needs_at_load(self):
        # concurrent.futures (and the logging it imports) is not on the
        # path, and transforms loads with the one command that uses it
        out = run_fresh(
            "import sys\nimport quantile_limits.cli\n"
            "print(*[m in sys.modules for m in\n"
            "        ('concurrent.futures', 'logging', 'quantile_limits.transforms')])"
        )
        assert out.split() == ["False", "False", "False"]

    @pytest.mark.parametrize("caller", ["", "gc.disable()\n"], ids=["enabled", "disabled"])
    def test_cli_import_keeps_the_callers_collector_state(self, caller):
        # the collector is paused only while the CLI loads its imports
        out = run_fresh(
            f"import gc\n{caller}enabled = gc.isenabled()\nimport quantile_limits.cli\n"
            "print(enabled, gc.isenabled(), gc.get_freeze_count() >= 10_000)"
        )
        assert out.split() == [str(not caller), str(not caller), "True"]

    @pytest.mark.parametrize("module", ["quantile_limits", "quantile_limits.simulate"])
    def test_library_import_freezes_nothing(self, module):
        out = run_fresh(f"import gc\nimport {module}\nprint(gc.get_freeze_count())")
        assert out.split() == ["0"]

    @needs_proc_tasks
    def test_simulate_runs_within_its_thread_budget(self, tmp_path):
        # the calling thread and QL_THREADS workers, counted as each
        # replication starts
        code = (
            "import os\n"
            "from quantile_limits import cli, simulate\n"
            "seen, blocks = [], simulate._trajectory_blocks\n"
            "def counted(*args):\n"
            f"    seen.append({THREADS})\n"
            "    return blocks(*args)\n"
            "simulate._trajectory_blocks = counted\n"
            "rc = cli.main(['simulate', '--family', 'coin', '--p', '0.5', '--n-max', '20000',\n"
            f"             '--replications', '8', '--output-dir', {str(tmp_path)!r}])\n"
            "assert rc == 0 and len(seen) == 8, (rc, seen)\n"
            "print(max(seen))\n"
        )
        assert int(run_fresh(code, QL_THREADS="2").split()[-1]) <= 3

    def test_namespace_lists_the_public_names(self):
        expected = {name: mod for mod, names in PUBLIC_NAMES.items() for name in names.split()}
        assert len(expected) == 40
        assert sorted(quantile_limits.__all__) == sorted(expected)
        assert set(expected) <= set(dir(quantile_limits))
        for name, mod in expected.items():
            defining = importlib.import_module(f"quantile_limits.{mod}")
            assert getattr(quantile_limits, name) is getattr(defining, name), name

    def test_one_exception_type(self):
        # a refusal is told apart by its message and param, never by its type
        defined = []
        for info in pkgutil.iter_modules(quantile_limits.__path__):
            if info.name != "__main__":  # running it is the console entry
                mod = importlib.import_module(f"quantile_limits.{info.name}")
                defined += [
                    v for v in vars(mod).values()
                    if isinstance(v, type) and issubclass(v, BaseException)
                    and v.__module__ == mod.__name__
                ]
        assert defined == [QuantileLimitsError]
        assert issubclass(QuantileLimitsError, ValueError)
        exc = QuantileLimitsError("n_max must be >= 1, got 0", param="n_max")
        assert (str(exc), exc.param) == ("n_max must be >= 1, got 0", "n_max")
        assert QuantileLimitsError("no argument at fault").param is None

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            quantile_limits.no_such_name
        assert not hasattr(quantile_limits, "uniforms")


class TestEntryPoint:
    """``python -m quantile_limits`` runs ``console_entry``: its exit code is
    main's, and exit drops none of its piped, buffered output."""

    def test_prints_what_main_prints(self, capsys):
        argv = ("blocks", "--q", "0.5", "--reps", "20")
        proc = fresh("-m", "quantile_limits", *argv)
        assert proc.returncode == 0, proc.stderr.decode()
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert proc.stdout == out.encode()

    def test_flag_error_exits_2(self):
        proc = fresh("-m", "quantile_limits", "quantile", "--family", "coin", "--p", "2")
        assert proc.returncode == 2
        assert b"error: --p:" in proc.stderr


def test_sources_parse_at_the_oldest_declared_python():
    # pyproject.toml declares the oldest Python the package runs on; the
    # interpreter running the tests may be newer and accept newer syntax
    root = Path(quantile_limits.__file__).resolve().parent
    pyproject = (root.parents[1] / "pyproject.toml").read_text()
    oldest = re.search(r'requires-python\s*=\s*">=\s*3\.(\d+)"', pyproject)
    assert oldest, "pyproject.toml declares no requires-python >= 3.x"
    paths = sorted(root.glob("*.py"))
    assert len(paths) >= 10
    for path in paths:  # 3.10 today
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, int(oldest[1])))


def _glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


needs_glibc = pytest.mark.skipif(not _glibc(), reason="qlim sets glibc's allocator only")


class TestAllocator:
    """qlim keeps the memory it frees: a dense simulate run faults its
    arrays in once, not once per replication, and its worker threads share
    one arena, unless the caller has set glibc's allocator."""

    @staticmethod
    def faults(out_dir: Path, reps: int, **env_vars: str) -> int:
        # minor page faults of one dense coin run, stride 1, on one thread
        code = (
            "import resource\n"
            "from quantile_limits import cli\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "rc = cli.main(['simulate', '--family', 'coin', '--p', '0.5',\n"
            f"    '--n-max', '100000', '--record-stride', '1', '--replications', '{reps}',\n"
            "    '--analysis', 'switch_stats', '--min-switches', '0',\n"
            f"    '--output-dir', {str(out_dir / str(reps))!r}])\n"
            "assert rc == 0\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        return int(run_fresh(code, QL_THREADS="1", **env_vars).split()[-1])

    @staticmethod
    def heaps(out_dir: Path, **env_vars: str) -> int:
        # glibc's heaps (arenas) that malloc_info reports after a dense coin
        # run on two worker threads
        report = out_dir / "malloc.xml"
        code = (
            "import ctypes\n"
            "from quantile_limits import cli\n"
            "rc = cli.main(['simulate', '--family', 'coin', '--p', '0.5',\n"
            "    '--n-max', '100000', '--record-stride', '1', '--replications', '4',\n"
            "    '--analysis', 'switch_stats', '--min-switches', '0',\n"
            f"    '--output-dir', {str(out_dir / 'run')!r}])\n"
            "assert rc == 0\n"
            "libc = ctypes.CDLL(None)\n"
            "libc.fopen.argtypes = ctypes.c_char_p, ctypes.c_char_p\n"
            "libc.fopen.restype = ctypes.c_void_p\n"
            "libc.malloc_info.argtypes = ctypes.c_int, ctypes.c_void_p\n"
            "libc.malloc_info.restype = ctypes.c_int\n"
            "libc.fclose.argtypes, libc.fclose.restype = (ctypes.c_void_p,), ctypes.c_int\n"
            f"fp = libc.fopen({str(report).encode()!r}, b'w')\n"
            "assert fp and libc.malloc_info(0, fp) == 0 and libc.fclose(fp) == 0\n"
        )
        run_fresh(code, QL_THREADS="2", **env_vars)
        return report.read_text().count("<heap nr=")

    @needs_glibc
    def test_worker_threads_share_one_arena(self, tmp_path):
        # with glibc's default, each worker thread got an arena of its own
        assert self.heaps(tmp_path) == 1

    @needs_glibc
    @pytest.mark.parametrize(
        "env_vars",
        [{"MALLOC_TOP_PAD_": "131072"}, {"GLIBC_TUNABLES": "glibc.malloc.top_pad=131072"}],
        ids=["malloc-variables", "glibc-tunables"],
    )
    def test_caller_arena_settings_are_kept(self, tmp_path, env_vars):
        # a caller's allocator setting, even one on another knob, leaves
        # glibc's per-thread arenas as they are
        assert self.heaps(tmp_path, **env_vars) > 1

    @needs_glibc
    def test_faults_do_not_grow_with_replications(self, tmp_path):
        # with glibc's default thresholds each replication faulted ~2400 pages
        assert self.faults(tmp_path, 8) - self.faults(tmp_path, 2) < 500

    @needs_glibc
    @pytest.mark.parametrize(
        "env_vars",
        [
            {"MALLOC_MMAP_THRESHOLD_": "131072", "MALLOC_TRIM_THRESHOLD_": "131072"},
            {"GLIBC_TUNABLES": "glibc.malloc.mmap_threshold=131072:"
             "glibc.malloc.trim_threshold=131072"},
        ],
        ids=["malloc-variables", "glibc-tunables"],
    )
    def test_caller_allocator_settings_are_kept(self, tmp_path, env_vars):
        # glibc's default thresholds, fixed by the caller: the arrays are
        # faulted in again in every replication
        assert self.faults(tmp_path, 8, **env_vars) - self.faults(tmp_path, 2, **env_vars) > 6000


SEED_2_64 = str(2**64)
BLOCKS = ("blocks", "--q", "0.5", "--reps", "10")
BE = ("be-bound", "--n", "4")
PHI = ("phi-of-k", "--q", "0.5", "--k", "1")
GC = ("gc", "--family", "coin", "--n", "100")
SIM = ("simulate", "--family", "coin", "--p", "0.5", "--n-max", "100")
SANDWICH = SIM + ("--analysis", "sandwich_check", "--epsilon", "0.1")
SWITCHES = SIM + ("--analysis", "switch_stats", "--min-switches", "0")

BAD_FLAGS = [
    (("quantile", "--family", "coin", "--p", "1.5"), "--p"),
    (("quantile", "--family", "coin", "--p", "-0.1"), "--p"),
    (("quantile", "--family", "coin", "--p", "nan"), "--p"),
    (("quantile", "--family", "bernoulli", "--q", "0", "--p", "0.5"), "--q"),
    (("quantile", "--family", "bernoulli", "--q", "nan", "--p", "0.5"), "--q"),
    (("simulate", "--family", "coin", "--p", "0", "--n-max", "100"), "--p"),
    (("simulate", "--family", "coin", "--p", "nan", "--n-max", "100"), "--p"),
    (("simulate", "--family", "bernoulli", "--q", "1", "--p", "0.5",
      "--n-max", "100"), "--q"),
    (("simulate", "--family", "coin", "--p", "0.5", "--n-max", "0"), "--n-max"),
    (SIM + ("--replications", "0"), "--replications"),
    (SIM + ("--master-seed", "-1"), "--master-seed"),
    (SIM + ("--master-seed", SEED_2_64), "--master-seed"),
    (SIM + ("--record-stride", "0"), "--record-stride"),
    # sample sizes are int64: past 2**63 - 1 they are refused, not overflowed
    (("simulate", "--family", "coin", "--p", "0.5", "--n-max", str(2**63),
      "--record-stride", str(2**62)), "--n-max"),
    (SIM + ("--record-stride", str(2**63)), "--record-stride"),
    (SIM + ("--burn-in", "-1"), "--burn-in"),
    (SIM + ("--min-switches", "-1"), "--min-switches"),
    (SIM + ("--analysis", "sandwich_check"), "--epsilon"),
    (SIM + ("--analysis", "sandwich_check", "--epsilon", "0"), "--epsilon"),
    (SIM + ("--analysis", "sandwich_check", "--epsilon", "nan"), "--epsilon"),
    (SIM + ("--analysis", "sandwich_check", "--epsilon", "inf"), "--epsilon"),
    (SWITCHES + ("--burn-in", "101"), "--burn-in"),
    (SANDWICH + ("--burn-in", "150"), "--burn-in"),
    (("blocks", "--q", "0", "--reps", "10"), "--q"),
    (BLOCKS + ("--alpha", "0.5"), "--alpha"),
    (BLOCKS + ("--alpha", "nan"), "--alpha"),
    (BLOCKS + ("--k", "0"), "--k"),
    (("blocks", "--q", "0.5", "--reps", "0"), "--reps"),
    (BLOCKS + ("--master-seed", "-1"), "--master-seed"),
    (BLOCKS + ("--master-seed", SEED_2_64), "--master-seed"),
    (BE + ("--q", "1"), "--q"),
    (("be-bound", "--q", "0.5", "--n", "0"), "--n"),
    (("be-bound", "--q", "0.5", "--n", "-1"), "--n"),
    (BE + ("--mu", "0", "--sigma", "0", "--rho", "1"), "--sigma"),
    (BE + ("--mu", "0", "--sigma", "nan", "--rho", "1"), "--sigma"),
    (BE + ("--mu", "0", "--sigma", "inf", "--rho", "1"), "--sigma"),
    (BE + ("--mu", "0", "--sigma", "1", "--rho", "-1"), "--rho"),
    (BE + ("--mu", "0", "--sigma", "1", "--rho", "inf"), "--rho"),
    (BE + ("--mu", "0", "--sigma", "1", "--rho", "1e308"), "--rho", "3*rho is not a finite double"),
    (BE + ("--mu", "nan", "--sigma", "1", "--rho", "1"), "--mu"),
    (BE + ("--mu", "inf", "--sigma", "1", "--rho", "1"), "--mu"),
    (BE + ("--mu", "0", "--sigma", "1e-200", "--rho", "1"), "--sigma"),
    (BE + ("--mu", "0", "--sigma", "1e-105", "--rho", "1"), "--sigma"),
    (("phi-of-k", "--q", "0.5", "--k", "0"), "--k"),
    (PHI + ("--alpha", "0.8"), "--alpha"),
    (("phi-of-k", "--q", "0", "--k", "1"), "--q"),
    (("phi-of-k", "--k", "1", "--mu", "0", "--sigma", "0", "--rho", "1"), "--sigma"),
    (("phi-of-k", "--k", "1", "--mu", "0", "--sigma", "1", "--rho", "0"), "--rho"),
    (("phi-of-k", "--k", "1", "--mu", "0", "--sigma", "1e-200", "--rho", "1"), "--sigma"),
    (("phi-of-k", "--k", "1", "--mu", "0", "--sigma", "1e-105", "--rho", "1"), "--sigma"),
    (("phi-of-k", "--k", "1", "--mu", "0", "--sigma", "1e-50", "--rho", "1"), "--sigma"),
    # moments derived from --q are no flags: their errors are --q's
    (("blocks", "--q", "1e-300", "--reps", "1"), "--q"),
    (("phi-of-k", "--q", "1e-300", "--k", "1"), "--q"),
    (("be-bound", "--q", "1e-300", "--n", "1"), "--q"),
    # only the n2 search runs away: k is too large for any block below 2**62
    (("blocks", "--q", "0.5", "--k", "100000000000", "--reps", "1"), "--k", "k=100000000000"),
    # phi(m1) passes 2**62 at q = 1e-5: refused before the first block is drawn
    (("blocks", "--q", "1e-5", "--reps", "20"), "--q"),
    (("transform", "--family", "figure", "--p", "1", "--kind", "binarize"), "--p"),
    (("transform", "--family", "figure", "--p", "nan", "--kind",
      "collapse_shift"), "--p"),
    (("transform", "--family", "coin", "--p", "0.3", "--kind", "binarize"), "--p"),  # no gap
    (("gc", "--family", "coin", "--n", "0"), "--n"),
    (("gc", "--family", "coin", "--n", str(2**63)), "--n"),
    (GC + ("--seed", "-1"), "--seed"),
    (GC + ("--seed", SEED_2_64), "--seed"),
    (GC + ("--checkpoints", "0,5"), "--checkpoints"),
    (GC + ("--checkpoints", "5,101"), "--checkpoints"),
    # an --output row's path is taken under the test's directory
    (GC + ("--output", "missing/gc.csv"), "--output"),
    (GC + ("--output", "."), "--output"),  # a directory: the write fails
    # a --dist-file row holds the file's content; the test writes the file
    (("quantile", "--dist-file", '{"family": "bernoulli", "q": "abc"}', "--p", "0.5"),
     "--dist-file"),
    (("quantile", "--dist-file", "[1, 2]", "--p", "0.5"), "--dist-file"),
    (("quantile", "--dist-file", '{"atoms": [{"x": "a", "p": 1}]}', "--p", "0.5"),
     "--dist-file"),
    (("quantile", "--dist-file", '{"family": "coin", "q": 0.3}', "--p", "0.5"),
     "--dist-file"),
    (("quantile", "--dist-file", '{"family": "coin"}', "--q", "0.3", "--p", "0.5"), "--q"),
    (("quantile", "--dist-file", '{"atoms": 5}', "--p", "0.5"), "--dist-file",
     "'atoms' must be a list of {x, p} objects"),
    (("quantile", "--p", "0.5"), "--family", "one of --family or --dist-file is required"),
    (("phi-of-k", "--q", "0.5", "--mu", "0", "--k", "1"), "--q",
     "pass either --q or the --mu/--sigma/--rho triple"),
    # a setting the analysis does not read is refused, not recorded in the
    # report (NaN and Infinity: these rows' ids must differ from the rows above)
    (SIM + ("--epsilon", "NaN"), "--epsilon",
     "epsilon is only valid with analysis 'sandwich_check', not 'convergence'"),
    (SIM + ("--epsilon", "Infinity", "--burn-in", "99999999"), "--epsilon",
     "epsilon is only valid with analysis 'sandwich_check', not 'convergence'"),
    (SWITCHES + ("--epsilon", "-5"), "--epsilon",
     "epsilon is only valid with analysis 'sandwich_check', not 'switch_stats'"),
    (SIM + ("--burn-in", "99999999"), "--burn-in",
     "burn_in must be 0 with analysis 'convergence', got 99999999"),
]


def _row_id(row) -> str:
    argv, flag = row[:2]
    value = argv[argv.index(flag) + 1] if flag in argv else "missing"
    return f"{argv[0]} {flag}={value}"


def _no_draw(*args):
    raise AssertionError("a block was drawn")


@pytest.mark.parametrize(
    "argv,flag,text",
    [(("be-bound", "--q", "0.5", "--n"), "--n", "sqrt(n) is not a finite double"),
     (("phi-of-k", "--q", "0.5", "--k"), "--k", "no feasible n below 2^62"),
     (("blocks", "--q", "0.5", "--reps", "1", "--k"), "--k", "no feasible n below 2^62")],
    ids=["be-bound", "phi-of-k", "blocks"],
)
def test_integer_past_double_range_names_flag(capsys, monkeypatch, argv, flag, text):
    # 10**400 is past the double range: a refusal in the flag's name, not
    # an internal OverflowError, and no block is drawn
    monkeypatch.setattr(sim, "_block_counts", _no_draw)
    code, out, err = run_cli(capsys, *argv, str(10**400))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {flag}: ") and text in err, err
    # the integer in brief, not its 401 digits
    assert "=1000...000 (401 digits)" in err and len(err) < 150, err


class TestBriefIntegers:
    """A refusal spells an integer past 30 digits in brief: its first four
    and last three digits and its digit count."""

    @pytest.mark.parametrize(
        "x",
        [10**30 - 1, 10**30, -(10**30), 2**100, -(2**100) + 1, 10**400, 3 * 10**4299 + 7,
         10**4300, 10**5000 + 12, -(10**5000)],
        ids=["10**30-1", "10**30", "-10**30", "2**100", "-2**100+1", "10**400", "3*10**4299+7",
             "10**4300", "10**5000+12", "-10**5000"],
    )
    def test_against_the_full_text(self, x):
        limit = getattr(sys, "get_int_max_str_digits", None)  # Python 3.11+
        if limit is not None:
            limit = limit()
            sys.set_int_max_str_digits(0)  # no limit
        try:
            text = str(x)
        finally:
            if limit is not None:
                sys.set_int_max_str_digits(limit)
        if len(text.lstrip("-")) <= 30:
            assert _brief(x) == repr(x)
        else:
            sign, digits = ("-", text[1:]) if x < 0 else ("", text)
            assert _brief(x) == f"{sign}{digits[:4]}...{digits[-3:]} ({len(digits)} digits)"

    @pytest.mark.parametrize("x", [7, -(2**63), True, 1.5, math.inf, "10", None])
    def test_others_are_their_repr(self, x):
        assert _brief(x) == repr(x)

    def test_past_the_int_text_limit_is_a_refusal(self):
        # Python refuses to spell 10**5000 in full; the refusal still names
        # n_max, as every refusal names its argument
        with pytest.raises(QuantileLimitsError) as info:
            check_size("n_max", 10**5000)
        assert info.value.param == "n_max"
        assert str(info.value) == "n_max must be <= 9223372036854775807, got 1000...000 (5001 digits)"


@pytest.mark.parametrize("row", BAD_FLAGS, ids=map(_row_id, BAD_FLAGS))
def test_bad_flag_value_names_flag(capsys, monkeypatch, tmp_path, row):
    # a row's optional third entry is text its message must hold; every row
    # is refused before any Bernoulli block is drawn
    argv, flag, *text = row
    monkeypatch.setattr(sim, "_block_counts", _no_draw)
    out_dir = tmp_path / "out"
    extra = ("--output-dir", str(out_dir)) if argv[0] == "simulate" else ()
    if "--dist-file" in argv:
        spec = tmp_path / "d.json"
        i = argv.index("--dist-file") + 1
        spec.write_text(argv[i])
        argv = argv[:i] + (str(spec),) + argv[i + 1:]
    if "--output" in argv:
        i = argv.index("--output") + 1
        argv = argv[:i] + (str(tmp_path / argv[i]),) + argv[i + 1:]
    code, out, err = run_cli(capsys, *argv, *extra)
    assert code == 2, out
    assert re.search(rf"{flag}(?![\w-])", err), err  # --n must not match --n-max
    assert all(t in err for t in text), err
    assert not out_dir.exists()


def test_bad_dist_file_field_names_dist_file(capsys, tmp_path):
    # the library names its own q; the value came from the file, not from --q
    f = tmp_path / "d.json"
    f.write_text(json.dumps({"family": "bernoulli", "q": 2}))
    code, _, err = run_cli(capsys, "quantile", "--dist-file", str(f), "--p", "0.5")
    assert code == 2
    assert err.startswith("error: --dist-file: ")
    assert "--q" not in err
