import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import gc_table_materialised
from quantile_limits import simulate as sim
from quantile_limits.cli import main
from quantile_limits.distributions import fair_coin, from_spec, gapped_example


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_bad_dist_file(self, capsys, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text("{not json")
        code, _, err = run_cli(capsys, "quantile", "--dist-file", str(f), "--p", "0.5")
        assert code == 2
        assert "--dist-file" in err


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
        (out_dir / "traj_9.csv.tmp").write_bytes(b"left by a killed run")
        assert run_cli(capsys, *args, "--replications", "2", "--force")[0] == 0
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == ["report.json", "traj_0.csv", "traj_1.csv"]
        assert json.loads((out_dir / "report.json").read_text())["aggregate"]["total"] == 2

    def test_failed_force_rerun_keeps_earlier_files(self, capsys, tmp_path, monkeypatch):
        out_dir = tmp_path / "runs"
        args = (
            "simulate", "--family", "coin", "--p", "0.5", "--n-max", "50",
            "--master-seed", "3", "--output-dir", str(out_dir),
        )
        assert run_cli(capsys, *args, "--replications", "5")[0] == 0
        first = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        encode = sim._csv_chunks
        bad_seed = sim.derive_seed(3, 1)

        def failing(traj):
            if traj.seed == bad_seed:
                raise RuntimeError("encoder failed")
            yield from encode(traj)

        monkeypatch.setattr(sim, "_csv_chunks", failing)
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

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("fault", ["encode", "write"])
    def test_failed_write_leaves_no_tmp_file(self, capsys, tmp_path, monkeypatch, threads, fault):
        # replication 1 fails while its CSV is encoded, or while its file is
        # written, after the header
        encode = sim._csv_chunks
        bad_seed = sim.derive_seed(7, 1)

        def failing(traj):
            if traj.seed != bad_seed:
                yield from encode(traj)
                return
            yield b"n,lq,rq\n"
            if fault == "encode":
                raise RuntimeError("encoder failed")
            yield "not bytes"  # fh.write raises TypeError

        monkeypatch.setattr(sim, "_csv_chunks", failing)
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
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["config"]["reps"] == 20


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
    (("transform", "--family", "figure", "--p", "1", "--kind", "binarize"), "--p"),
    (("transform", "--family", "figure", "--p", "nan", "--kind",
      "collapse_shift"), "--p"),
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
]


def _row_id(row) -> str:
    argv, flag = row
    value = argv[argv.index(flag) + 1] if flag in argv else "missing"
    return f"{argv[0]} {flag}={value}"


@pytest.mark.parametrize("argv,flag", BAD_FLAGS, ids=map(_row_id, BAD_FLAGS))
def test_bad_flag_value_names_flag(capsys, tmp_path, argv, flag):
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
    assert not out_dir.exists()


def test_bad_dist_file_field_names_dist_file(capsys, tmp_path):
    # the library names its own q; the value came from the file, not from --q
    f = tmp_path / "d.json"
    f.write_text(json.dumps({"family": "bernoulli", "q": 2}))
    code, _, err = run_cli(capsys, "quantile", "--dist-file", str(f), "--p", "0.5")
    assert code == 2
    assert err.startswith("error: --dist-file: ")
    assert "--q" not in err
