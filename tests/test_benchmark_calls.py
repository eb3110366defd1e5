"""The benchmark's traced workload process runs against the library in src/.

``perfbench/child.py STAMP 1 ARGV...`` wraps public library functions by
name, runs ``cli.main(ARGV)`` and then replays ``run_replicated`` or
``block_event_experiment`` with the arguments the CLI passed it.  An API
change that breaks those call shapes fails here, on each workload's
smoke-sized argument list.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import SMOKE_SIZES, WORKLOADS  # noqa: E402


@pytest.mark.parametrize(
    "workload, span",
    [
        ("simulate-dense", "simulate.run_replicated"),
        ("simulate-wide", "simulate.run_replicated"),
        ("gc-long", "cli.main"),
        ("blocks", "simulate.block_event_experiment"),
    ],
)
def test_traced_workload_runs(tmp_path, workload, span):
    job = WORKLOADS[workload](1, tmp_path, SMOKE_SIZES[workload])
    out, stamp = tmp_path / "out", tmp_path / "stamp.json"
    out.mkdir()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    with open(out / "stdout.txt", "w") as stdout:  # where the runner puts it
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "child.py"), str(stamp), "1", *job.argv(out)],
            env=env, cwd=ROOT, stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=120,
        )
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(stamp.read_text())["trace"]
    assert span in {s[1] for s in trace["spans"]}
    if span == "simulate.run_replicated":  # the replay on one thread ran
        assert trace["side"]["replicate_serial"] > 0
    if span == "simulate.block_event_experiment":  # and the warm rerun
        assert trace["side"]["block_event_warm"] > 0
    assert job.check(out) == 0
