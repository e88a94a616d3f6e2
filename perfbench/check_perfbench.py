"""Self-tests of the benchmark (not part of the repository's test suite).

Run from the root of a checkout::

    python3 -m pytest -q perfbench/check_perfbench.py

They check that the benchmark reports measured time only, that one seed
always yields the same inputs and counts, that teardown leaves no child
process behind, and that a wrong answer or a missing source tree fails
the run.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys

import pytest
from common import BENCH_DIR, ROOT, BenchError, bootstrap, leaked, live_children

bootstrap()

import bench  # noqa: E402 -- needs the source tree on sys.path
import run  # noqa: E402
from workloads import WORKLOADS, Analytics, ServiceIngest  # noqa: E402

NAMES = sorted(WORKLOADS)
SHORT_OPS = 24


def short_phase(name: str, seed: int, *, traced: bool = False, config=None):
    return bench.run_phase(name, seed, 1e9, traced=traced, setups=1, config=config,
                           max_ops=SHORT_OPS, schedule="serial")


@pytest.mark.parametrize("name", NAMES)
def test_seed_fixes_the_op_sequence(name, tmp_path):
    def sequence(seed):
        wl = WORKLOADS[name](seed, tmp_path)
        return [op.key() for op in itertools.islice(wl.ops(), 60)]

    assert sequence(7) == sequence(7)
    assert sequence(7) != sequence(8)


@pytest.mark.parametrize("name", NAMES)
def test_seed_fixes_the_counts(name):
    counts = ("crypto.ashe.prf_evals_per_query", "idlist.encode_calls_per_query",
              "shard.calls_per_query")
    runs = []
    for _ in range(2):
        phase = short_phase(name, 3, traced=True)
        assert not phase.wrong
        layers = bench.per_layer(phase, phase)
        e2e, _ = bench.end_to_end(phase)
        runs.append([layers[c] for c in counts] + [e2e["result_bytes_per_query"]])
    assert runs[0] == runs[1]
    prf, encodes, shard_calls, result_bytes = runs[0]
    assert prf > 0 and result_bytes > 0
    # Shard workers and analytics' process-pool workers encode their ID
    # lists out of process, unseen; the service process reports its own.
    assert (shard_calls > 0) == (name == "sharded")
    assert (encodes > 0) == (name == "service_ingest")


@pytest.mark.parametrize("name", NAMES)
def test_latencies_are_measured_not_modelled(name):
    """A modelled 0.25 s vs 5 s job start must not move any latency by
    anything near the modelled 4.75 s difference."""
    metrics = []
    for startup in (0.25, 5.0):
        phase = short_phase(name, 5, config={"job_startup_s": startup})
        assert not phase.wrong
        metrics.append(bench.end_to_end(phase)[0])
    for key in metrics[0]:
        if key.endswith("_ms"):
            assert abs(metrics[1][key] - metrics[0][key]) < 1000.0, key
    assert abs(metrics[1]["setup_s"] - metrics[0]["setup_s"]) < 1.0


def test_leaked_child_is_reported_and_killed():
    proc = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
    try:
        assert leaked({proc.pid}, grace_s=0.2) == [proc.pid]
        assert proc.wait(timeout=10) != 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def test_service_left_running_fails_the_run(monkeypatch):
    def close_sessions_only(self):
        for s in self.sessions:
            s.close()
        self.sessions = []

    monkeypatch.setattr(ServiceIngest, "teardown", close_sessions_only)
    with pytest.raises(BenchError, match="outlived teardown"):
        short_phase("service_ingest", 1)
    assert not live_children()


@pytest.mark.parametrize("name", ["service_ingest", "sharded"])
def test_failing_op_still_tears_down(name, monkeypatch):
    cls = WORKLOADS[name]
    original = cls.run_op

    def failing(self, op, done):
        if op.index == 3:
            raise RuntimeError("injected failure")
        original(self, op, done)

    monkeypatch.setattr(cls, "run_op", failing)
    with pytest.raises(RuntimeError, match="injected"):
        short_phase(name, 1)
    assert not live_children()


def test_wrong_answer_fails_the_run(monkeypatch, capsys):
    original = Analytics.answer

    def off_by_one(self, kind, params):
        rows = original(self, kind, params)
        if kind == "sum_all":
            rows = [{k: v + 1 for k, v in r.items()} for r in rows]
        return rows

    monkeypatch.setattr(Analytics, "answer", off_by_one)
    code = run.main(["--workload", "analytics", "--seed", "1", "--seconds", "2"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False and result["failed"] > 0


def test_missing_source_tree_fails_without_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "analytics", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
