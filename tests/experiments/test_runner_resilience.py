"""Crash resilience of the experiment runner: keep-going, timeouts, resume.

Failures are injected through the ``REPRO_EXPERIMENTS_FAIL`` environment
hook (a comma list of experiment ids that raise inside the worker body). Pool timeouts and worker
death run the runner in a subprocess, so the test sees when the whole
process exits, not just when ``main`` returns.
"""

from __future__ import annotations

import contextlib
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import obs
from repro.experiments import runner


@pytest.fixture(autouse=True)
def _quick_registry(monkeypatch):
    # Two cheap experiments stand in for the full registry (fork start
    # method: workers inherit the monkeypatched attributes).
    from repro.experiments import fig01_02, fig05_06

    monkeypatch.setattr(fig01_02, "QUICK_SIDES", (4,))
    monkeypatch.setattr(fig05_06, "QUICK_P_2D", (9,))
    monkeypatch.setattr(
        runner, "PAPER_EXPERIMENTS",
        {k: runner.EXPERIMENTS[k] for k in ("fig1_2", "fig5")},
    )


def _status(path):
    return {
        k: v["status"]
        for k, v in obs.load_profile(path)["context"]["experiment_status"].items()
    }


class TestFailureCapture:
    def test_serial_failure_reports_id_and_exits_nonzero(self, monkeypatch, capsys):
        monkeypatch.setenv(runner.FAIL_ENV, "fig1_2")
        assert runner.main(["fig1_2"]) == 1
        err = capsys.readouterr().err
        assert "fig1_2" in err and "FAILED" in err
        assert "injected failure" in err  # traceback included

    def test_without_keep_going_rest_is_skipped(self, monkeypatch, capsys):
        monkeypatch.setenv(runner.FAIL_ENV, "fig1_2")
        assert runner.main(["all"]) == 1
        err = capsys.readouterr().err
        assert "SKIPPED" in err and "fig5" in err

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_keep_going_completes_the_sweep(self, monkeypatch, capsys,
                                            tmp_path, jobs):
        monkeypatch.setenv(runner.FAIL_ENV, "fig1_2")
        out = tmp_path / "out.json"
        code = runner.main(
            ["all", "--jobs", jobs, "--keep-going", "--profile", str(out)]
        )
        assert code == 1  # exit reflects the failure
        captured = capsys.readouterr()
        assert "fig5" in captured.out  # the healthy experiment still ran
        assert "failed experiments: fig1_2" in captured.err
        st = _status(out)
        assert st == {"fig1_2": "failed", "fig5": "ok"}
        doc = obs.load_profile(out)
        record = doc["context"]["experiment_status"]["fig1_2"]
        assert "injected failure" in record["error"]
        assert "traceback" in record or jobs == "2"

    def test_parallel_failure_carries_experiment_id(self, monkeypatch, capsys):
        monkeypatch.setenv(runner.FAIL_ENV, "fig5")
        assert runner.main(["all", "--jobs", "2", "--keep-going"]) == 1
        err = capsys.readouterr().err
        # satellite: the per-future guard attaches the experiment id
        assert "fig5" in err and "RuntimeError" in err

    def test_profile_written_even_when_everything_fails(self, monkeypatch,
                                                        tmp_path, capsys):
        monkeypatch.setenv(runner.FAIL_ENV, "fig1_2,fig5")
        out = tmp_path / "out.json"
        assert runner.main(["all", "--keep-going", "--profile", str(out)]) == 1
        assert _status(out) == {"fig1_2": "failed", "fig5": "failed"}


class TestRetries:
    def test_retries_flag_is_gone(self):
        # Seeded experiments fail the same way every time: no retry option.
        with pytest.raises(SystemExit) as exc:
            runner.main(["fig1_2", "--retries", "1"])
        assert exc.value.code == 2

    def test_bad_timeout_rejected(self):
        with pytest.raises(SystemExit):
            runner.main(["fig1_2", "--timeout", "0"])

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_timeout_is_a_usage_error(self, value):
        with pytest.raises(SystemExit) as exc:
            runner.main(["fig1_2", "--timeout", value])
        assert exc.value.code == 2


class TestTimeout:
    def test_serial_timeout_records_status(self, monkeypatch, tmp_path, capsys):
        def hang(quick=True, seed=0):
            import time

            time.sleep(30.0)

        monkeypatch.setitem(runner.EXPERIMENTS, "fig1_2", hang)
        out = tmp_path / "out.json"
        code = runner.main(
            ["fig1_2", "--timeout", "0.2", "--profile", str(out)]
        )
        assert code == 1
        assert _status(out) == {"fig1_2": "timeout"}
        assert "TIMEOUT" in capsys.readouterr().err


_DRIVER = """
import os, sys, time
from repro.experiments import fig01_02, fig05_06, runner

def slow(quick=True, seed=0):
    time.sleep(60.0)

def crash(quick=True, seed=0):
    os._exit(3)

fig01_02.QUICK_SIDES = (4,)
fig05_06.QUICK_P_2D = (9,)
runner.EXPERIMENTS.update(slow=slow, crash=crash)
runner.PAPER_EXPERIMENTS = {
    k: runner.EXPERIMENTS[k] for k in (sys.argv[1], "fig5", "fig1_2", "fig3_4")
}
sys.exit(runner.main(sys.argv[2:]))
"""

#: Experiments queued behind ``bad_id`` and ``fig5``, the first two in flight.
_QUEUED = ("fig1_2", "fig3_4")


def _drive(tmp_path, bad_id, *args):
    """Run ``all --jobs 2 --keep-going`` over ``bad_id``, ``fig5`` and the
    :data:`_QUEUED` experiments in a fresh process (fork workers inherit the
    patched registry)."""
    script = tmp_path / "driver.py"
    script.write_text(_DRIVER)
    src = Path(runner.__file__).resolve().parents[2]
    env = {**os.environ, "PYTHONPATH": str(src)}
    env.pop(runner.FAIL_ENV, None)
    t0 = time.monotonic()
    # A session of its own, so a hung run and any pool worker it left
    # behind are killed together.
    proc = subprocess.Popen(
        [sys.executable, str(script), bad_id, "all", "--jobs", "2",
         "--keep-going", *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        start_new_session=True,
    )
    try:
        _, stderr = proc.communicate(timeout=30)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
    return proc.returncode, stderr, time.monotonic() - t0


class TestPooledGuard:
    def test_pooled_timeout_stops_the_experiment(self, tmp_path):
        out = tmp_path / "p.json"
        returncode, stderr, elapsed = _drive(tmp_path, "slow", "--timeout", "1",
                                             "--profile", str(out))
        assert returncode == 1, stderr
        assert elapsed < 10.0  # the worker stopped; the pool shut down
        assert _status(out) == {"slow": "timeout", "fig5": "ok",
                                "fig1_2": "ok", "fig3_4": "ok"}

    def test_worker_death_is_recorded(self, tmp_path):
        out = tmp_path / "p.json"
        returncode, stderr, _ = _drive(tmp_path, "crash", "--profile", str(out))
        assert returncode == 1, stderr
        status = _status(out)
        assert status["crash"] == "failed"
        record = obs.load_profile(out)["context"]["experiment_status"]["crash"]
        assert "BrokenProcessPool" in record["error"]
        # Only what was in flight on the broken pool fails; a fresh pool
        # runs the experiments queued behind the crash.
        assert {exp_id: status[exp_id] for exp_id in _QUEUED} == {
            exp_id: "ok" for exp_id in _QUEUED}


class TestResume:
    def test_resume_reruns_only_failures(self, monkeypatch, tmp_path, capsys):
        first = tmp_path / "first.json"
        monkeypatch.setenv(runner.FAIL_ENV, "fig1_2")
        assert runner.main(
            ["all", "--jobs", "2", "--keep-going", "--profile", str(first)]
        ) == 1
        assert _status(first) == {"fig1_2": "failed", "fig5": "ok"}
        failed = obs.load_profile(first)["context"]["experiment_status"]
        assert "traceback" in failed["fig1_2"]
        capsys.readouterr()  # drain the first run's output

        monkeypatch.delenv(runner.FAIL_ENV)
        second = tmp_path / "second.json"
        code = runner.main(
            ["all", "--resume", str(first), "--profile", str(second)]
        )
        assert code == 0
        captured = capsys.readouterr()
        # fig5 was skipped (note on stderr), fig1_2 actually ran
        assert "fig5: skipped" in captured.err
        assert "fig1_2" in captured.out
        assert "fig5" not in captured.out
        st = obs.load_profile(second)["context"]["experiment_status"]
        assert st["fig1_2"]["status"] == "ok" and "resumed_from" not in st["fig1_2"]
        assert st["fig5"]["status"] == "ok"
        assert st["fig5"]["resumed_from"] == str(first)

    def test_resume_with_nothing_to_do(self, tmp_path, capsys):
        first = tmp_path / "first.json"
        assert runner.main(["all", "--profile", str(first)]) == 0
        capsys.readouterr()
        assert runner.main(["all", "--resume", str(first)]) == 0
        captured = capsys.readouterr()
        assert captured.out.strip() == ""
        assert captured.err.count("skipped") == 2

    def test_resume_from_missing_file_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            runner.main(["all", "--resume", str(tmp_path / "nope.json")])
