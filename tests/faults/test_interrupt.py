"""Clean shutdown on KeyboardInterrupt / SIGTERM.

Run in a subprocess: the victim maps slow chunks, signals itself
mid-flight, and reports whether the interrupt propagated cleanly with no
orphaned worker processes.  The parent asserts on the report.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

VICTIM = """
import os, signal, sys, threading, time
import multiprocessing

from repro.core.executor import ExecutionPlan, ParallelExecutor, RetryPolicy
from tests.faults import fault_lib

strategy = sys.argv[1]
signal_name = sys.argv[2]

if signal_name == "SIGTERM":
    # Graceful-termination convention: translate SIGTERM into SystemExit
    # so the executor's interrupt path runs (Python only does this for
    # SIGINT out of the box).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))

context = {"dir": sys.argv[3], "main_pid": os.getpid()}
plan = ExecutionPlan(
    strategy=strategy, n_jobs=2, chunk_size=1,
    retry=RetryPolicy(backoff_seconds=0.0),
)

def shoot():
    # Event-based arming: wait for a chunk to announce it is running
    # instead of guessing how long pool spin-up takes on this machine.
    if not fault_lib.wait_for_chunk_start(context["dir"], timeout=30.0):
        print("NO-CHUNK-START")
        os._exit(2)
    os.kill(os.getpid(), getattr(signal, signal_name))

threading.Thread(target=shoot, daemon=True).start()

try:
    ParallelExecutor(plan).map(
        fault_lib.slow_chunk, context, list(range(40))
    )
except (KeyboardInterrupt, SystemExit):
    orphans = multiprocessing.active_children()
    # Workers must be terminated and joined by the executor, not us.
    print("CLEAN" if not orphans else f"ORPHANS:{len(orphans)}")
    sys.exit(0)
print("NO-INTERRUPT")
sys.exit(1)
"""


def run_victim(strategy: str, signal_name: str, tmp_path: Path):
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{REPO_ROOT / 'src'}:{REPO_ROOT}"
    return subprocess.run(
        [sys.executable, "-c", VICTIM, strategy, signal_name, str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
        cwd=REPO_ROOT,
    )


@pytest.mark.parametrize("strategy", ["process"])
def test_sigint_interrupts_cleanly_with_no_orphans(strategy, tmp_path):
    completed = run_victim(strategy, "SIGINT", tmp_path)
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "CLEAN", (
        completed.stdout,
        completed.stderr,
    )


def test_sigterm_via_system_exit_shuts_down_cleanly(tmp_path):
    completed = run_victim("process", "SIGTERM", tmp_path)
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "CLEAN", (
        completed.stdout,
        completed.stderr,
    )
