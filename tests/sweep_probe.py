"""Run a toy sweep that SIGKILLs its own process mid-execution.

Usage: sweep_probe.py DB COMMIT_INTERVAL_S KILL_AT X [X ...]

Declares and executes the toy plan over the given x values on the store
at DB, with the store's commit interval set to COMMIT_INTERVAL_S; the
engine kills this process at its KILL_AT-th evaluation. Crash tests run
it as a subprocess and then check what a fresh store makes of the
leftovers.
"""

from __future__ import annotations

import os
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from toy_arena import StepEngine, make_plan, run_plan, setup_world

from decisiondb import store


class KillingEngine(StepEngine):
    def __init__(self, kill_at):
        super().__init__()
        self.kill_at = kill_at
        self.calls = 0

    def evaluate(self, representation, query):
        self.calls += 1
        if self.calls == self.kill_at:
            os.kill(os.getpid(), signal.SIGKILL)
        return super().evaluate(representation, query)


def main() -> int:
    db, interval, kill_at, *xs = sys.argv[1:]
    store._COMMIT_INTERVAL_S = float(interval)
    st = store.open_store(db)
    plan = make_plan(st, *setup_world(st), xs=xs)
    run_plan(st, plan, KillingEngine(int(kill_at)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
