"""Run a toy sweep that SIGKILLs its own process mid-execution.

Usage: sweep_probe.py DB COMMIT_INTERVAL_S KILL_AT X [X ...] [--cache-pages N]

Declares and executes the toy plan over the given x values on the store
at DB, with the store's commit interval set to COMMIT_INTERVAL_S; the
engine kills this process at its KILL_AT-th evaluation. With
``--cache-pages`` the store's connection keeps at most N pages in its
cache, so an open transaction spills changed pages into the database
file before the kill and leaves a hot rollback journal. Crash tests run
it as a subprocess and then check what a fresh store makes of the
leftovers.
"""

from __future__ import annotations

import argparse
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
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("db")
    parser.add_argument("interval", type=float)
    parser.add_argument("kill_at", type=int)
    parser.add_argument("xs", nargs="+")
    parser.add_argument("--cache-pages", type=int)
    args = parser.parse_args()
    store._COMMIT_INTERVAL_S = args.interval
    st = store.open_store(args.db)
    if args.cache_pages is not None:
        st._conn.execute(f"PRAGMA cache_size = {args.cache_pages}")
    plan = make_plan(st, *setup_world(st), xs=args.xs)
    run_plan(st, plan, KillingEngine(args.kill_at))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
