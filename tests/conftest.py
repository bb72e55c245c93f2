"""Suite-wide test settings.

A fixed Hypothesis profile for CI: ``pytest --hypothesis-profile=ci``
draws the same examples on every run and sets no per-example deadline,
so a property test over random graphs cannot fail on a slow runner by
timing alone, nor pass or fail by luck.

Every test fails if it leaves open a ``Store`` it opened: ``sqlite3``
reports an unclosed connection only from Python 3.13, so the leak would
go unseen on older interpreters.
"""

import sqlite3

import pytest
from hypothesis import settings

from decisiondb.store import Store

settings.register_profile("ci", derandomize=True, deadline=None)


def _is_open(conn: sqlite3.Connection) -> bool:
    try:
        conn.total_changes
    except sqlite3.ProgrammingError:
        return False
    return True


@pytest.fixture(autouse=True)
def no_store_left_open(monkeypatch):
    """Record each store the test opens; after it, close any left open and
    fail the test naming them."""
    opened = []
    init = Store.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        opened.append(self)

    monkeypatch.setattr(Store, "__init__", recording_init)
    yield
    leaked = [store for store in opened if _is_open(store._conn)]
    for store in leaked:
        store.close()
    if leaked:
        pytest.fail(f"test left {len(leaked)} store(s) open: {[str(s.location) for s in leaked]}")
