"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks that every workload in BENCHMARK.json, untraced and traced,
passes its correctness checks and emits exactly the metrics
BENCHMARK.json names, with their units; and that flipping one byte of a
raw-output blob in a copy of a toy-grid store makes its audit report
failures and exit non-zero. Exits 1 on the first broken
expectation.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sqlite3
import sys
from pathlib import Path

import run

TINY = {
    name: {**config, "points": points, "warm_up_points": points, "refine_evals": 2, "min_cycles": 1}
    for (name, config), points in zip(run.WORKLOADS.items(), (4, 40))
}


def invoke(workload: str, trace: int, tamper=None) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(
            ["--workload", workload, "--seed", "22", "--seconds", "0", "--trace", str(trace)],
            workloads=TINY,
            tamper=tamper,
        )
    return code, json.loads(out.getvalue().splitlines()[-1])


def flip_raw_output_byte(path: Path) -> Path:
    """Copy the store and flip one byte of the first engine run's raw output."""
    copy = path.with_name(path.name + "-tampered")
    shutil.copytree(path, copy)
    conn = sqlite3.connect(copy / "store.sqlite")
    try:
        ref = conn.execute("SELECT raw_output_ref FROM engine_runs ORDER BY run_id").fetchone()[0]
    finally:
        conn.close()
    blob = copy / "blobs" / ref[:2] / ref[2:4] / ref
    data = bytearray(blob.read_bytes())
    data[len(data) // 2] ^= 0x01
    blob.write_bytes(bytes(data))
    return copy


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result = invoke(workload, trace)
            expected = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if code != 0 or not result["correct"] or result["failed"]:
                failures.append(f"{workload} trace {trace}: exit {code}, {result['failed']} failed")
            if got != expected:
                failures.append(f"{workload} trace {trace}: metrics differ: {sorted(set(got) ^ set(expected))}")
            print(f"{workload} trace {trace}: {len(got)} metrics, {result['attempted']} operations")
    code, result = invoke("toy-grid", 0, tamper=flip_raw_output_byte)
    if code == 0 or result["failed"] == 0 or result["correct"]:
        failures.append(f"tampered toy-grid store passed: exit {code}, {result['failed']} failed")
    print(f"tampered toy-grid store: exit {code}, error_rate {result['failed'] / result['attempted']}")
    for failure in failures:
        print(f"SELFTEST FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
