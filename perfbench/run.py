"""decisiondb benchmark: seeded sweep-and-audit workloads, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload demo-grid --seed 22 --seconds 30 --trace 0

One client in one process drives the package's public API and its
in-process CLI (``cli.main``) in a closed loop: each operation starts
after the previous one returns. A run repeats its workload's cycle until
``--seconds`` have passed (and at least ``min_cycles`` times) and reports
medians over the repeats.

A cycle sets up a fresh store, sweeps one axis, classifies it, refines
the first boundary, reruns the sweep, then audits the store through the
CLI: replay, deep replay, ``sweep report`` and ``map``, none of which may
write.

End-to-end times are user CPU time at a fixed reference CPU speed. On
the shared 2-vCPU VM this was built on, wall time is not repeatable
enough to gate on:

* the CPU's speed drifts by up to ~1.7x within a tenth of a second, and
  every phase moves with it. So a short reference loop runs before and
  after each timed operation, and every ``PACE_S`` of user CPU time
  inside it from a timer signal (``Pacer``). The loops inside an
  operation are taken out of its time, and its user CPU time is
  rescaled by ``REFERENCE_LOOP_S / mean loop CPU time``.
* kernel time and off-CPU time (file creation, journal and commit
  fsyncs) of identical toy-grid sweeps vary 2-4x from sweep to sweep,
  with the filesystem's other users. They are left out of the
  end-to-end figures; the traced run reports them per layer
  (``store.offcpu_ms``, ``store.write_syscalls_per_point``,
  ``store.disk_write_bytes_per_point``), and every sample prints its
  wall, CPU and kernel time. The wall-clock medians are printed beside
  the result.

Workloads:

* ``demo-grid``: the demo road graph, swept along second_order_weight
  over 40 values in [0, 1). Factory encode and engine evaluate (the
  ``routing`` layer) and ``canon`` do nearly all the work.
* ``toy-grid``: a 2,000-value axis through a trivial step factory and
  engine, so each point costs what ``store`` and ``sweep`` spend on it,
  and the audit reads a 2,000-entry store.

Every check failure counts against ``error_rate``; the command exits 1
when any check fails.

With ``--trace 1`` cycle 0 runs untraced and later cycles run with every
layer's public functions wrapped (see tracer.py); the last line then
carries per-layer metrics instead of end-to-end ones, and the gap to the
untraced cycle is reported as tracing overhead.

Stores live under ``.perfbench_work/`` in the checkout, which must be on
a disk-backed filesystem; the program's own flush policy is recorded,
never changed. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import signal
import sqlite3
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Short phases repeat inside a cycle (the *_reps counts) so that each run
# holds several samples of them, and each audit sample runs its CLI
# command audit_batch times, so that it lasts tens of milliseconds; a run repeats the whole cycle at least
# min_cycles times, more if --seconds have not yet passed. Before the
# first cycle, one untimed cycle over warm_up_points runs on its own
# store: the first sweep in a process otherwise takes ~20% more CPU.
WORKLOADS = {
    "demo-grid": {"kind": "demo", "points": 40, "refine_evals": 12, "min_cycles": 3,
                  "setup_reps": 3, "rerun_reps": 1, "audit_reps": 8, "audit_batch": 4,
                  "warm_up_points": 4},
    "toy-grid": {"kind": "toy", "points": 2000, "refine_evals": 25, "min_cycles": 3,
                 "setup_reps": 3, "rerun_reps": 2, "audit_reps": 1, "audit_batch": 1,
                 "warm_up_points": 200},
}

# Refinement stops on max_evals before reaching this width on toy axes.
TOY_RESOLUTION = "0.000000000001"

# Spans whose percentiles are reported, with the phases they are drawn from.
PERCENTILE_SPANS = (
    ("routing.factory_encode", None),
    ("routing.evaluate", None),
    ("store.put_record", None),
    ("replay.entry", ("replay",)),
    ("replay.entry", ("deep_replay",)),
)

IO_FIELDS = ("wchar", "syscw", "write_bytes")


def cpu_times() -> tuple[float, float]:
    """(CPU time, kernel CPU time) of this process so far.

    From getrusage, which brings the calling thread's runtime up to
    date. clock_gettime(CLOCK_PROCESS_CPUTIME_ID), behind
    time.process_time, only advances at scheduler ticks while an
    interval timer is armed, as the pacer's is.
    """
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime, usage.ru_stime


def read_io() -> dict:
    with open("/proc/self/io") as fh:
        pairs = (line.split(":") for line in fh)
        values = {key: int(value) for key, value in pairs}
    return {key: values[key] for key in IO_FIELDS}


# CPU time of one reference loop at the reference speed. Reported times
# are the user CPU time the run would have taken on a CPU running it
# this fast.
REFERENCE_LOOP_S = 0.003
CALIBRATION_REPS = 3
# User CPU time between reference loops inside an operation.
PACE_S = 0.05

# The reference loop's input: JSON-sized rows like the package's records.
_rng = random.Random(0)
_REFERENCE_ROWS = [
    {"id": i, "to": _rng.randrange(10**6), "w": str(_rng.random()), "tag": f"n{i % 97}"}
    for i in range(1200)
]


def _reference_loop() -> int:
    """Fixed work of the kinds the package does: canonical JSON out and back, SHA-256, dicts.

    The collector is off while it runs: a collection it triggered would
    cost in proportion to the program's heap, not to the CPU's speed.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        text = json.dumps(_REFERENCE_ROWS, sort_keys=True, separators=(",", ":"))
        hashlib.sha256(text.encode()).hexdigest()
        best = {}
        for row in json.loads(text):
            if row["to"] > best.get(row["tag"], -1):
                best[row["tag"]] = row["to"]
        return len(best)
    finally:
        if enabled:
            gc.enable()


def calibrate() -> float:
    """Median CPU time of a few reference loops: the CPU's current speed.

    CPU time, not wall time, so that the process being descheduled
    during a loop does not read as a slow CPU.
    """
    times = []
    for _ in range(CALIBRATION_REPS):
        cpu0 = cpu_times()[0]
        _reference_loop()
        times.append(cpu_times()[0] - cpu0)
    return median(times)


class Pacer:
    """Runs a reference loop every PACE_S of user CPU time, from a SIGVTALRM handler.

    The CPU's speed changes within a tenth of a second, so loops before
    and after a long operation do not tell how fast it ran. A virtual
    timer fires only while the process runs user code, so the loops
    sample the CPU in the state the operation's user code ran in, not
    just after a wait for the disk. Each tick records its start, end and
    CPU time, so that the operation's time can exclude the ticks that
    fell inside it.
    """

    def __init__(self):
        self.ticks: list[tuple[float, float, float]] = []
        signal.signal(signal.SIGVTALRM, self._tick)
        signal.siginterrupt(signal.SIGVTALRM, False)  # restart interrupted system calls

    def _tick(self, signum, frame) -> None:
        cpu0, t0 = cpu_times()[0], time.perf_counter()
        _reference_loop()
        self.ticks.append((t0, time.perf_counter(), cpu_times()[0] - cpu0))

    @contextlib.contextmanager
    def running(self):
        self.ticks = []
        signal.setitimer(signal.ITIMER_VIRTUAL, PACE_S, PACE_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_VIRTUAL, 0)

    def within(self, t0: float, t1: float) -> list[tuple[float, float, float]]:
        return [tick for tick in self.ticks if t0 <= tick[0] and tick[1] <= t1]


@dataclass
class Sample:
    phase: str
    cycle: int
    traced: bool
    wall: float
    cpu: float
    io: dict
    work: int = 0
    out_bytes: int = 0
    kernel: float = 0.0
    loop: float = REFERENCE_LOOP_S
    loops: int = 0

    @property
    def ref(self) -> float:
        """User CPU time at the reference CPU speed."""
        return max(self.cpu - self.kernel, 0.0) * REFERENCE_LOOP_S / self.loop


@dataclass
class Ledger:
    """Operations attempted and the failures recorded against each."""

    attempted: int = 0
    failures: dict = field(default_factory=dict)

    def start(self) -> int:
        self.attempted += 1
        return self.attempted

    def fail(self, op: int, message: str) -> None:
        self.failures.setdefault(op, []).append(message)
        print(f"FAIL: {message}", file=sys.stderr)


def store_state(path: Path) -> tuple[str, str, int]:
    """(digest, fingerprint, f_map rows) of a store, read without the package.

    The digest covers every row except created_at and exec_time_ms plus
    the blob hashes, and repeats across runs of one seed. The
    fingerprint covers every column and each blob's size and mtime, so
    it changes when anything is written.
    """
    digest = hashlib.sha256()
    fingerprint = hashlib.sha256()
    conn = sqlite3.connect(f"file:{path / 'store.sqlite'}?mode=ro", uri=True)
    try:
        fmap_rows = 0
        for table in ("snapshots", "representations", "engine_runs", "decisions", "f_map"):
            cur = conn.execute(f"SELECT * FROM {table}")
            columns = [c[0] for c in cur.description]
            rows = [dict(zip(columns, row)) for row in cur]
            for row in sorted(json.dumps(row, sort_keys=True) for row in rows):
                fingerprint.update(row.encode())
            for row in rows:
                del row["created_at"]
                row.pop("exec_time_ms", None)
            for row in sorted(json.dumps([table, row], sort_keys=True) for row in rows):
                digest.update(row.encode())
            if table == "f_map":
                fmap_rows = len(rows)
    finally:
        conn.close()
    blobs = sorted(
        (name, os.stat(os.path.join(d, name)))
        for d, _, names in os.walk(path / "blobs")
        for name in names
    )
    for name, st in blobs:
        digest.update(name.encode())
        fingerprint.update(f"{name}:{st.st_size}:{st.st_mtime_ns}".encode())
    return digest.hexdigest(), fingerprint.hexdigest(), fmap_rows


def store_bytes(path: Path) -> int:
    return sum(
        os.path.getsize(os.path.join(d, name)) for d, _, names in os.walk(path) for name in names
    )


class Run:
    def __init__(self, args, config, work: Path, tamper=None):
        import inputs

        self.args = args
        self.config = config
        self.work = work
        self.tamper = tamper
        kind = inputs.DemoInputs if config["kind"] == "demo" else inputs.ToyInputs
        self.inputs = kind(args.seed, config["points"])
        self.pacer = Pacer()
        self.tracer = None
        if args.trace:
            import tracer

            self.tracer = tracer.Tracer()
        self.samples: list[Sample] = []
        self.ledger = Ledger()
        self.digests: set[str] = set()
        self.bytes_per_point: list[float] = []
        self.cycle = 0
        self.op = 0

    # -- phases and checks -----------------------------------------------

    @contextlib.contextmanager
    def phase(self, name: str, work: int = 0):
        """Time one operation; an exception in it is recorded and re-raised."""
        self.op = self.ledger.start()
        traced = bool(self.tracer and self.tracer.active)
        if self.tracer:
            self.tracer.set_phase(self.cycle, name)
        sample = Sample(name, self.cycle, traced, 0.0, 0.0, {}, work)
        loop0 = calibrate()
        io0 = read_io()
        (cpu0, kernel0), t0 = cpu_times(), time.perf_counter()
        try:
            with contextlib.nullcontext() if traced else self.pacer.running():
                yield sample
        except Exception as exc:
            self.ledger.fail(self.op, f"{name}: {type(exc).__name__}: {exc}")
            exc.recorded = True
            raise
        # Read after the timer is disarmed, so that every tick lies inside
        # both the wall and the CPU interval or outside both.
        t1, (cpu1, kernel1) = time.perf_counter(), cpu_times()
        io1 = read_io()
        ticks = [] if traced else self.pacer.within(t0, t1)
        sample.wall = t1 - t0 - sum(end - start for start, end, _ in ticks)
        sample.cpu = cpu1 - cpu0 - sum(cpu for _, _, cpu in ticks)
        sample.kernel = kernel1 - kernel0
        sample.io = {key: io1[key] - io0[key] for key in IO_FIELDS}
        loops = [loop0, calibrate(), *(cpu for _, _, cpu in ticks)]
        sample.loop, sample.loops = sum(loops) / len(loops), len(loops)
        self.samples.append(sample)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.ledger.fail(self.op, message)

    def plugins(self):
        factory, engine = self.inputs.factory, self.inputs.engine
        if self.tracer and self.tracer.active:
            layer = "routing" if self.config["kind"] == "demo" else "bench"
            factory = self.tracer.plugin(factory, "encode", f"{layer}.factory_encode")
            engine = self.tracer.plugin(engine, "evaluate", f"{layer}.evaluate")
        return factory, engine

    def cli(self, argv: list[str]) -> str:
        from decisiondb import cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if code != 0:
            self.check(False, f"decisiondb {argv[0]} exited {code}: {err.getvalue().strip()[:300]}")
        return out.getvalue()

    # -- workload steps ----------------------------------------------------

    def build(self, path: Path) -> str:
        """Set up, sweep, classify, refine and rerun one fresh store; returns the plan id."""
        from decisiondb import open_store, sweep

        inp, points = self.inputs, self.config["points"]
        factory, engine = self.plugins()
        for rep in range(self.config["setup_reps"]):
            if rep:
                store.close()
                shutil.rmtree(path)
            with self.phase("setup"):
                store = open_store(path)
                plan = inp.setup(store)
        try:
            with self.phase("sweep", points):
                sweep.declare_representations(store, plan, factory)
                sweep.execute_sweep(store, plan, engine)
            with self.phase("classify"):
                dmap = sweep.materialize_map(store, plan.plan_id, plan.experiment_id)
                report = sweep.classify_axis(dmap, inp.axis)
            for message in inp.map_errors(dmap, report):
                self.check(False, message)
            with self.phase("refine") as sample:
                boundary = report.boundaries[0]
                refined = sweep.refine_boundary(
                    store,
                    plan,
                    inp.axis,
                    (boundary.lo, boundary.hi),
                    engine,
                    factory,
                    max_evals=self.config["refine_evals"],
                    resolution=None if self.config["kind"] == "demo" else TOY_RESOLUTION,
                )
                sample.work = refined.evaluations
            self.check(refined.evaluations > 0, "refinement evaluated no midpoint")
            for message in inp.refine_errors(refined):
                self.check(False, message)
            before = store_state(path)
            for _ in range(self.config["rerun_reps"]):
                with self.phase("rerun", points):
                    sweep.declare_representations(store, plan, factory)
                    sweep.execute_sweep(store, plan, engine)
            self.check(store_state(path)[1] == before[1], "rerun added rows or blobs")
        finally:
            store.close()
        return str(plan.plan_id)

    def audit(self, path: Path, plan_id: str) -> None:
        """CLI replay, deep replay, report and map; none of them may write."""
        from inputs import EXPERIMENT

        db = ["--db", str(path), "--json"]
        digest, before, entries = store_state(path)
        self.bytes_per_point.append(store_bytes(path) / entries)
        batch = self.config["audit_batch"]
        for _ in range(self.config["audit_reps"]):
            for name, extra in (("replay", []), ("deep_replay", ["--deep"])):
                with self.phase(name, entries * batch) as sample:
                    outs = [self.cli(["replay", *db, "--experiment", EXPERIMENT, *extra]) for _ in range(batch)]
                sample.out_bytes = len(outs[-1].encode("utf-8"))
                for out in outs:
                    self.check_replay(out, entries)
            with self.phase("report", batch) as sample:
                pairs = [
                    (
                        self.cli(["sweep", "report", *db, "--plan", plan_id, "--experiment", EXPERIMENT]),
                        self.cli(["map", *db, "--plan", plan_id, "--experiment", EXPERIMENT]),
                    )
                    for _ in range(batch)
                ]
            report, mapped = pairs[-1]
            sample.out_bytes = len(report.encode("utf-8")) + len(mapped.encode("utf-8"))
            for report, mapped in pairs:
                self.check_report(report, mapped)
        after = store_state(path)
        self.check(after[1] == before, "a read command changed rows or blobs")
        self.digests.add(digest)

    def check_replay(self, out: str, entries: int) -> None:
        try:
            payload = json.loads(out)
        except ValueError:
            self.check(False, "replay printed no JSON")
            return
        self.check(payload["ok"] and payload["store_unchanged"], "replay reported a mismatch or a write")
        self.check(not payload["errors"], f"replay found {len(payload['errors'])} broken chain(s)")
        self.check(payload["verified"] == payload["matched"] == entries, "replay did not verify every entry")

    def check_report(self, report: str, mapped: str) -> None:
        try:
            report, mapped = json.loads(report), json.loads(mapped)
        except ValueError:
            self.check(False, "sweep report or map printed no JSON")
            return
        points = self.config["points"]
        self.check(len(report["points"]) == len(mapped["points"]) == points, "report or map lost grid points")
        self.check(bool(report["boundaries"]), "sweep report found no boundary")

    # -- cycles ------------------------------------------------------------

    def set_tracing(self, on: bool) -> None:
        if self.tracer and on != self.tracer.active:
            self.tracer.install() if on else self.tracer.uninstall()

    def execute(self) -> None:
        """Run cycles until --seconds have passed, at least min_cycles of them.

        A traced run needs fewer: an untraced cycle 0, for the overhead
        figure, and one traced cycle, whose counts repeat exactly.
        """
        min_cycles = 2 if self.tracer else self.config["min_cycles"]
        deadline = time.perf_counter() + self.args.seconds
        try:
            while self.cycle < min_cycles or time.perf_counter() < deadline:
                self.set_tracing(self.cycle > 0)
                path = self.work / f"store-{self.cycle}"
                plan_id = self.build(path)
                if self.tamper:
                    path = self.tamper(path)
                self.audit(path, plan_id)
                # Stores stay until the run ends: deleting thousands of
                # blob files between cycles slows the next sweep's writes.
                self.cycle += 1
        except Exception as exc:  # the run stops at its first exception
            if not getattr(exc, "recorded", False):
                self.ledger.fail(self.ledger.start(), f"{type(exc).__name__}: {exc}")
            traceback.print_exc()
        finally:
            self.set_tracing(False)
        if len(self.digests) > 1:
            self.ledger.fail(self.ledger.start(), "store digest differs between cycles")

    # -- reporting ---------------------------------------------------------

    def times(self, phase: str, raw: bool) -> list[float]:
        return [s.wall if raw else s.ref for s in self.samples if s.phase == phase and not s.traced]

    def duration(self, phase: str, raw: bool = False) -> float:
        """Median time of one unit of the phase (a report sample times audit_batch of them)."""
        units = [s.work or 1 for s in self.samples if s.phase == phase and not s.traced]
        times = [t / n for t, n in zip(self.times(phase, raw), units)]
        return median(times) if times else 0.0

    def rate(self, phase: str, raw: bool = False) -> float:
        works = [s.work for s in self.samples if s.phase == phase and not s.traced]
        rates = [w / t for w, t in zip(works, self.times(phase, raw)) if t > 0]
        return median(rates) if rates else 0.0

    def end_to_end(self, raw: bool = False) -> dict:
        """End-to-end metrics from the untraced samples, at the reference speed unless raw."""
        return {
            "setup_s": (self.duration("setup", raw), "s"),
            "sweep_points_per_s": (self.rate("sweep", raw), "points/s"),
            "rerun_points_per_s": (self.rate("rerun", raw), "points/s"),
            "refine_evals_per_s": (self.rate("refine", raw), "midpoints/s"),
            "replay_entries_per_s": (self.rate("replay", raw), "entries/s"),
            "deep_replay_entries_per_s": (self.rate("deep_replay", raw), "entries/s"),
            "report_s": (self.duration("report", raw), "s"),
            "store_bytes_per_point": (median(self.bytes_per_point) if self.bytes_per_point else 0.0, "B/point"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    def per_layer(self):
        """Per-layer metrics from the traced cycles, and the summary they came from."""
        import tracer

        s = tracer.Summary(self.tracer, self.samples)
        points = self.config["points"]
        calls, self_ns, total_ns, a, b = range(5)
        ms, us = 1e-6, 1e-3
        midpoints = s.phase_stat(lambda x: x.work, ("refine",)) or 1
        put_blob = s.span("store.put_blob", calls)
        blob_reads = ("store.get_blob", "store.read_blob_unverified")
        evaluate = ("routing.evaluate", "bench.evaluate")
        replays = s.span("replay.entry", calls) or 1

        def pct(span, q, unit, phases=None):
            return tracer.percentile(s.durations(span, phases), q) * unit

        return {
            "canon.encode_calls": (s.span("canon.encode", calls), "count"),
            "canon.encode_bytes_per_point": (s.span("canon.encode", a, ("sweep",)) / points, "B/point"),
            "canon.encode_self_ms": (s.span("canon.encode", self_ns) * ms, "ms"),
            "canon.decode_calls": (s.span("canon.decode", calls), "count"),
            "canon.decode_self_ms": (s.span("canon.decode", self_ns) * ms, "ms"),
            "routing.factory_encode_calls_per_point": (
                s.span("routing.factory_encode", calls, ("sweep",)) / points, "calls/point"),
            "routing.factory_encode_self_ms": (s.span("routing.factory_encode", self_ns) * ms, "ms"),
            "routing.factory_encode_p50_ms": (pct("routing.factory_encode", 0.5, ms), "ms"),
            "routing.factory_encode_p90_ms": (pct("routing.factory_encode", 0.9, ms), "ms"),
            "routing.evaluate_self_ms": (s.span("routing.evaluate", self_ns) * ms, "ms"),
            "routing.evaluate_p50_ms": (pct("routing.evaluate", 0.5, ms), "ms"),
            "policy.extract_calls": (s.span("policy.extract", calls), "count"),
            "policy.extract_self_ms": (s.span("policy.extract", self_ns) * ms, "ms"),
            "store.put_blob_calls": (put_blob, "count"),
            "store.put_blob_new": (s.span("store.put_blob", b), "count"),
            "store.blob_dedup_ratio": (1 - s.span("store.put_blob", b) / put_blob if put_blob else 0.0, "ratio"),
            "store.put_blob_self_ms": (s.span("store.put_blob", self_ns) * ms, "ms"),
            "store.put_record_calls": (s.span("store.put_record", calls), "count"),
            "store.put_record_inserted": (s.span("store.put_record", a), "count"),
            "store.put_record_ignored": (s.span("store.put_record", calls) - s.span("store.put_record", a), "count"),
            "store.put_record_self_ms": (s.span("store.put_record", self_ns) * ms, "ms"),
            "store.put_record_p50_ms": (pct("store.put_record", 0.5, ms), "ms"),
            "store.put_record_p99_ms": (pct("store.put_record", 0.99, ms), "ms"),
            "store.disk_write_bytes_per_point": (
                s.phase_stat(lambda x: x.io["write_bytes"], ("sweep",)) / points, "B/point"),
            "store.write_syscalls_per_point": (
                s.phase_stat(lambda x: x.io["syscw"], ("sweep",)) / points, "syscalls/point"),
            "store.offcpu_ms": (s.phase_stat(lambda x: max(x.wall - x.cpu, 0.0)) * 1e3, "ms"),
            "store.get_record_calls": (s.span("store.get_record", calls), "count"),
            "store.get_record_self_ms": (s.span("store.get_record", self_ns) * ms, "ms"),
            "store.blob_read_calls": (s.span(blob_reads, calls), "count"),
            "store.blob_read_self_ms": (s.span(blob_reads, self_ns) * ms, "ms"),
            "store.query_fmap_calls": (s.span("store.query_fmap", calls), "count"),
            "store.query_fmap_rows": (s.span("store.query_fmap", a), "count"),
            "store.query_fmap_self_ms": (s.span("store.query_fmap", self_ns) * ms, "ms"),
            "store.table_counts_calls": (s.span("store.table_counts", calls), "count"),
            "store.table_counts_self_ms": (s.span("store.table_counts", self_ns) * ms, "ms"),
            "sweep.declare_self_ms": (s.span("sweep.declare", self_ns) * ms, "ms"),
            "sweep.execute_self_ms": (s.span("sweep.execute", self_ns) * ms, "ms"),
            "sweep.refine_self_ms": (s.span("sweep.refine", self_ns) * ms, "ms"),
            "sweep.refine_fmap_rows_per_eval": (s.span("store.query_fmap", a, ("refine",)) / midpoints, "rows/eval"),
            "sweep.load_plan_calls": (s.span("sweep.load_plan", calls), "count"),
            "sweep.load_plan_ms": (s.span("sweep.load_plan", total_ns) * ms, "ms"),
            "sweep.materialize_map_ms": (s.span("sweep.materialize_map", total_ns) * ms, "ms"),
            "sweep.classify_axis_ms": (s.span("sweep.classify_axis", total_ns) * ms, "ms"),
            "sweep.rerun_evaluations_per_point": (s.span(evaluate, calls, ("rerun",)) / points, "evals/point"),
            "replay.entry_calls": (s.span("replay.entry", calls), "count"),
            "replay.entry_self_ms": (s.span("replay.entry", self_ns) * ms, "ms"),
            "replay.entry_p50_us": (pct("replay.entry", 0.5, us, ("replay",)), "us"),
            "replay.entry_p99_us": (pct("replay.entry", 0.99, us, ("replay",)), "us"),
            "replay.deep_entry_p50_us": (pct("replay.entry", 0.5, us, ("deep_replay",)), "us"),
            "replay.deep_entry_p99_us": (pct("replay.entry", 0.99, us, ("deep_replay",)), "us"),
            "replay.checks_per_entry": (s.span("replay.entry", a) / replays, "checks/entry"),
            "replay.mismatches": (s.span("replay.entry", b), "count"),
            "cli.self_ms": (s.span("cli.main", self_ns) * ms, "ms"),
            "cli.output_bytes": (s.phase_stat(lambda x: x.out_bytes), "B"),
            "bench.plugin_self_ms": (s.span(("bench.factory_encode", "bench.evaluate"), self_ns) * ms, "ms"),
        }, s

    def overhead(self) -> str:
        """Traced minus untraced wall time per cycle."""

        def per_cycle(traced):
            cycles = {}
            for s in self.samples:
                if s.traced == traced:
                    cycles[s.cycle] = cycles.get(s.cycle, 0.0) + s.wall
            return median(cycles.values()) if cycles else 0.0

        plain, traced = per_cycle(False), per_cycle(True)
        share = (traced - plain) / plain if plain else 0.0
        return f"tracing overhead: {traced - plain:.3f} s per cycle ({share:+.1%}; {plain:.3f} s untraced, {traced:.3f} s traced)"


def environment(work: Path) -> dict:
    """Machine, versions, filesystem and the store's flush settings as opened by the package."""
    from decisiondb import open_store

    probe = work / "probe"
    with open_store(probe) as store:
        pragmas = {
            name: store._conn.execute(f"PRAGMA {name}").fetchone()[0]
            for name in ("journal_mode", "synchronous", "cache_size", "page_size")
        }
    shutil.rmtree(probe)
    fstype, best = "unknown", ""
    with open("/proc/self/mountinfo") as fh:
        for line in fh:
            left, _, right = line.partition(" - ")
            mount = left.split()[4]
            inside = str(work) == mount or str(work).startswith(mount.rstrip("/") + "/")
            if inside and len(mount) > len(best):
                best, fstype = mount, right.split()[0]
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py"))
    )
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "sqlite": sqlite3.sqlite_version,
        "src_lines": src_lines,
        "store_fs": fstype,
        "sqlite_pragmas": pragmas,
        "load": "closed loop, 1 client, 1 process, no threads",
    }


def import_package():
    """Import decisiondb from this checkout's src/, or exit 2 without a result."""
    if not (SRC / "decisiondb" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC}")
    sys.path.insert(0, str(SRC))
    import decisiondb

    if SRC.resolve() not in Path(decisiondb.__file__).resolve().parents:
        sys.exit(f"perfbench: decisiondb imported from {decisiondb.__file__}, not {SRC}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description="decisiondb benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, workloads=WORKLOADS, tamper=None) -> int:
    """Run one workload; ``workloads`` and ``tamper`` let selftest.py shrink and corrupt it."""
    args = parse_args(argv)
    import_package()
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        env = environment(work)
        if env["store_fs"] in ("tmpfs", "ramfs"):
            print(f"warning: store on {env['store_fs']}; commit cost will not show", file=sys.stderr)
        config = workloads[args.workload]
        warm_up = Run(
            argparse.Namespace(**{**vars(args), "seconds": 0, "trace": 0}),
            {**config, "points": config["warm_up_points"], "refine_evals": 2, "min_cycles": 1,
             "setup_reps": 1, "rerun_reps": 1, "audit_reps": 1, "audit_batch": 1},
            work / "warm-up",
        )
        warm_up.execute()
        # Constructed after the warm-up, so that its pacer owns SIGVTALRM.
        run = Run(args, config, work, tamper)
        run.ledger = warm_up.ledger
        print("env " + json.dumps(env, sort_keys=True))
        print(f"workload {args.workload} seed {args.seed} inputs {json.dumps(run.inputs.describe())}")
        run.execute()
        for sample in run.samples:
            mark = " traced" if sample.traced else ""
            print(
                f"cycle {sample.cycle}{mark} {sample.phase} {sample.wall:.4f} s cpu {sample.cpu:.4f} s sys {sample.kernel:.4f} s "
                f"loop {sample.loop * 1e3:.2f} ms x{sample.loops} ref {sample.ref:.4f} s work {sample.work}"
            )
        for digest in sorted(run.digests):
            print(f"digest {args.workload} seed {args.seed}: {digest}")
        ledger = run.ledger
        failed = len(ledger.failures)
        error_rate = failed / ledger.attempted if ledger.attempted else 1.0
        print(f"cycles {run.cycle}; error_rate {error_rate} ratio ({failed} failed / {ledger.attempted} attempted)")
        if args.trace:
            metrics, summary = run.per_layer()
            for phase, (wall, layers) in summary.breakdown().items():
                parts = ", ".join(f"{k} {v:.1f}" for k, v in sorted(layers.items(), key=lambda kv: -kv[1]))
                print(f"phase {phase}: {wall:.1f} ms = {parts}")
            for span, phases in PERCENTILE_SPANS:
                print(f"percentile samples {span} {'+'.join(phases or ['all'])}: {len(summary.durations(span, phases))}")
            print(run.overhead())
        else:
            for name, (value, unit) in run.end_to_end(raw=True).items():
                print(f"raw wall-clock {name} {value} {unit}")
            metrics = run.end_to_end()
        for name, (value, unit) in metrics.items():
            print(f"metric {name} {value} {unit}")
        result = {
            "correct": failed == 0,
            "attempted": ledger.attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
        print(json.dumps(result))
        return 0 if failed == 0 else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


if __name__ == "__main__":
    # A terminated run still removes its stores on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
