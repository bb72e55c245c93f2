"""A transparent factory/engine pair for orchestration tests.

The factory copies a threshold out of the snapshot and the engine
labels each point by comparing x * gain against it, so decision
boundaries sit exactly where the test author put them.
"""

from __future__ import annotations

from decimal import Decimal

from decisiondb import canon, replay, sweep
from decisiondb.errors import EngineFailure
from decisiondb.policy import EquivalencePolicy, persist_policy

WINDOW = ("2025-06-02T00:00:00Z", "2025-06-09T00:00:00Z")


class StepFactory:
    """Bundles the snapshot's threshold with the point's parameters."""

    name = "step-table"
    version = "1"

    def encode(self, artifacts, params):
        table = canon.canonical_decode(artifacts["table"])
        return canon.canonical_encode(
            {
                "threshold": table["threshold"],
                "x": params["x"],
                "gain": params.get("gain", "1"),
                "version": canon.SCHEMA_VERSION,
            }
        )


class CountingFactory(StepFactory):
    def __init__(self):
        self.calls = 0

    def encode(self, artifacts, params):
        self.calls += 1
        return super().encode(artifacts, params)


class FlakyFactory(StepFactory):
    """Encodes honestly for its first ``steady`` calls, then something
    different every call; must be refused."""

    def __init__(self, steady=0):
        self.steady = steady
        self.calls = 0

    def encode(self, artifacts, params):
        self.calls += 1
        if self.calls <= self.steady:
            return super().encode(artifacts, params)
        return canon.canonical_encode(
            {"nonce": self.calls, "version": canon.SCHEMA_VERSION}
        )


class DriftedFactory(StepFactory):
    """Same (name, version) as StepFactory, other bytes for every point."""

    def encode(self, artifacts, params):
        return super().encode(artifacts, {**params, "gain": "2"})


class StepEngine:
    """Labels x * gain as lo / hi around the threshold.

    ``refuse`` lists x values the engine fails on; ``malformed`` lists x
    values it answers with a list instead of a mapping; ``peak_at`` adds a
    third label at and above that value, for multi-region intervals.
    """

    name = "step-compare"
    version = "1"

    def __init__(self, refuse=(), malformed=(), peak_at=None):
        self.refuse = frozenset(refuse)
        self.malformed = frozenset(malformed)
        self.peak_at = peak_at

    def evaluate(self, representation, query):
        rep = canon.canonical_decode(representation)
        if rep["x"] in self.refuse:
            raise EngineFailure(f"engine refuses x={rep['x']}")
        if rep["x"] in self.malformed:
            return [rep["x"]]
        value = Decimal(rep["x"]) * Decimal(rep["gain"])
        if self.peak_at is not None and value >= Decimal(self.peak_at):
            label = "peak"
        elif value >= Decimal(rep["threshold"]):
            label = "hi"
        else:
            label = "lo"
        # Echoing x keeps each point's raw output distinct, so blob
        # sharing never couples test entries to each other.
        return {
            "label": label,
            "x": rep["x"],
            "echo": query,
            "version": canon.SCHEMA_VERSION,
        }


class CountingEngine(StepEngine):
    """A StepEngine that lists the x of every point it evaluates."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.evaluated = []

    def evaluate(self, representation, query):
        raw = super().evaluate(representation, query)
        self.evaluated.append(raw["x"])
        return raw


class DriftedEngine(StepEngine):
    """Same (name, version) as StepEngine, each label swapped for the other."""

    def evaluate(self, representation, query):
        raw = super().evaluate(representation, query)
        return {**raw, "label": {"lo": "hi", "hi": "lo"}[raw["label"]]}


def toy_plugins(factory=None, engine=None):
    """The toy pair as a registry for replay's re-execution."""
    return replay.Plugins(
        {("step-table", "1"): factory or StepFactory()},
        {("step-compare", "1"): engine or StepEngine()},
    )


def setup_world(st, threshold="5"):
    """Freeze the threshold table and persist the label policy."""
    snap = sweep.freeze_snapshot(st, {"table": {"threshold": threshold}}, WINDOW)
    pol_id = persist_policy(st, EquivalencePolicy(hash_source=("label",)))
    return snap, pol_id


def make_plan(st, snap, pol_id, xs=("1", "3", "7", "9"), fixed=None, experiment="exp", axes=None):
    return sweep.plan_sweep(
        st,
        snapshot_id=snap.snapshot_id,
        factory_name="step-table",
        factory_version="1",
        axes=axes if axes is not None else [sweep.Axis(param="x", values=tuple(xs))],
        fixed_params=fixed if fixed is not None else {},
        engine_name="step-compare",
        engine_version="1",
        query={"q": 1},
        policy_id=pol_id,
        experiment_id=experiment,
    )


def run_plan(st, plan, engine=None):
    sweep.declare_representations(st, plan, StepFactory())
    return sweep.execute_sweep(st, plan, engine or StepEngine())
