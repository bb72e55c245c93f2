import pytest
from hypothesis import given
from hypothesis import strategies as st

from decisiondb import canon, policy
from decisiondb.errors import (
    CanonicalizationError,
    ExtractionError,
    ReferentialError,
    ValidationError,
)
from decisiondb.policy import EquivalencePolicy
from decisiondb.store import DecisionRecord, open_store


@pytest.fixture
def route_policy():
    return EquivalencePolicy(hash_source=("route_nodes",))


def test_policy_identifier_shape(route_policy):
    ident = policy.policy_identifier(route_policy)
    assert ident.prefix == "pol"
    assert len(ident.digest16) == 16
    assert ident == policy.policy_identifier(route_policy)


def test_policy_identifier_ignores_construction_details():
    a = EquivalencePolicy(hash_source=("a", "b"))
    b = EquivalencePolicy(hash_source=["a", "b"])
    assert policy.policy_identifier(a) == policy.policy_identifier(b)


def test_unknown_rules_rejected():
    payload = EquivalencePolicy(hash_source=("x",)).payload()
    with pytest.raises(ValidationError, match="^unknown canonicalization rule 'yaml_sorted'$"):
        EquivalencePolicy.from_payload({**payload, "canonicalization_rule": "yaml_sorted"})
    with pytest.raises(ValidationError, match="^unknown match rule 'md5_equality'$"):
        EquivalencePolicy.from_payload({**payload, "match_rule": "md5_equality"})
    with pytest.raises(ValidationError):
        EquivalencePolicy(hash_source=())
    with pytest.raises(ValidationError):
        EquivalencePolicy(hash_source=("ok", ""))


def test_extract_ignores_fields_outside_hash_source(route_policy):
    raw_a = {"route_nodes": [1, 2, 3], "total_cost": "10.5", "version": "1"}
    raw_b = {"route_nodes": [1, 2, 3], "total_cost": "99.9", "version": "1"}
    ia = policy.extract_decision(raw_a, route_policy)
    ib = policy.extract_decision(raw_b, route_policy)
    assert ia == ib
    assert ia.decision_id == ib.decision_id


def test_extract_differs_when_value_differs(route_policy):
    ia = policy.extract_decision({"route_nodes": [1, 2, 3], "version": "1"}, route_policy)
    ib = policy.extract_decision({"route_nodes": [1, 2, 4], "version": "1"}, route_policy)
    assert ia.decision_id != ib.decision_id


def test_extract_nested_path():
    pol = EquivalencePolicy(hash_source=("result", "winner"))
    identity = policy.extract_decision(
        {"result": {"winner": "blue", "margin": "0.01"}, "version": "1"}, pol
    )
    assert identity.payload_hash == canon.payload_hash(canon.canonical_encode("blue"))


def test_extract_missing_path_names_it(route_policy):
    with pytest.raises(ExtractionError) as err:
        policy.extract_decision({"other": 1, "version": "1"}, route_policy)
    assert "route_nodes" in str(err.value)
    nested = EquivalencePolicy(hash_source=("a", "b", "c"))
    with pytest.raises(ExtractionError) as err:
        policy.extract_decision({"a": {"b": 5}, "version": "1"}, nested)
    assert "a.b.c" in str(err.value)


def test_extract_non_canonical_value_rejected(route_policy):
    with pytest.raises(CanonicalizationError):
        policy.extract_decision({"route_nodes": [0.5], "version": "1"}, route_policy)


def test_decision_id_recomputation_invariant(route_policy):
    identity = policy.extract_decision(
        {"route_nodes": [5, 6], "version": "1"}, route_policy
    )
    expected = canon.content_id(
        "dec",
        {
            "policy_id": str(identity.policy_id),
            "payload_hash": identity.payload_hash,
            "version": "1",
        },
    )
    assert identity.decision_id == expected


def test_same_decision_requires_same_policy():
    pol_a = EquivalencePolicy(hash_source=("x",))
    pol_b = EquivalencePolicy(hash_source=("y",))
    raw = {"x": 1, "y": 1, "version": "1"}
    ia = policy.extract_decision(raw, pol_a)
    ib = policy.extract_decision(raw, pol_b)
    # Same extracted value, different policies: not the same decision.
    assert ia.payload_hash == ib.payload_hash
    assert ia.policy_id != ib.policy_id
    assert ia.decision_id != ib.decision_id


def test_identity_is_policy_id_plus_payload_hash():
    pol_a = EquivalencePolicy(hash_source=("x",))
    one = policy.extract_decision({"x": [9], "version": "1"}, pol_a)
    assert DecisionRecord(None, one.policy_id, one.payload_hash).derived_id() == one.decision_id


@given(
    st.lists(st.text(alphabet="abcdef_", min_size=1, max_size=6), min_size=1, max_size=4),
    st.text(alphabet="0123456789", min_size=1, max_size=4),
)
def test_any_field_change_changes_policy_id(path, version):
    base = EquivalencePolicy(hash_source=("route_nodes",), version="1")
    other = EquivalencePolicy(hash_source=tuple(path), version=version)
    same_fields = tuple(path) == ("route_nodes",) and version == "1"
    assert (policy.policy_identifier(base) == policy.policy_identifier(other)) == same_fields


def test_persist_and_load_round_trip(tmp_path, route_policy):
    with open_store(tmp_path / "db") as store:
        ident = policy.persist_policy(store, route_policy)
        assert store.has_blob(ident.digest16)
        loaded = policy.load_policy(store, ident)
        assert loaded == route_policy
        assert policy.policy_identifier(loaded) == ident


def test_load_missing_policy(tmp_path):
    with open_store(tmp_path / "db") as store:
        ghost = canon.content_id("pol", {"version": "1", "n": 1})
        with pytest.raises(ReferentialError):
            policy.load_policy(store, ghost)


def test_load_rejects_non_policy_identifier(tmp_path):
    with open_store(tmp_path / "db") as store:
        with pytest.raises(ValidationError):
            policy.load_policy(store, canon.content_id("snap", {"version": "1"}))


def test_from_payload_rejects_malformed():
    with pytest.raises(ValidationError):
        EquivalencePolicy.from_payload({"hash_source": ["x"]})


def test_from_payload_rejects_a_non_mapping():
    with pytest.raises(ValidationError, match="^policy payload is a list, not a mapping$"):
        EquivalencePolicy.from_payload(["route_nodes"])
