"""Equivalence policies: which part of a raw output *is* the decision.

A policy names a key path into the raw output, a canonicalization rule,
and a match rule. Two outputs carry the same decision exactly when the
canonical encodings of their extracted values hash identically, so
incidental fields (timings, costs, diagnostics) never influence
decision identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence, Union

from . import canon
from .canon import Identifier, SCHEMA_VERSION
from .errors import CanonicalizationError, ExtractionError, ValidationError
from .store import DecisionRecord, Store

CANONICALIZATION_RULES = ("canonical_json_utf8",)
MATCH_RULES = ("sha256_equality",)


@dataclass(frozen=True)
class EquivalencePolicy:
    hash_source: tuple[str, ...]
    canonicalization_rule: str = "canonical_json_utf8"
    match_rule: str = "sha256_equality"
    version: str = SCHEMA_VERSION

    def __post_init__(self):
        object.__setattr__(self, "hash_source", tuple(self.hash_source))
        if not self.hash_source:
            raise ValidationError("policy hash_source path must not be empty")
        for part in self.hash_source:
            if not isinstance(part, str) or not part:
                raise ValidationError(f"bad hash_source path element: {part!r}")
        if self.canonicalization_rule not in CANONICALIZATION_RULES:
            raise ValidationError(
                f"unknown canonicalization rule {self.canonicalization_rule!r}"
            )
        if self.match_rule not in MATCH_RULES:
            raise ValidationError(f"unknown match rule {self.match_rule!r}")

    def payload(self) -> dict:
        return {
            "hash_source": list(self.hash_source),
            "canonicalization_rule": self.canonicalization_rule,
            "match_rule": self.match_rule,
            "version": self.version,
        }

    @classmethod
    def from_payload(cls, payload: Any) -> "EquivalencePolicy":
        if not isinstance(payload, Mapping):
            raise ValidationError(f"policy payload is a {type(payload).__name__}, not a mapping")
        try:
            return cls(
                hash_source=tuple(payload["hash_source"]),
                canonicalization_rule=payload["canonicalization_rule"],
                match_rule=payload["match_rule"],
                version=payload["version"],
            )
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed policy payload: {exc}") from exc


def policy_identifier(policy: EquivalencePolicy) -> Identifier:
    return canon.content_id("pol", policy.payload())


def dotted(path: Sequence[str]) -> str:
    return ".".join(path)


def extracted_hash(raw: Any, policy: EquivalencePolicy) -> str:
    """Resolve the policy's key path in a raw output and hash the value."""
    value: Any = raw
    for i, part in enumerate(policy.hash_source):
        if not isinstance(value, Mapping) or part not in value:
            raise ExtractionError(
                f"hash_source path {dotted(policy.hash_source)!r} does not resolve: "
                f"missing {dotted(policy.hash_source[: i + 1])!r}"
            )
        value = value[part]
    try:
        encoded = canon.canonical_encode(value)
    except CanonicalizationError as exc:
        raise CanonicalizationError(
            f"value at {dotted(policy.hash_source)!r} is not canonical: {exc}"
        ) from exc
    return canon.payload_hash(encoded)


def extract_decision(raw: Mapping[str, Any], policy: EquivalencePolicy) -> DecisionRecord:
    """The decision record a policy assigns to one raw output."""
    return DecisionRecord.create(policy_identifier(policy), extracted_hash(raw, policy))


def persist_policy(store: Store, policy: EquivalencePolicy) -> Identifier:
    """Store the policy payload as a blob addressed by its own identifier.

    Verification audits reload the rule from here, so a store is
    self-contained: no external policy files are needed to replay.
    """
    ident = policy_identifier(policy)
    ref = store.put_blob(canon.canonical_encode(policy.payload()))
    assert ref.hash == ident.digest16
    return ident


def load_policy(store: Store, policy_id: Union[str, Identifier]) -> EquivalencePolicy:
    if isinstance(policy_id, str):
        policy_id = Identifier.parse(policy_id)
    if policy_id.prefix != "pol":
        raise ValidationError(f"not a policy identifier: {policy_id}")
    data = store.get_blob(policy_id.digest16)
    return EquivalencePolicy.from_payload(canon.canonical_decode(data))
