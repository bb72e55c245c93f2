"""Canonical JSON wire format and content-derived identifiers.

The canonical form is the single source of truth for every identifier in
the store: object keys sorted by their UTF-8 byte sequence, no
whitespace, literal UTF-8 output with only the JSON-mandatory escapes,
and fractional numbers carried as decimal strings so binary floats never
touch the hashed bytes.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections.abc import Mapping
from decimal import Decimal
from typing import Any, Optional, Union

from .errors import CanonicalizationError, IdentifierFormatError, ValidationError

# Schema version stamped into every content-addressed payload this
# package builds. Bump only with a migration story.
SCHEMA_VERSION = "1"

# Registered identifier prefixes, one per addressable entity kind.
PREFIXES = ("snap", "repr", "run", "dec", "pol", "plan")

DIGEST_LENGTH = 16

# Matched with ``fullmatch``: ``$`` would also accept a trailing newline.
_IDENTIFIER_RE = re.compile(r"(%s)_([0-9a-f]{16})" % "|".join(PREFIXES))
_PAYLOAD_HASH_RE = re.compile(r"[0-9a-f]{16}")

CanonicalValue = Union[None, bool, int, str, list, tuple, dict[str, Any]]


class Identifier(str):
    """Typed content-derived key that is its own text, ``<prefix>_<16 hex
    chars>``: built from its two parts, which are checked."""

    __slots__ = ()

    def __new__(cls, prefix: str, digest16: str) -> "Identifier":
        if prefix not in PREFIXES:
            raise IdentifierFormatError(f"unregistered identifier prefix: {prefix!r}")
        if not _PAYLOAD_HASH_RE.fullmatch(digest16):
            raise IdentifierFormatError(
                f"identifier digest must be {DIGEST_LENGTH} lowercase hex chars, got {digest16!r}"
            )
        return str.__new__(cls, f"{prefix}_{digest16}")

    @property
    def prefix(self) -> str:
        return self[: -DIGEST_LENGTH - 1]

    @property
    def digest16(self) -> str:
        return self[-DIGEST_LENGTH:]

    def __getnewargs__(self) -> tuple[str, str]:
        # pickle and copy rebuild an identifier from its parts, not its text.
        return self.prefix, self.digest16


_KINDS = dict(snap="snapshot", repr="representation", run="engine run",
              dec="decision", pol="policy", plan="plan")


def parse_identifier(value: str, prefix: Optional[str] = None) -> Identifier:
    """Parse an identifier's text; an Identifier passes through as is.

    Anything else, a string that is not ``<prefix>_<16 hex chars>`` or a
    value that is not a string, raises IdentifierFormatError. When
    ``prefix`` is given, a well-formed identifier of another kind raises
    ValidationError.
    """
    if not isinstance(value, Identifier):
        if not isinstance(value, str) or _IDENTIFIER_RE.fullmatch(value) is None:
            raise IdentifierFormatError(f"malformed identifier: {value!r}")
        # Checked just above, so Identifier's own checks are skipped.
        value = str.__new__(Identifier, value)
    if prefix is not None and value.prefix != prefix:
        raise ValidationError(f"not a {_KINDS[prefix]} identifier: {value}")
    return value


def is_payload_hash(text: str) -> bool:
    """True if text is a bare 16-hex-char content hash."""
    return isinstance(text, str) and _PAYLOAD_HASH_RE.fullmatch(text) is not None


_PLAIN_SCALARS = frozenset((str, Identifier, int, bool, type(None)))


def _is_plain(value: Any) -> bool:
    """True if the tree holds only exact dict/list/tuple/str/Identifier/
    int/bool/None with str keys: the common case, checked without
    building paths.

    Anything else, valid or not, is left to _validate.
    """
    kind = type(value)
    if kind is dict:
        for key in value:
            if type(key) is not str:
                return False
        value = value.values()
    elif kind is not list and kind is not tuple:
        return kind in _PLAIN_SCALARS
    for item in value:
        kind = type(item)
        if kind in _PLAIN_SCALARS:
            continue
        if (kind is dict or kind is list or kind is tuple) and _is_plain(item):
            continue
        return False
    return True


def _validate(value: Any, path: str) -> None:
    if value is None or isinstance(value, bool):
        return
    if isinstance(value, float):
        raise CanonicalizationError(
            f"binary float at {path}; fractional numbers must be decimal strings"
        )
    if isinstance(value, int):
        return
    if isinstance(value, str):
        return
    if isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _validate(item, f"{path}[{i}]")
        return
    # Only dicts: the JSON encoder writes no other mapping.
    if isinstance(value, dict):
        for key in value:
            if not isinstance(key, str):
                raise CanonicalizationError(
                    f"non-string mapping key {key!r} at {path}"
                )
            _validate(value[key], f"{path}.{key}")
        return
    raise CanonicalizationError(
        f"type {type(value).__name__} at {path} has no canonical form"
    )


# CPython's C encoder, built once with the settings of
# ``JSONEncoder(ensure_ascii=False, sort_keys=True, separators=(",", ":"),
# allow_nan=False)``, whose ``encode`` builds a new one on every call.
# Validation refuses every value the encoder would pass to ``default``,
# and recursion stops a value that contains itself, before either gets
# here, so ``default`` is never called and no circular check is needed.
_iterencode = json.encoder.c_make_encoder(
    None, json.JSONEncoder().default, json.encoder.encode_basestring,
    None, ":", ",", True, False, False,
)


def canonical_encode(value: CanonicalValue) -> bytes:
    """Encode a canonical value tree to its unique UTF-8 byte sequence.

    Mapping key insertion order never affects the output; keys are sorted
    by code point, which is identical to byte-wise UTF-8 order.
    """
    try:
        if not _is_plain(value):
            _validate(value, "$")
        return "".join(_iterencode(value, 0)).encode("utf-8")
    except UnicodeEncodeError as exc:
        raise CanonicalizationError(f"text is not encodable as UTF-8: {exc}") from exc
    except RecursionError as exc:
        raise CanonicalizationError(f"value nests too deeply or contains itself: {exc}") from exc


def _reject_float(text: str):
    raise CanonicalizationError(
        f"fractional number literal {text!r} in canonical input; decimals must be strings"
    )


def _reject_constant(text: str):
    raise CanonicalizationError(f"non-finite number literal {text!r} in canonical input")


def _object_pairs(pairs):
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise CanonicalizationError(f"duplicate mapping key {key!r}")
            seen.add(key)
    return obj


# One decoder for every call; ``json.loads`` would build one per call.
_DECODER = json.JSONDecoder(
    object_pairs_hook=_object_pairs,
    parse_float=_reject_float,
    parse_constant=_reject_constant,
)


def canonical_decode(data: bytes) -> CanonicalValue:
    """Decode canonical bytes back into a value tree.

    Rejects duplicate keys and any number with a fractional or non-finite
    literal, since those have no canonical representation, and input
    nested deeper than the interpreter can decode.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CanonicalizationError(f"input is not valid UTF-8: {exc}") from exc
    try:
        if text.startswith("\ufeff"):
            # The check json.loads makes before decoding, same message.
            raise json.JSONDecodeError(
                "Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0
            )
        return _DECODER.decode(text)
    except CanonicalizationError:
        raise
    except ValueError as exc:
        raise CanonicalizationError(f"input is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise CanonicalizationError(f"input nests too deeply: {exc}") from exc


class EncodedList:
    """A JSON list kept as each item's canonical encoding, made as each
    item is appended. ``write_canonical`` copies the encodings unchanged;
    iterating decodes one item at a time."""

    __slots__ = ("items",)

    def __init__(self):
        self.items: list[bytes] = []

    def append(self, value: CanonicalValue) -> None:
        self.items.append(canonical_encode(value))

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return map(canonical_decode, self.items)

    def __eq__(self, other) -> bool:
        return type(other) is EncodedList and self.items == other.items


def write_canonical(value: Mapping[str, Any], stream) -> None:
    """Write a mapping's canonical encoding to a text stream, one member at
    a time; an ``EncodedList`` member is written as the list of its items.

    The text is ``canonical_encode`` of the same mapping with each
    ``EncodedList`` decoded. Every other member is encoded, and refused as
    ``canonical_encode`` refuses it, before anything is written.
    """
    for key in value:
        if not isinstance(key, str):
            raise CanonicalizationError(f"non-string mapping key {key!r} at $")
    members = [
        (canonical_encode(key), member)
        if type(member) is EncodedList
        # "key":value, as the whole mapping's encoding spells the member
        else (canonical_encode({key: member})[1:-1], None)
        for key, member in sorted(value.items())
    ]
    stream.write("{")
    for n, (head, spooled) in enumerate(members):
        stream.write(("," if n else "") + head.decode("utf-8"))
        if spooled is not None:
            stream.write(":[")
            for i, item in enumerate(spooled.items):
                stream.write(("," if i else "") + item.decode("utf-8"))
            stream.write("]")
    stream.write("}")


def payload_hash(data: bytes) -> str:
    """First 16 hex chars of the SHA-256 digest of raw bytes."""
    return hashlib.sha256(data).hexdigest()[:DIGEST_LENGTH]


def content_id(prefix: str, payload: Mapping[str, Any]) -> Identifier:
    """Derive the identifier for a payload: hash its canonical encoding.

    Every content-addressed payload must carry an explicit ``version``
    field; a missing one is an error rather than an implicit default.
    """
    if prefix not in PREFIXES:
        raise IdentifierFormatError(f"unregistered identifier prefix: {prefix!r}")
    if not isinstance(payload, Mapping):
        raise CanonicalizationError(
            f"content-addressed payload must be a mapping, got {type(payload).__name__}"
        )
    if "version" not in payload:
        raise CanonicalizationError("content-addressed payload is missing a version field")
    # The prefix is checked above and a hex digest is well formed.
    return str.__new__(Identifier, f"{prefix}_{payload_hash(canonical_encode(payload))}")


def decimal_string(value: Decimal) -> str:
    """Render a Decimal in plain positional notation (never scientific)."""
    return format(value, "f")
