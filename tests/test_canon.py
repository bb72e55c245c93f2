import io
import json
import random
import types
from collections import OrderedDict
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decisiondb import canon
from decisiondb.errors import CanonicalizationError, IdentifierFormatError

import payload_gen

FIXTURES = Path(__file__).parent / "fixtures"

with open(FIXTURES / "canon_vectors.json", encoding="utf-8") as fh:
    VECTORS = json.load(fh)


# Independent reference encoder: builds the canonical bytes by hand,
# sorting keys by their UTF-8 byte sequence, without touching json.dumps.
def _ref_string(s: str) -> bytes:
    out = ['"']
    for ch in s:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ch == "\b":
            out.append("\\b")
        elif ch == "\f":
            out.append("\\f")
        elif ch == "\n":
            out.append("\\n")
        elif ch == "\r":
            out.append("\\r")
        elif ch == "\t":
            out.append("\\t")
        elif ord(ch) < 0x20:
            out.append("\\u%04x" % ord(ch))
        else:
            out.append(ch)
    out.append('"')
    return "".join(out).encode("utf-8")


def _ref_encode(value) -> bytes:
    if value is None:
        return b"null"
    if value is True:
        return b"true"
    if value is False:
        return b"false"
    if isinstance(value, int):
        return str(value).encode("ascii")
    if isinstance(value, str):
        return _ref_string(value)
    if isinstance(value, (list, tuple)):
        return b"[" + b",".join(_ref_encode(v) for v in value) + b"]"
    if isinstance(value, dict):
        items = sorted(value.items(), key=lambda kv: kv[0].encode("utf-8"))
        return (
            b"{"
            + b",".join(_ref_string(k) + b":" + _ref_encode(v) for k, v in items)
            + b"}"
        )
    raise AssertionError(f"unexpected type {type(value)}")


@pytest.mark.parametrize("vector", VECTORS, ids=[v["name"] for v in VECTORS])
def test_frozen_vector_bytes(vector):
    assert canon.canonical_encode(vector["payload"]) == vector["expected_text"].encode("utf-8")


@pytest.mark.parametrize("vector", VECTORS, ids=[v["name"] for v in VECTORS])
def test_frozen_vector_identifier(vector):
    got = canon.content_id(vector["prefix"], vector["payload"])
    assert str(got) == vector["expected_identifier"]


@pytest.mark.parametrize("vector", VECTORS, ids=[v["name"] for v in VECTORS])
def test_frozen_vector_decode_round_trip(vector):
    data = vector["expected_text"].encode("utf-8")
    assert canon.canonical_decode(data) == vector["payload"]
    assert canon.canonical_encode(canon.canonical_decode(data)) == data


def test_empty_input_hash_prefix():
    # First 16 hex chars of sha256 of zero bytes, a fixed point of the scheme.
    assert canon.payload_hash(b"") == "e3b0c44298fc1c14"


def test_reference_encoder_agreement_on_random_payloads():
    rng = random.Random(20260822)
    for _ in range(300):
        payload = payload_gen.random_payload(rng)
        assert canon.canonical_encode(payload) == _ref_encode(payload)


def test_key_insertion_order_never_changes_identifier():
    rng_a = random.Random(991)
    rng_b = random.Random(991)
    for _ in range(200):
        pa = payload_gen.random_payload(rng_a, key_order="sorted")
        pb = payload_gen.random_payload(rng_b, key_order="reversed")
        assert list(pa) != list(pb) or len(pa) == 1
        assert canon.content_id("snap", pa) == canon.content_id("snap", pb)


def test_single_field_mutation_changes_identifier():
    rng = random.Random(4242)
    seen = set()
    for _ in range(1000):
        payload = payload_gen.random_payload(rng)
        base = canon.content_id("dec", payload)
        mutated = dict(payload)
        mutated["version"] = "1-mutated"
        assert canon.content_id("dec", mutated) != base
        seen.add(str(base))
    # Random payloads should essentially never collide at 64 bits.
    assert len(seen) > 990


_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=20
)
_scalars = st.none() | st.booleans() | st.integers() | _text
_values = st.recursive(
    _scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(_text, children, max_size=4),
    max_leaves=10,
)
_payloads = st.dictionaries(_text, _values, max_size=5).map(
    lambda d: {**d, "version": "1"}
)


@settings(max_examples=200)
@given(_payloads)
def test_encode_decode_round_trip(payload):
    data = canon.canonical_encode(payload)
    assert canon.canonical_decode(data) == payload
    assert canon.canonical_encode(canon.canonical_decode(data)) == data


@settings(max_examples=200)
@given(_payloads)
def test_encode_matches_reference(payload):
    assert canon.canonical_encode(payload) == _ref_encode(payload)


@settings(max_examples=300)
@given(_values | _values.map(lambda v: [v, (v,)]))
def test_encode_matches_json_dumps_on_plain_trees(value):
    # The encoder built once at import writes what json.dumps writes.
    expected = json.dumps(value, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    assert canon.canonical_encode(value) == expected.encode()


@pytest.mark.parametrize(
    "value, message",
    [
        ({"w": 0.25}, "binary float at $.w; fractional numbers must be decimal strings"),
        (1.5, "binary float at $; fractional numbers must be decimal strings"),
        ({"a": [float("nan")]}, "binary float at $.a[0]; fractional numbers must be decimal strings"),
        (float("inf"), "binary float at $; fractional numbers must be decimal strings"),
        ({"a": {1: "x"}}, "non-string mapping key 1 at $.a"),
        ({(1, 2): "x"}, "non-string mapping key (1, 2) at $"),
        (
            {"s": "\ud800"},
            "text is not encodable as UTF-8: 'utf-8' codec can't encode character "
            "'\\ud800' in position 6: surrogates not allowed",
        ),
    ],
)
def test_refusal_messages_are_unchanged(value, message):
    with pytest.raises(CanonicalizationError) as raised:
        canon.canonical_encode(value)
    assert str(raised.value) == message


def _written(value) -> str:
    out = io.StringIO()
    canon.write_canonical(value, out)
    return out.getvalue()


@settings(max_examples=200)
@given(_payloads, st.lists(_values, max_size=4), _text)
def test_writer_copies_encoded_lists_into_the_encoding(payload, items, key):
    # A member written from an EncodedList is the list its items make.
    spooled = canon.EncodedList()
    for item in items:
        spooled.append(item)
    assert list(spooled) == [canon.canonical_decode(canon.canonical_encode(i)) for i in items]
    assert _written(payload) == canon.canonical_encode(payload).decode("utf-8")
    expected = canon.canonical_encode({**payload, key: items}).decode("utf-8")
    assert _written({**payload, key: spooled}) == expected


@pytest.mark.parametrize(
    "value, message",
    [
        ({"a": "x", "w": [0.25]}, "binary float at $.w[0]; fractional numbers must be decimal strings"),
        ({"a": "x", 1: "y"}, "non-string mapping key 1 at $"),
    ],
)
def test_writer_refuses_before_writing(value, message):
    out = io.StringIO()
    with pytest.raises(CanonicalizationError) as raised:
        canon.write_canonical(value, out)
    assert str(raised.value) == message and out.getvalue() == ""


_OPAQUE = object()
_mixed = st.recursive(
    _scalars | st.floats() | st.just(_OPAQUE),
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(_text, children, max_size=4).map(OrderedDict)
    | st.dictionaries(_text | st.integers() | st.booleans(), children, max_size=4),
    max_leaves=12,
)


@settings(max_examples=300)
@given(_mixed)
def test_encode_agrees_with_path_tracking_validation(value):
    # canonical_encode checks the common exact types without building
    # paths; whatever it accepts or rejects must match _validate alone.
    try:
        canon._validate(value, "$")
    except CanonicalizationError as exc:
        with pytest.raises(CanonicalizationError) as raised:
            canon.canonical_encode(value)
        assert str(raised.value) == str(exc)
    else:
        assert canon.canonical_encode(value) == _ref_encode(value)


@given(st.integers(), st.integers())
def test_distinct_ints_distinct_ids(a, b):
    ia = canon.content_id("run", {"n": a, "version": "1"})
    ib = canon.content_id("run", {"n": b, "version": "1"})
    assert (ia == ib) == (a == b)


def test_same_payload_different_prefix_differs():
    payload = {"version": "1", "x": 3}
    a = canon.content_id("snap", payload)
    b = canon.content_id("repr", payload)
    assert a.digest16 == b.digest16
    assert str(a) != str(b)


def test_missing_version_rejected():
    with pytest.raises(CanonicalizationError):
        canon.content_id("snap", {"x": 1})


def test_non_mapping_payload_rejected():
    with pytest.raises(CanonicalizationError):
        canon.content_id("snap", ["version", "1"])


def test_float_rejected():
    with pytest.raises(CanonicalizationError):
        canon.canonical_encode({"w": 0.25, "version": "1"})
    with pytest.raises(CanonicalizationError):
        canon.canonical_encode({"w": float("nan"), "version": "1"})


def test_non_string_key_rejected():
    with pytest.raises(CanonicalizationError):
        canon.canonical_encode({1: "x", "version": "1"})


def test_unencodable_object_rejected():
    with pytest.raises(CanonicalizationError):
        canon.canonical_encode({"v": object(), "version": "1"})


def test_mapping_that_is_not_a_dict_rejected():
    # The JSON encoder writes dicts (subclasses included) and no other mapping.
    with pytest.raises(
        CanonicalizationError, match=r"^type mappingproxy at \$\.m has no canonical form$"
    ):
        canon.canonical_encode({"m": types.MappingProxyType({"a": 1})})
    with pytest.raises(CanonicalizationError, match=r"type mappingproxy at \$ has"):
        canon.canonical_encode(types.MappingProxyType({"a": 1}))
    assert canon.canonical_encode(OrderedDict([("b", 1), ("a", 2)])) == b'{"a":2,"b":1}'


def test_surrogate_text_rejected():
    with pytest.raises(CanonicalizationError):
        canon.canonical_encode({"s": "\ud800", "version": "1"})


def test_decode_duplicate_key_rejected():
    with pytest.raises(CanonicalizationError):
        canon.canonical_decode(b'{"a":1,"a":2}')


def test_decode_nested_duplicate_key_named():
    with pytest.raises(CanonicalizationError, match="^duplicate mapping key 'b'$"):
        canon.canonical_decode(b'{"a":{"b":1,"b":2}}')


def test_decode_byte_order_mark_rejected():
    with pytest.raises(CanonicalizationError, match="BOM"):
        canon.canonical_decode(b'\xef\xbb\xbf{"a":1}')


def test_decode_float_literal_rejected():
    with pytest.raises(CanonicalizationError):
        canon.canonical_decode(b'{"v":1.5}')


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_decode_non_finite_literal_rejected(literal):
    message = f"^non-finite number literal '{literal}' in canonical input$"
    with pytest.raises(CanonicalizationError, match=message):
        canon.canonical_decode(f'{{"v":{literal}}}'.encode())


def test_decode_invalid_json_rejected():
    with pytest.raises(CanonicalizationError):
        canon.canonical_decode(b'{"v":')
    with pytest.raises(CanonicalizationError):
        canon.canonical_decode(b"\xff\xfe")


def nested(depth, leaf=1):
    """A list holding a list ... ``depth`` deep, built without recursion."""
    value = leaf
    for _ in range(depth):
        value = [value]
    return value


@pytest.mark.parametrize("opener, closer", [("[", "]"), ('{"a":', "}")], ids=["array", "object"])
def test_decode_of_deep_nesting_refused(opener, closer):
    # Deeper than any supported interpreter decodes: from 3.12 on, the C
    # scanner counts depth against its own limit (10,000 in 3.13), not
    # sys.getrecursionlimit().
    data = (opener * 100_000 + "1" + closer * 100_000).encode()
    with pytest.raises(CanonicalizationError, match="^input nests too deeply: "):
        canon.canonical_decode(data)


def test_encode_of_deep_nesting_refused():
    itself = []
    itself.append(itself)
    mapping = {}
    mapping["self"] = mapping
    for value in (nested(5000), itself, mapping, {"a": [nested(5000)]}):
        with pytest.raises(CanonicalizationError, match="^value nests too deeply or contains itself: "):
            canon.canonical_encode(value)


def test_tuple_encodes_as_sequence():
    assert canon.canonical_encode((1, 2)) == b"[1,2]"


def test_identifier_parse_and_render():
    ident = canon.parse_identifier("snap_aa5bc61f44d5f633")
    assert ident.prefix == "snap"
    assert ident.digest16 == "aa5bc61f44d5f633"
    assert str(ident) == "snap_aa5bc61f44d5f633"


@pytest.mark.parametrize(
    "bad",
    [
        "zzz_aa5bc61f44d5f633",
        "snap-aa5bc61f44d5f633",
        "snap_AA5BC61F44D5F633",
        "snap_aa5bc61f44d5f63",
        "snap_aa5bc61f44d5f6333",
        "snap_",
        "",
        123,
        None,
        b"snap_aa5bc61f44d5f633",
    ],
)
def test_identifier_malformed_rejected(bad):
    with pytest.raises(IdentifierFormatError):
        canon.parse_identifier(bad)
    with pytest.raises(IdentifierFormatError):
        canon.parse_identifier(bad, "snap")


@pytest.mark.parametrize("tail", ["\n", "\r\n", " "], ids=["newline", "crlf", "space"])
def test_identifier_with_trailing_text_rejected(tail):
    with pytest.raises(IdentifierFormatError):
        canon.parse_identifier("snap_aa5bc61f44d5f633" + tail)
    with pytest.raises(IdentifierFormatError):
        canon.Identifier("snap", "aa5bc61f44d5f633" + tail)
    assert not canon.is_payload_hash("aa5bc61f44d5f633" + tail)
    assert canon.is_payload_hash("aa5bc61f44d5f633")


def test_unregistered_prefix_rejected():
    with pytest.raises(IdentifierFormatError):
        canon.content_id("blob", {"version": "1"})
    with pytest.raises(IdentifierFormatError):
        canon.Identifier("blob", "aa5bc61f44d5f633")


@settings(max_examples=300)
@given(st.integers(0, 2**32 - 1))
def test_shared_encoder_matches_json_dumps(seed):
    payload = payload_gen.random_payload(random.Random(seed))
    expected = json.dumps(
        payload, ensure_ascii=False, sort_keys=True, separators=(",", ":"), allow_nan=False
    ).encode("utf-8")
    assert canon.canonical_encode(payload) == expected


@settings(max_examples=300)
@given(st.integers(0, 2**32 - 1), st.sampled_from(canon.PREFIXES))
def test_unchecked_identifiers_equal_validated_ones(seed, prefix):
    # content_id and parse_identifier skip Identifier's own checks; what
    # they build must be indistinguishable from a validated Identifier.
    derived = canon.content_id(prefix, payload_gen.random_payload(random.Random(seed)))
    validated = canon.Identifier(prefix, derived.digest16)
    for ident in (derived, canon.parse_identifier(str(derived))):
        assert type(ident) is canon.Identifier
        assert (ident.prefix, ident.digest16) == (prefix, validated.digest16)
        assert ident == validated and hash(ident) == hash(validated)
        assert str(ident) == str(validated) and repr(ident) == repr(validated)
        with pytest.raises(AttributeError):
            ident.prefix = "snap"
        assert ident == str(ident)
        assert hash(ident) == hash(str(ident))
        assert {str(ident): 1}[ident] == 1
        assert canon.canonical_encode({"id": ident}) == canon.canonical_encode({"id": str(ident)})


@settings(max_examples=300)
@given(
    st.sampled_from(canon.PREFIXES),
    st.text("0123456789abcdef", min_size=16, max_size=16),
    st.sampled_from(("replace", "delete", "append")),
    st.integers(0, 100),
    st.sampled_from("Ag-_ .Z"),
)
def test_malformed_identifier_message_is_unchanged(prefix, digest, how, at, char):
    good = f"{prefix}_{digest}"
    at %= len(good)
    if how == "replace":
        bad = good[:at] + char + good[at + 1:]
    elif how == "delete":
        bad = good[:at] + good[at + 1:]
    else:
        bad = good + digest[at % 16]
    if bad == good:  # "_" put back in its own place
        return
    with pytest.raises(IdentifierFormatError) as raised:
        canon.parse_identifier(bad)
    assert str(raised.value) == f"malformed identifier: {bad!r}"


def test_decimal_string_never_scientific():
    assert canon.decimal_string(Decimal("0.0000001")) == "0.0000001"
    assert canon.decimal_string(Decimal("1E+3")) == "1000"
    assert canon.decimal_string(Decimal("12.500000000000")) == "12.500000000000"
