"""Hash chain construction, file round-trip, and tamper evidence.

The chain rule is pinned against an independent hashlib walk and a frozen
golden head for a fixed three-entry history.
"""

import hashlib
import json
import struct

import pytest
from hypothesis import given, settings, strategies as st

import reference_decoding as ref
import tset.ledger
from tset.cli import EXIT_INVARIANT, main
from tset.ledger import (
    EVENTS,
    GENESIS,
    Ledger,
    LedgerEntry,
    LedgerIntegrityError,
    UnknownTransaction,
    dispute_report,
)

GOLDEN_HEAD = "4f2edb44ecfc84a5f08eb0938ba0ac08ff34b63266b6b40a1c7b6b1202f2eb49"
GOLDEN_FILE_SHA = (
    "841a34747dce9cb1d331f202bbb2912900a4124550b275cfee1f8aab536885d7")


def fixture_entries():
    return [
        LedgerEntry("C0-1", 7, "TTP0", "Deposit", "aa" * 32, "bb" * 32,
                    {"amount": 15000}),
        LedgerEntry("C0-1", 10, "TTP0", "Dispatch", "aa" * 32, "bb" * 32,
                    {"replacement": False}),
        LedgerEntry("C0-1", 11, "TTP0", "Accept", "aa" * 32, "bb" * 32, {}),
    ]


def fixture_ledger() -> Ledger:
    led = Ledger()
    for entry in fixture_entries():
        led.append(entry)
    return led


def test_chain_matches_independent_hash_walk():
    led = fixture_ledger()
    prev = GENESIS
    for entry in fixture_entries():
        body = {"txn": entry.txn, "tick": entry.tick, "actor": entry.actor,
                "event": entry.event, "token_digest": entry.token_digest,
                "oi_digest": entry.oi_digest, "details": entry.details}
        raw = json.dumps(body, sort_keys=True,
                         separators=(",", ":")).encode()
        prev = hashlib.sha256(prev + raw).digest()
    assert led.head == prev
    assert led.verify()


def test_entry_edited_after_append_shows_nowhere():
    entries = fixture_entries()
    led = Ledger()
    for entry in entries:
        led.append(entry)
    head = led.head
    blob = led.to_bytes()
    entries[0].details["amount"] = 1   # details is a plain dict
    assert led.verify() and led.head == head
    assert led.to_bytes() == blob
    assert led.entries[0].details == {"amount": 15000}
    report = dispute_report(led, "C0-1")
    assert report["chain_head"] == head.hex()
    assert report["entries"][0]["details"] == {"amount": 15000}
    reloaded = dispute_report(Ledger.from_bytes(led.to_bytes()), "C0-1")
    assert reloaded == report


def test_golden_head_and_file():
    led = fixture_ledger()
    assert led.head.hex() == GOLDEN_HEAD
    assert hashlib.sha256(led.to_bytes()).hexdigest() == GOLDEN_FILE_SHA


def test_empty_ledger_head_is_genesis():
    assert Ledger().head == GENESIS
    assert Ledger().verify()
    assert Ledger.from_bytes(b"").head == GENESIS


def test_file_roundtrip(tmp_path):
    led = fixture_ledger()
    path = tmp_path / "ledger.bin"
    led.save(path)
    loaded = Ledger.load(path)
    assert loaded.entries == led.entries
    assert loaded.head == led.head


def test_record_framing():
    led = fixture_ledger()
    blob = led.to_bytes()
    (length,) = struct.unpack_from(">I", blob, 0)
    raw = blob[4:4 + length]
    stored = blob[4 + length:4 + length + 32]
    assert hashlib.sha256(GENESIS + raw).digest() == stored
    assert LedgerEntry.from_bytes(raw) == fixture_entries()[0]


def test_any_single_byte_flip_is_detected():
    blob = fixture_ledger().to_bytes()
    for pos in range(len(blob)):
        mutated = bytearray(blob)
        mutated[pos] ^= 0x01
        with pytest.raises(LedgerIntegrityError):
            Ledger.from_bytes(bytes(mutated))


def test_truncation_is_detected():
    blob = fixture_ledger().to_bytes()
    for cut in (1, 3, 10, len(blob) - 1):
        with pytest.raises(LedgerIntegrityError):
            Ledger.from_bytes(blob[:cut])


def canonical(body) -> bytes:
    return json.dumps(body, sort_keys=True, separators=(",", ":")).encode()


def rechain(bodies) -> bytes:
    """A ledger file with valid links over arbitrary JSON entry bodies; a
    body given as bytes is taken as the entry bytes themselves."""
    prev, out = GENESIS, []
    for body in bodies:
        raw = body if isinstance(body, bytes) else canonical(body)
        prev = hashlib.sha256(prev + raw).digest()
        out += [struct.pack(">I", len(raw)), raw, prev]
    return b"".join(out)


@pytest.mark.parametrize("field,value", [
    ("txn", []), ("tick", True), ("tick", 1.5), ("actor", None),
    ("details", [1]), ("event", 1), ("token_digest", 0), ("oi_digest", {}),
])
def test_mistyped_entry_with_valid_links_is_refused(field, value, tmp_path,
                                                    capsys):
    body = json.loads(fixture_entries()[0].to_bytes())
    body[field] = value
    blob = rechain([body])
    named = f"ledger entry field {field!r} must be"
    with pytest.raises(LedgerIntegrityError, match=named):
        Ledger.from_bytes(blob)
    (tmp_path / "ledger.bin").write_bytes(blob)
    assert main(["dispute", str(tmp_path), "--txn", "C0-1"]) \
        == EXIT_INVARIANT
    err = capsys.readouterr().err
    assert "integrity" in err and named in err


def nested(body, depth) -> bytes:
    """``body``'s entry bytes with ``depth`` nested lists in its details."""
    text = canonical(dict(body, details={"deep": None})).decode()
    return text.replace('"deep":null',
                        '"deep":' + "[" * depth + "]" * depth).encode()


def test_entry_nested_too_deeply_to_decode_is_refused(tmp_path, capsys):
    # json.loads raises RecursionError here, not ValueError.
    blob = rechain([nested(json.loads(fixture_entries()[0].to_bytes()),
                           5000)])
    with pytest.raises(LedgerIntegrityError, match="recursion"):
        Ledger.from_bytes(blob)
    (tmp_path / "ledger.bin").write_bytes(blob)
    assert main(["dispute", str(tmp_path), "--txn", "C0-1"]) \
        == EXIT_INVARIANT
    assert "integrity" in capsys.readouterr().err


def test_entry_validation():
    with pytest.raises(ValueError, match="'event' must be a known event"):
        LedgerEntry("C0-1", 0, "TTP0", "NotAnEvent")
    with pytest.raises(ValueError, match="'tick' must be non-negative"):
        LedgerEntry("C0-1", -1, "TTP0", "Deposit")
    with pytest.raises(TypeError, match="^ledger entry field 'tick' must be "
                                        "an int, got bool$"):
        LedgerEntry("C0-1", True, "TTP0", "Deposit")
    with pytest.raises(TypeError, match="'details' must be a dict, got list"):
        LedgerEntry("C0-1", 0, "TTP0", "Deposit", details=[])


def test_entries_view_is_immutable():
    led = fixture_ledger()
    assert isinstance(led.entries, tuple)
    assert len(led) == 3


# -- dispute + trust lookups ---------------------------------------------------

def test_dispute_report_contents():
    led = fixture_ledger()
    led.append(LedgerEntry("C1-1", 9, "TTP0", "Deposit"))
    report = dispute_report(led, "C0-1")
    assert report["txn"] == "C0-1"
    assert report["chain_length"] == 4
    assert report["chain_head"] == led.head.hex()
    assert [e["index"] for e in report["entries"]] == [0, 1, 2]
    assert [e["event"] for e in report["entries"]] \
        == ["Deposit", "Dispatch", "Accept"]


def test_dispute_report_hashes_nothing_and_decodes_only_its_rows(
        monkeypatch):
    led = fixture_ledger()
    led.append(LedgerEntry("C1-1", 9, "TTP0", "Deposit"))
    calls = {"sha256": 0, "decodes": 0, "field_checks": 0}

    class CountingHashlib:
        @staticmethod
        def sha256(*args):
            calls["sha256"] += 1
            return hashlib.sha256(*args)

    decode, check = tset.ledger._entry_fields, tset.ledger.check_entry_fields

    def counting_decode(raw):
        calls["decodes"] += 1
        return decode(raw)

    def counting_check(*fields):
        calls["field_checks"] += 1
        return check(*fields)

    monkeypatch.setattr(tset.ledger, "hashlib", CountingHashlib)
    monkeypatch.setattr(tset.ledger, "_entry_fields", counting_decode)
    monkeypatch.setattr(tset.ledger, "check_entry_fields", counting_check)
    for txn, rows in (("C0-1", 3), ("C1-1", 1)):
        calls.update(sha256=0, decodes=0, field_checks=0)
        assert len(dispute_report(led, txn)["entries"]) == rows
        assert calls == {"sha256": 0, "decodes": rows, "field_checks": rows}


def test_entries_check_each_entry_once(monkeypatch):
    # Decoding checks an entry's fields, and building it does not again.
    expected = (*fixture_entries(), LedgerEntry("C1-1", 9, "TTP0", "Deposit"))
    led = fixture_ledger()
    led.append(expected[-1])
    calls = {"field_checks": 0}
    check = tset.ledger.check_entry_fields

    def counting_check(*fields):
        calls["field_checks"] += 1
        return check(*fields)

    monkeypatch.setattr(tset.ledger, "check_entry_fields", counting_check)
    assert led.entries == expected
    assert calls == {"field_checks": len(led)}


def test_load_hashes_and_decodes_each_entry_once(monkeypatch):
    # Each entry is hashed once and checked once by the canonical pattern;
    # only the one entry the pattern misses is decoded, and no entry
    # object is built.
    bodies = [dict(json.loads(entry.to_bytes()), txn=f"C{n % 7}-1")
              for n in range(20) for entry in fixture_entries()]
    spaced = json.dumps(bodies[30], sort_keys=True).encode()
    records = bodies[:30] + [spaced] + bodies[30:]
    blob = rechain(records)
    positions = ref.reference_load(blob)[2]
    calls = {"sha256": 0, "pattern": 0, "field_checks": 0,
             "entries_built": 0}
    decoded = []

    class CountingHashlib:
        @staticmethod
        def sha256(*args):
            calls["sha256"] += 1
            return hashlib.sha256(*args)

    pattern, check = tset.ledger._CANONICAL, tset.ledger.check_entry_fields
    value, decode = tset.ledger._json_value, json.JSONDecoder.decode

    def counting_pattern(raw):
        calls["pattern"] += 1
        return pattern(raw)

    def counting_value(text):
        decoded.append(text)
        return value(text)

    def counting_decode(self, text, *args):   # json.loads goes here too
        decoded.append(text)
        return decode(self, text, *args)

    def counting_check(*fields):
        calls["field_checks"] += 1
        return check(*fields)

    def counting_build(self):
        calls["entries_built"] += 1

    monkeypatch.setattr(tset.ledger, "hashlib", CountingHashlib)
    monkeypatch.setattr(tset.ledger, "_CANONICAL", counting_pattern)
    monkeypatch.setattr(tset.ledger, "_json_value", counting_value)
    monkeypatch.setattr(json.JSONDecoder, "decode", counting_decode)
    monkeypatch.setattr(tset.ledger, "check_entry_fields", counting_check)
    monkeypatch.setattr(LedgerEntry, "__post_init__", counting_build)
    led = Ledger.from_bytes(blob)
    assert len(led) == len(records) == 61
    assert calls == {"sha256": 61, "pattern": 61, "field_checks": 1,
                     "entries_built": 0}
    assert decoded == [spaced.decode()]
    assert led._positions == positions


def test_dispute_report_unknown_txn():
    with pytest.raises(UnknownTransaction):
        dispute_report(fixture_ledger(), "C9-9")


# -- properties ------------------------------------------------------------------

entry_strategy = st.builds(
    LedgerEntry,
    txn=st.text(alphabet="CM0123456789-", min_size=1, max_size=8),
    tick=st.integers(0, 10 ** 6),
    actor=st.just("TTP0"),
    event=st.sampled_from(["Deposit", "Accept", "Reject", "Settled",
                           "Tamper", "Abort"]),
    token_digest=st.just("aa" * 32),
    oi_digest=st.just(""),
    details=st.dictionaries(st.sampled_from(["amount", "reason"]),
                            st.integers(0, 10 ** 6), max_size=2),
)


@given(st.lists(entry_strategy, max_size=20))
def test_roundtrip_and_append_only_property(entries):
    led = Ledger()
    heads = []
    for entry in entries:
        heads.append(led.append(entry))
    reloaded = Ledger.from_bytes(led.to_bytes())
    assert reloaded.head == led.head
    assert len(set(heads)) == len(heads)   # every append moves the head
    # A chain is verified where its bytes enter, by append or by load, so
    # both ledgers pass the full audit and give the same reports.
    assert led.verify() and reloaded.verify()
    for txn in {entry.txn for entry in entries}:
        assert dispute_report(reloaded, txn) == dispute_report(led, txn)


# -- the one-pass loader against the reference decoding --------------------------

json_leaf = (st.none() | st.booleans() | st.integers()
             | st.floats(allow_nan=False) | st.text(max_size=4))
json_value = st.recursive(
    json_leaf,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=8)
# Strings that ``LedgerEntry.to_bytes`` writes as they are: printable ASCII
# with no quote or backslash.
plain_text = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7e,
                                   exclude_characters='"\\'), max_size=6)
plain_details = st.dictionaries(plain_text, st.none() | st.booleans()
                                | st.integers() | plain_text, max_size=3)


def _bodies(txn, text, details):
    return st.fixed_dictionaries({
        "txn": st.sampled_from(txn), "tick": st.integers(0, 2 ** 70),
        "actor": text, "event": st.sampled_from(sorted(EVENTS)),
        "token_digest": text, "oi_digest": text, "details": details})


# About half in the form the arbiter writes, so that each case below also
# reaches the load's pattern.
valid_body = (_bodies(["C0-1", "C1-2"], plain_text, plain_details)
              | _bodies(["C0-1", "C1-2", "Mé-1"], st.text(max_size=5),
                        st.dictionaries(st.text(max_size=3), json_value,
                                        max_size=3)))


def _without(body, name):
    del body[name]
    return body


def _spliced(raw, at, junk):
    at = min(at, len(raw))
    return raw[:at] + junk + raw[at:]


def _spaced(body, before, after):
    return (before + canonical(body).decode() + after).encode()


def _escaped(body, where, text):
    """``body`` with ``text`` as the string field ``where``, or as a
    details key or value."""
    if where == "details key":
        return {**body, "details": {text: 1}}
    if where == "details value":
        return {**body, "details": {"note": text}}
    return {**body, where: text}


def _duplicated(body, key, first, second):
    """``body``'s entry bytes with ``key`` twice in its details."""
    pair = json.dumps(key) + ":"
    return canonical(dict(body, details={})).decode().replace(
        '"details":{}', '"details":{' + pair + first + "," + pair + second
        + "}", 1).encode()


def _long_integer(body, where, digits):
    """``body``'s entry bytes with an integer of ``digits`` digits as its
    tick or a details value."""
    text = canonical(dict(body, tick=0, details={"n": 0})).decode()
    old = '"tick":0' if where == "tick" else '"n":0'
    return text.replace(old, old[:-1] + "9" * digits, 1).encode()


# Text that JSON writes escaped, or that ensure_ascii does: a quote, a
# backslash, control characters, DEL and non-ASCII text.
escaped_text = st.tuples(
    st.text(max_size=2),
    st.sampled_from(list('"\\\x00\n\x1f\x7f\xe9\u2028\U0001f600')),
    st.text(max_size=2)).map("".join)


# One strategy per kind of entry; each draws whole entries, as bodies for
# ``rechain`` or as their bytes.
RECORD_CASES = {
    "valid": valid_body,
    "not an object": (st.lists(json_leaf, max_size=2) | st.text(max_size=3)
                      | st.integers() | st.floats(allow_nan=False)
                      | st.none()),
    "missing key": st.builds(_without, valid_body,
                             st.sampled_from(ref.FIELDS)),
    "extra key": st.builds(lambda body, key, value: {**body, key: value},
                           valid_body,
                           st.text(max_size=4).filter(
                               lambda key: key not in ref.FIELDS),
                           json_value),
    "mistyped field": st.builds(lambda body, key, value: {**body, key: value},
                                valid_body, st.sampled_from(ref.FIELDS),
                                json_value),
    "bool, float or negative tick": st.builds(
        lambda body, tick: {**body, "tick": tick}, valid_body,
        st.sampled_from([True, False, 1.5, 0.0, -1, -2 ** 70, 10 ** 30])),
    "unknown event": st.builds(lambda body, event: {**body, "event": event},
                               valid_body, st.text(max_size=9)),
    "whitespace around": st.builds(_spaced, valid_body,
                                   st.text(" \t\n\r", max_size=3),
                                   st.text(" \t\n\r", max_size=3)),
    # Spaces that str.strip removes and JSON does not allow.
    "other spaces around": st.builds(_spaced, valid_body,
                                     st.text("\x0b\x0c\xa0\u2028", max_size=2),
                                     st.text("\x0b\x0c\xa0\u2028", min_size=1,
                                             max_size=2)),
    "trailing data": st.builds(
        lambda body, junk: canonical(body) + junk, valid_body,
        st.sampled_from([b"x", b"{}", b"1", b",", b"\x00", b" ]", b"\xff"])),
    "BOM": st.builds(lambda body: b"\xef\xbb\xbf" + canonical(body),
                     valid_body),
    "invalid UTF-8": st.builds(
        _spliced, st.builds(canonical, valid_body), st.integers(0, 200),
        st.sampled_from([b"\xff", b"\x80", b"\xc3", b"\xed\xa0\x80",
                         b"\xf4\x90\x80\x80"])),
    "raw UTF-8 text": st.builds(
        lambda body: json.dumps(body, sort_keys=True, ensure_ascii=False,
                                separators=(",", ":")).encode(),
        valid_body),
    "duplicate key": st.builds(
        lambda body, key, value: canonical(body)[:-1]
        + f',"{key}":{value}}}'.encode(),
        valid_body, st.sampled_from(ref.FIELDS),
        st.sampled_from(["-1", "7", "true", '"Deposit"', "{}", '"C0-1"'])),
    "nested details": st.builds(nested, valid_body,
                                st.sampled_from([1, 40, 800, 5000])),
    "keys out of order": st.builds(
        lambda body, order: json.dumps({key: body[key] for key in order},
                                       separators=(",", ":")).encode(),
        valid_body, st.permutations(ref.FIELDS).filter(
            lambda order: list(order) != sorted(order))),
    # Escapes json.dumps writes, and escapes it never writes.
    "escaped strings": (
        st.builds(_escaped, valid_body,
                  st.sampled_from(["txn", "actor", "token_digest",
                                   "oi_digest", "details key",
                                   "details value"]),
                  escaped_text)
        | st.builds(lambda body, escape: canonical(body).replace(
            b'"actor":"', b'"actor":"' + escape, 1), valid_body,
            st.sampled_from([b"\\/", b"\\u0041", b"\\ud83d\\ude00", b"\\b",
                             b"\\ud800", b"\\x41", b"\\u00"]))),
    "duplicate details key": st.builds(
        _duplicated, valid_body, st.text(max_size=3),
        st.sampled_from(["1", "-7", '"a"', "true", "null", "1.5", "[1]"]),
        st.sampled_from(["2", '"b"', "false", "null", "{}", "01"])),
    # At most 640 digits convert under any int() digit limit; the default
    # limit is 4300.
    "long integers": st.builds(_long_integer, valid_body,
                               st.sampled_from(["tick", "details"]),
                               st.sampled_from([639, 640, 641, 4300, 4301])),
}


@pytest.mark.parametrize("case", sorted(RECORD_CASES))
@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(data=st.data())
def test_load_accepts_exactly_what_the_reference_accepts(case, data):
    records = data.draw(st.lists(valid_body, max_size=3))
    records.insert(data.draw(st.integers(0, len(records))),
                   data.draw(RECORD_CASES[case]))
    blob = rechain(records)
    try:
        raws, links, positions, rows = ref.reference_load(blob)
    except ref.REJECTS:
        with pytest.raises(LedgerIntegrityError):
            Ledger.from_bytes(blob)
        return
    led = Ledger.from_bytes(blob)
    assert (led._raw, led._hashes, led._positions) == (raws, links, positions)
    assert [LedgerEntry(**row) for row in rows] == list(led.entries)
    for txn in positions:
        assert dispute_report(led, txn) == ref.reference_report(links, rows,
                                                                txn)


plain_entry = st.builds(
    LedgerEntry, txn=plain_text, tick=st.integers(0, 2 ** 70),
    actor=plain_text, event=st.sampled_from(sorted(EVENTS)),
    token_digest=plain_text, oi_digest=plain_text, details=plain_details)
# Entries that are written some other way: escaped or non-ASCII text, a
# float, or a list or object in details.
other_entry = (
    st.builds(lambda entry, where, text: LedgerEntry(
        **_escaped(vars(entry), where, text)), plain_entry,
        st.sampled_from(["txn", "actor", "token_digest", "oi_digest",
                         "details key", "details value"]), escaped_text)
    | st.builds(lambda entry, value: LedgerEntry(
        **{**vars(entry), "details": {**entry.details, "x": value}}),
        plain_entry, st.floats(allow_nan=False)
        | st.lists(json_leaf, max_size=2)
        | st.dictionaries(plain_text, json_leaf, max_size=2)))


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(st.lists(st.tuples(plain_entry, st.just(True))
                | st.tuples(other_entry, st.just(False)), max_size=6))
def test_written_entries_are_decoded_only_off_the_canonical_form(tagged):
    """Every entry the arbiter writes with plain strings and scalar details
    loads with no decode, so the pattern cannot stop matching unnoticed;
    every other entry is decoded, and the load is the reference's."""
    raws = [entry.to_bytes() for entry, _ in tagged]
    blob = rechain(raws)
    decoded, decode = [], tset.ledger._entry_fields

    def counting_decode(raw):
        decoded.append(raw)
        return decode(raw)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tset.ledger, "_entry_fields", counting_decode)
        led = Ledger.from_bytes(blob)
    assert decoded == [raw for raw, (_, plain) in zip(raws, tagged)
                       if not plain]
    raws, links, positions, rows = ref.reference_load(blob)
    assert (led._raw, led._hashes, led._positions) == (raws, links, positions)
    assert list(led.entries) == [entry for entry, _ in tagged]
    for txn in positions:
        assert dispute_report(led, txn) == ref.reference_report(links, rows,
                                                                txn)


def _with_bad_link(records, index) -> bytes:
    """``rechain(records)`` with one bit of entry ``index``'s link flipped."""
    blob = bytearray(rechain(records))
    pos = 0
    for _ in range(index):
        pos += 36 + struct.unpack_from(">I", blob, pos)[0]
    blob[pos + 4 + struct.unpack_from(">I", blob, pos)[0]] ^= 0x01
    return bytes(blob)


@pytest.mark.parametrize("bad_entry,bad_link,message", [
    (1, 2, "entry does not parse: Extra data"),
    (2, 1, "chain hash mismatch at entry 1"),
])
def test_the_first_of_two_faults_is_the_one_named(bad_entry, bad_link,
                                                  message):
    records = [json.loads(entry.to_bytes()) for entry in fixture_entries()]
    records.insert(bad_entry, fixture_entries()[0].to_bytes() + b"x")
    blob = _with_bad_link(records, bad_link)
    with pytest.raises(ref.REJECTS) as expected:
        ref.reference_load(blob)
    with pytest.raises(LedgerIntegrityError) as refused:
        Ledger.from_bytes(blob)
    assert str(refused.value).startswith(message)
    assert str(refused.value).endswith(str(expected.value))
