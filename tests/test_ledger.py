"""Hash chain construction, file round-trip, and tamper evidence.

The chain rule is pinned against an independent hashlib walk and a frozen
golden head for a fixed three-entry history.
"""

import hashlib
import json
import struct

import pytest
from hypothesis import given, strategies as st

import tset.ledger
from tset.cli import EXIT_INVARIANT, main
from tset.ledger import (
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


def rechain(bodies) -> bytes:
    """A ledger file with valid links over arbitrary JSON entry bodies."""
    prev, out = GENESIS, []
    for body in bodies:
        raw = json.dumps(body, sort_keys=True, separators=(",", ":")).encode()
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
    with pytest.raises(LedgerIntegrityError):
        Ledger.from_bytes(blob)
    (tmp_path / "ledger.bin").write_bytes(blob)
    assert main(["dispute", str(tmp_path), "--txn", "C0-1"]) \
        == EXIT_INVARIANT
    assert "integrity" in capsys.readouterr().err


def test_entry_validation():
    with pytest.raises(ValueError):
        LedgerEntry("C0-1", 0, "TTP0", "NotAnEvent")
    with pytest.raises(ValueError):
        LedgerEntry("C0-1", -1, "TTP0", "Deposit")


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
    calls = {"sha256": 0, "from_bytes": 0}

    class CountingHashlib:
        @staticmethod
        def sha256(*args):
            calls["sha256"] += 1
            return hashlib.sha256(*args)

    decode = LedgerEntry.from_bytes

    def counting_decode(data):
        calls["from_bytes"] += 1
        return decode(data)

    monkeypatch.setattr(tset.ledger, "hashlib", CountingHashlib)
    monkeypatch.setattr(LedgerEntry, "from_bytes",
                        staticmethod(counting_decode))
    for txn, rows in (("C0-1", 3), ("C1-1", 1)):
        calls.update(sha256=0, from_bytes=0)
        assert len(dispute_report(led, txn)["entries"]) == rows
        assert calls == {"sha256": 0, "from_bytes": rows}


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
