"""The reference decoding of a ledger file, for the differential tests.

It is the loader as first written: each record's bounds and link are
checked, then the entry's text goes to ``json.loads`` and the seven values
it names go through ``LedgerEntry``'s original type and value tests, stated
here on their own.  It shares no decoding or checking code with
``tset.ledger``, so agreement between the two is evidence that the one-pass
loader accepts the same files and keeps the same bytes.
"""

import hashlib
import json
import struct

from tset.ledger import EVENTS, GENESIS

FIELDS = ("txn", "tick", "actor", "event", "token_digest", "oi_digest",
          "details")

# What the reference raises on a file it refuses.  RecursionError is
# json.loads's answer to an entry nested too deeply.
REJECTS = (ValueError, KeyError, TypeError, RecursionError)


def reference_entry(raw: bytes) -> dict:
    """One entry's fields: json.loads, then LedgerEntry's original tests."""
    body = json.loads(raw.decode())
    row = {name: body[name] for name in FIELDS}
    if not (isinstance(row["txn"], str) and isinstance(row["actor"], str)
            and isinstance(row["event"], str)
            and isinstance(row["token_digest"], str)
            and isinstance(row["oi_digest"], str)
            and type(row["tick"]) is int
            and isinstance(row["details"], dict)):
        raise TypeError(f"mistyped ledger entry field in {row!r}")
    if row["event"] not in EVENTS:
        raise ValueError(f"unknown ledger event {row['event']!r}")
    if row["tick"] < 0:
        raise ValueError("tick must be non-negative")
    return row


def reference_load(data: bytes):
    """(entry bytes, links, txn -> entry indices, entry fields) of a ledger
    file; raises one of ``REJECTS`` where the file is refused."""
    raws, links, positions, rows = [], [], {}, []
    pos, prev = 0, GENESIS
    while pos < len(data):
        if pos + 4 > len(data):
            raise ValueError("truncated length prefix")
        (length,) = struct.unpack_from(">I", data, pos)
        if pos + 4 + length + 32 > len(data):
            raise ValueError("truncated record")
        raw = data[pos + 4:pos + 4 + length]
        stored = data[pos + 4 + length:pos + 36 + length]
        prev = hashlib.sha256(prev + raw).digest()
        if stored != prev:
            raise ValueError(f"chain hash mismatch at entry {len(raws)}")
        row = reference_entry(raw)
        positions.setdefault(row["txn"], []).append(len(raws))
        raws.append(raw)
        links.append(prev)
        rows.append(row)
        pos += 36 + length
    return raws, links, positions, rows


def reference_report(links, rows, txn: str) -> dict:
    """The dispute report on ``txn`` built from the reference's fields."""
    return {
        "txn": txn,
        "chain_head": (links[-1] if links else GENESIS).hex(),
        "chain_length": len(rows),
        "entries": [{"index": i, **{name: row[name] for name in FIELDS[1:]}}
                    for i, row in enumerate(rows) if row["txn"] == txn],
    }
