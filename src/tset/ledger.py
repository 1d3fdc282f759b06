"""Append-only arbiter ledger with a verifiable hash chain.

Each entry is canonical compact JSON.  Entry i's chain hash is
SHA-256(chain[i-1] || entry_bytes[i]) with a 32-zero-byte genesis value, so
the final hash commits to the whole history and any byte of a saved ledger
that changes breaks verification.  The file form is a flat sequence of

    [4-byte big-endian entry length][entry bytes][32-byte chain hash]

records.  There is no update or delete: disputes are settled by reading.
The ledger keeps only the exact bytes it hashed for each entry.  The file
form writes them and every entry read back (``entries``, dispute reports)
is decoded from them, so nothing read from a ledger can differ from what
its chain head commits to.

A chain is verified where its bytes enter a ``Ledger``, once: ``append``
computes each link itself, and ``from_bytes`` (so ``load``) checks every
link and every entry before it returns.  It walks the records once: for
each it checks the bounds, re-hashes the link, decodes the entry's text
once with the standard JSON decoder and checks the seven fields with
``check_entry_fields``, the rules ``LedgerEntry`` itself applies, then
indexes the bytes by transaction.  No entry object is built or kept.
Nothing else writes the kept bytes, so a ``Ledger`` holds a valid chain for
its whole life and a dispute report re-hashes nothing.  ``Ledger.verify``
is the explicit full audit that re-walks the chain.
"""

from __future__ import annotations

import hashlib
import json
import operator
import struct
from dataclasses import dataclass, field

GENESIS = b"\x00" * 32

EVENTS = frozenset({
    "Deposit", "TempAck", "Dispatch", "Accept", "Reject", "Release",
    "Settled", "Tamper", "Regenerate", "Abort", "DeadlineExpired",
})


class LedgerIntegrityError(Exception):
    """Stored ledger bytes fail chain verification or do not decode to
    valid entries."""


class UnknownTransaction(Exception):
    """No ledger entry references the requested transaction."""


# The exact type of each entry field, in field order: the type json gives
# the value back as, so an entry equals its own reloaded copy.  A bool is
# not an int here.
FIELD_TYPES = {"txn": str, "tick": int, "actor": str, "event": str,
               "token_digest": str, "oi_digest": str, "details": dict}
_TYPES = tuple(FIELD_TYPES.values())


def check_entry_fields(txn, tick, actor, event, token_digest, oi_digest,
                       details) -> None:
    """The rules every ledger entry meets, built or loaded: each field has
    its type in ``FIELD_TYPES``, ``event`` is in ``EVENTS`` and ``tick`` is
    non-negative.  Raises TypeError or ValueError naming the first field
    that breaks them."""
    if (type(txn), type(tick), type(actor), type(event), type(token_digest),
            type(oi_digest), type(details)) != _TYPES:
        values = (txn, tick, actor, event, token_digest, oi_digest, details)
        for (name, kind), value in zip(FIELD_TYPES.items(), values):
            if type(value) is not kind:
                article = "an" if kind is int else "a"
                raise TypeError(f"ledger entry field {name!r} must be "
                                f"{article} {kind.__name__}, "
                                f"got {type(value).__name__}")
    if event not in EVENTS:
        raise ValueError(f"ledger entry field 'event' must be a known event, "
                         f"got {event!r}")
    if tick < 0:
        raise ValueError(
            f"ledger entry field 'tick' must be non-negative, got {tick}")


_DECODER = json.JSONDecoder()
_SPACE = json.decoder.WHITESPACE.match
_FIELDS = operator.itemgetter(*FIELD_TYPES)


def _json_value(text: str):
    """``json.loads(text)``, by the standard decoder's own scanner: this is
    ``JSONDecoder.decode`` with its two whitespace searches skipped where
    there is nothing to skip, as in the compact objects the ledger writes."""
    start = 0 if text.startswith("{") else _SPACE(text, 0).end()
    try:
        value, end = _DECODER.scan_once(text, start)
    except StopIteration as exc:
        raise json.JSONDecodeError("Expecting value", text,
                                   exc.value) from None
    if end != len(text) and _SPACE(text, end).end() != len(text):
        raise json.JSONDecodeError("Extra data", text, end)
    return value


def _entry_fields(raw: bytes) -> tuple:
    """The seven field values of one entry's bytes, in field order: the
    UTF-8 text decoded once by ``_json_value``, then checked by
    ``check_entry_fields``.  Accepts exactly the bytes that
    ``json.loads(raw.decode())`` followed by ``LedgerEntry(...)`` accepts;
    anything else, an entry nested too deeply to decode included, raises
    LedgerIntegrityError."""
    try:
        values = _FIELDS(_json_value(raw.decode()))
        check_entry_fields(*values)
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise LedgerIntegrityError(f"entry does not parse: {exc}") from exc
    return values


@dataclass(frozen=True)
class LedgerEntry:
    txn: str
    tick: int
    actor: str
    event: str
    token_digest: str = ""
    oi_digest: str = ""
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        check_entry_fields(self.txn, self.tick, self.actor, self.event,
                           self.token_digest, self.oi_digest, self.details)

    def to_bytes(self) -> bytes:
        body = {
            "txn": self.txn,
            "tick": self.tick,
            "actor": self.actor,
            "event": self.event,
            "token_digest": self.token_digest,
            "oi_digest": self.oi_digest,
            "details": self.details,
        }
        return json.dumps(body, sort_keys=True, separators=(",", ":")).encode()

    @staticmethod
    def from_bytes(data: bytes) -> "LedgerEntry":
        return LedgerEntry(*_entry_fields(data))


class Ledger:
    """In-memory chain plus file round-trip.  Strictly append-only.

    Every ``Ledger`` holds a valid chain: ``append`` and ``from_bytes`` are
    the only ways in, and each checks the bytes it admits."""

    def __init__(self):
        self._raw: list[bytes] = []
        self._hashes: list[bytes] = []
        self._positions: dict[str, list[int]] = {}  # txn -> entry indices

    def __len__(self) -> int:
        return len(self._raw)

    def __iter__(self):
        """Every entry in order, each decoded afresh from its hashed bytes."""
        return map(LedgerEntry.from_bytes, self._raw)

    @property
    def entries(self) -> tuple[LedgerEntry, ...]:
        return tuple(self)

    @property
    def head(self) -> bytes:
        return self._hashes[-1] if self._hashes else GENESIS

    def append(self, entry: LedgerEntry) -> bytes:
        """Returns the new chain head."""
        raw = entry.to_bytes()
        link = hashlib.sha256(self.head + raw).digest()
        self._keep(entry.txn, raw, link)
        return link

    def _keep(self, txn: str, raw: bytes, link: bytes) -> None:
        self._positions.setdefault(txn, []).append(len(self._raw))
        self._raw.append(raw)
        self._hashes.append(link)

    # -- file form ----------------------------------------------------------

    def to_bytes(self) -> bytes:
        out = []
        for raw, link in zip(self._raw, self._hashes):
            out.append(struct.pack(">I", len(raw)))
            out.append(raw)
            out.append(link)
        return b"".join(out)

    def save(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())

    @staticmethod
    def from_bytes(data: bytes) -> "Ledger":
        ledger = Ledger()
        pos = 0
        prev = GENESIS
        while pos < len(data):
            if pos + 4 > len(data):
                raise LedgerIntegrityError("truncated length prefix")
            (length,) = struct.unpack_from(">I", data, pos)
            pos += 4
            if pos + length + 32 > len(data):
                raise LedgerIntegrityError("truncated record")
            raw = data[pos:pos + length]
            pos += length
            stored = data[pos:pos + 32]
            pos += 32
            expected = hashlib.sha256(prev + raw).digest()
            if stored != expected:
                raise LedgerIntegrityError(
                    f"chain hash mismatch at entry {len(ledger)}")
            ledger._keep(_entry_fields(raw)[0], raw, expected)
            prev = expected
        return ledger

    @staticmethod
    def load(path) -> "Ledger":
        with open(path, "rb") as fh:
            return Ledger.from_bytes(fh.read())

    def verify(self) -> bool:
        """Full audit: re-hash the whole chain against the kept links."""
        prev = GENESIS
        for raw, stored in zip(self._raw, self._hashes):
            expected = hashlib.sha256(prev + raw).digest()
            if stored != expected:
                return False
            prev = expected
        return True


def dispute_report(ledger: Ledger, txn: str) -> dict:
    """Everything the arbiter can attest about one transaction: its entries
    in order, their chain positions, and the chain head.  The chain was
    verified when its bytes entered ``ledger``, so only this transaction's
    rows are decoded here."""
    rows = [(i, LedgerEntry.from_bytes(ledger._raw[i]))
            for i in ledger._positions.get(txn, ())]
    if not rows:
        raise UnknownTransaction(f"no ledger entries for {txn}")
    return {
        "txn": txn,
        "chain_head": ledger.head.hex(),
        "chain_length": len(ledger),
        "entries": [
            {"index": i, "tick": e.tick, "actor": e.actor, "event": e.event,
             "token_digest": e.token_digest, "oi_digest": e.oi_digest,
             "details": e.details}
            for i, e in rows
        ],
    }
