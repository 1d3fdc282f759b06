"""Payment tokens: canonical wire form, two-layer sealing, and the mint.

A token binds an amount, both parties' certificates, a single-use 256-bit
token id, and an issue timestamp.  The issuing bank keeps a duplicate of
every token it mints; when a token is presented for settlement the bank
opens the sealed copy and compares it field-by-field against the duplicate.
Any mismatch, or any failure to open, is treated as tampering.

Sealing is layered.  The token id alone is first encrypted under the bank's
long-term symmetric key, then the whole token (with the encrypted id inside)
is sealed to the bank's public key.  Only the issuing bank can recover the
token id, so nothing an intermediary forwards reveals it, and a forged or
modified envelope cannot survive either authenticated layer.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum

from . import crypto
from .crypto import Certificate, DecryptionFailure
from .rng import ByteStream

TOKEN_ID_LEN = 32
AMOUNT_MAX = 2 ** 63 - 1     # the most minor units a token carries
_INNER_AAD = b"tset/token-id"


class MalformedBytes(Exception):
    """Byte string does not parse as the expected structure."""


class TokenIdDecryptionFailure(Exception):
    """Outer layer opened but the embedded token id failed to decrypt."""


class UnknownTokenId(Exception):
    """Presented token id was never issued by this mint."""


class AlreadySettled(Exception):
    """Token id has already been settled; a token is single-use."""


class RevokedToken(Exception):
    """Token id was invalidated after a tamper report."""


@dataclass(frozen=True)
class Token:
    """One payment instrument.

    amount is in integer minor units (no floats anywhere near money),
    token_id is 32 random bytes and is never reused, timestamp is integer
    milliseconds of simulation time at issue.
    """

    amount: int
    cert_customer: Certificate
    cert_merchant: Certificate
    token_id: bytes
    timestamp: int

    def __post_init__(self):
        if not isinstance(self.amount, int) or isinstance(self.amount, bool):
            raise ValueError("amount must be an int in minor units")
        if not 0 < self.amount <= AMOUNT_MAX:
            raise ValueError("amount must be positive and fit in 63 bits")
        if len(self.token_id) != TOKEN_ID_LEN:
            raise ValueError("token_id must be 32 bytes")
        if not isinstance(self.timestamp, int) or self.timestamp < 0:
            raise ValueError("timestamp must be a non-negative int (ms)")


@dataclass(frozen=True)
class SealedToken:
    """Opaque envelope holding a token, openable only by the issuing bank."""

    envelope: bytes

    def __post_init__(self):
        if len(self.envelope) < crypto.X25519_KEY_LEN + crypto.NONCE_LEN + 16:
            raise ValueError("sealed envelope too short")


@dataclass(frozen=True)
class KeyMaterial:
    """Issuing bank key set: X25519 box pair plus AES-256 symmetric key."""

    box_secret: bytes
    box_public: bytes
    symmetric_key: bytes

    def __post_init__(self):
        if len(self.box_secret) != 32 or len(self.box_public) != 32:
            raise ValueError("box keys must be 32 bytes")
        if len(self.symmetric_key) != 32:
            raise ValueError("symmetric key must be 32 bytes")


def new_key_material(rng: ByteStream) -> KeyMaterial:
    secret, public = crypto.new_box_keypair(rng)
    return KeyMaterial(secret, public, rng.take(32))


class Verdict(Enum):
    MATCH = "Match"
    TAMPERED = "Tampered"


@dataclass(frozen=True)
class VerifyOutcome:
    verdict: Verdict
    mismatched_fields: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# Wire layout, shared by the canonical and the sealed form
#
#   offset  size  field
#   ------  ----  -----------------------------
#   0       8     amount, big-endian minor units
#   8       4     customer certificate length
#   12      var   customer certificate
#   .       4     merchant certificate length
#   .       var   merchant certificate
#   .       var   id field (see below)
#   .       8     issue timestamp, big-endian ms
#
# The canonical form's id field is the raw 32-byte token id.  The sealed
# form's is the id encrypted under the bank's symmetric key, behind its
# own 4-byte length.

def _encode(token: Token, id_field: bytes, *, prefixed: bool) -> bytes:
    cert_c = crypto.encode_certificate(token.cert_customer)
    cert_m = crypto.encode_certificate(token.cert_merchant)
    id_len = struct.pack(">I", len(id_field)) if prefixed else b""
    return b"".join([
        struct.pack(">Q", token.amount),
        struct.pack(">I", len(cert_c)), cert_c,
        struct.pack(">I", len(cert_m)), cert_m,
        id_len, id_field,
        struct.pack(">Q", token.timestamp),
    ])


def _decode(data: bytes, error: type[Exception], *, prefixed: bool,
            open_id=bytes) -> Token:
    """Parse ``data`` into a Token whose id is ``open_id(id field)``,
    raising ``error`` if it does not parse or the token is invalid."""
    view = memoryview(data)
    pos = 0

    def need(n: int) -> memoryview:
        nonlocal pos
        if pos + n > len(view):
            raise error("token bytes truncated")
        chunk = view[pos:pos + n]
        pos += n
        return chunk

    def length() -> int:
        return struct.unpack(">I", need(4))[0]

    (amount,) = struct.unpack(">Q", need(8))
    certs = []
    for side in ("customer", "merchant"):
        raw = bytes(need(length()))
        try:
            certs.append(crypto.decode_certificate(raw))
        except ValueError as exc:
            raise error(f"bad {side} certificate: {exc}") from exc
    id_field = bytes(need(length() if prefixed else TOKEN_ID_LEN))
    (timestamp,) = struct.unpack(">Q", need(8))
    if pos != len(view):
        raise error("trailing bytes after token")
    token_id = open_id(id_field)
    try:
        return Token(amount, certs[0], certs[1], token_id, timestamp)
    except ValueError as exc:
        raise error(str(exc)) from exc


def canonical_serialize(token: Token) -> bytes:
    return _encode(token, token.token_id, prefixed=False)


def canonical_deserialize(data: bytes) -> Token:
    return _decode(data, MalformedBytes, prefixed=False)


# ---------------------------------------------------------------------------
# Sealing

def seal_token(token: Token, keys: KeyMaterial, rng: ByteStream) -> SealedToken:
    """Encrypt the token id under the symmetric key, then seal the whole
    token (with the encrypted id in place of the raw one) to the box key."""
    inner = crypto.sym_encrypt(keys.symmetric_key, token.token_id,
                               _INNER_AAD, rng)
    plain = _encode(token, inner, prefixed=True)
    return SealedToken(crypto.seal_box(keys.box_public, plain, rng))


def open_token(sealed: SealedToken, keys: KeyMaterial) -> Token:
    """Open both layers.  Raises DecryptionFailure if the outer envelope
    fails or does not parse, TokenIdDecryptionFailure if the inner id
    layer fails.  A successful return is a structurally valid Token."""
    plain = crypto.open_box(keys.box_secret, sealed.envelope)

    def open_id(inner: bytes) -> bytes:
        try:
            return crypto.sym_decrypt(keys.symmetric_key, inner, _INNER_AAD)
        except DecryptionFailure as exc:
            raise TokenIdDecryptionFailure(str(exc)) from exc

    return _decode(plain, DecryptionFailure, prefixed=True, open_id=open_id)


_COMPARED_FIELDS = ("amount", "cert_customer", "cert_merchant",
                    "token_id", "timestamp")


def verify_token(presented: Token, duplicate: Token) -> VerifyOutcome:
    """Field-by-field comparison against the mint's stored duplicate."""
    mismatched = tuple(f for f in _COMPARED_FIELDS
                       if getattr(presented, f) != getattr(duplicate, f))
    if mismatched:
        return VerifyOutcome(Verdict.TAMPERED, mismatched)
    return VerifyOutcome(Verdict.MATCH)


# ---------------------------------------------------------------------------
# The mint

class TokenMint:
    """Issues tokens and keeps the duplicate copies for later comparison.

    Both parties' certificates are checked through the world's
    CertificateChecks before a token is minted.  A token id is never reused
    and is single-use: settling it twice raises AlreadySettled, and ids
    invalidated after tamper reports raise RevokedToken on presentation.
    The simulator is single-threaded, and so is the mint.
    """

    def __init__(self, rng: ByteStream, certs: crypto.CertificateChecks):
        self._rng = rng
        self._certs = certs
        self._duplicates: dict[bytes, Token] = {}
        self._settled: set[bytes] = set()
        self._revoked: set[bytes] = set()

    def generate_token(self, amount: int, cert_customer: Certificate,
                       cert_merchant: Certificate, now_ms: int) -> Token:
        if not self._certs.valid(cert_customer):
            raise crypto.AuthFailure("customer certificate does not verify")
        if not self._certs.valid(cert_merchant):
            raise crypto.AuthFailure("merchant certificate does not verify")
        token_id = self._rng.take(TOKEN_ID_LEN)
        while token_id in self._duplicates:
            token_id = self._rng.take(TOKEN_ID_LEN)
        token = Token(amount, cert_customer, cert_merchant, token_id, now_ms)
        self._duplicates[token_id] = token
        return token

    def duplicate_of(self, token_id: bytes) -> Token:
        if token_id not in self._duplicates:
            raise UnknownTokenId("token id was never issued")
        if token_id in self._revoked:
            raise RevokedToken("token id was invalidated")
        if token_id in self._settled:
            raise AlreadySettled("token id already settled")
        return self._duplicates[token_id]

    def settle(self, token_id: bytes) -> None:
        if token_id not in self._duplicates:
            raise UnknownTokenId("token id was never issued")
        if token_id in self._settled:
            raise AlreadySettled("token id already settled")
        self._settled.add(token_id)

    def revoke(self, token_id: bytes) -> None:
        self._revoked.add(token_id)

    def is_settled(self, token_id: bytes) -> bool:
        return token_id in self._settled

    @property
    def issued_count(self) -> int:
        return len(self._duplicates)
