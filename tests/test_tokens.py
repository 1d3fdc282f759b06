"""Sealed token format, sealing, verification, and mint behavior.

The byte layout inside the sealed box is pinned twice: once against an
independent struct.pack construction in the test and once against frozen
golden values, so a change to either the framing or the certificate
encoding fails loudly.  The plaintext is read by opening the box with
crypto.open_box, and parsed back by resealing it and calling open_token.
"""

import hashlib
import struct

import pytest

from tset import crypto
from tset.rng import ByteStream
from tset.tokens import (
    AlreadySettled,
    KeyMaterial,
    RevokedToken,
    SealedToken,
    Token,
    TokenIdDecryptionFailure,
    TokenMint,
    UnknownTokenId,
    new_key_material,
    seal_token,
    open_token,
    verify_token,
)

# Frozen from the layout definition: seed-42 certificates, amount 15000,
# token id 00..1f, timestamp 7, the keys of stream 99, sealed with stream 5.
GOLDEN_WIRE_LEN = 288
GOLDEN_WIRE_SHA256 = (
    "8bc0bf2ce3393389776488774bd862ba7745d70f070da56d5e3f620a6fda52d7")
_INNER_AAD = b"tset/token-id"


@pytest.fixture()
def keys():
    return new_key_material(ByteStream(99))


def sealed_plaintext(token: Token, keys: KeyMaterial) -> bytes:
    """The bytes seal_token puts inside the box, sealing with stream 5."""
    sealed = seal_token(token, keys, ByteStream(5))
    return crypto.open_box(keys.box_secret, keys.box_public, sealed.envelope)


def reopen(plain: bytes, keys: KeyMaterial) -> Token:
    """open_token of ``plain`` sealed to the bank's box key."""
    blob = crypto.seal_box(keys.box_public, plain, ByteStream(6))
    return open_token(SealedToken(blob), keys)


def independent_wire(token: Token, keys: KeyMaterial) -> bytes:
    """Oracle: rebuild the documented layout without the token codec.  The
    id is encrypted with the first bytes of the sealing stream, as
    seal_token does before it seals the box."""
    inner = crypto.sym_encrypt(keys.symmetric_key, token.token_id,
                               _INNER_AAD, ByteStream(5))
    cert_c = crypto.encode_certificate(token.cert_customer)
    cert_m = crypto.encode_certificate(token.cert_merchant)
    return (struct.pack(">Q", token.amount)
            + struct.pack(">I", len(cert_c)) + cert_c
            + struct.pack(">I", len(cert_m)) + cert_m
            + struct.pack(">I", len(inner)) + inner
            + struct.pack(">Q", token.timestamp))


def test_wire_matches_independent_oracle(sample_token, keys):
    assert sealed_plaintext(sample_token, keys) \
        == independent_wire(sample_token, keys)


def test_wire_matches_golden_pin(sample_token, keys):
    wire = sealed_plaintext(sample_token, keys)
    assert len(wire) == GOLDEN_WIRE_LEN
    assert hashlib.sha256(wire).hexdigest() == GOLDEN_WIRE_SHA256


def test_wire_field_positions(sample_token, keys):
    wire = sealed_plaintext(sample_token, keys)
    assert wire[:8] == struct.pack(">Q", 15000)
    (clen,) = struct.unpack_from(">I", wire, 8)
    assert clen == 100
    assert wire[-8:] == struct.pack(">Q", 7)
    # nonce, 32 encrypted id bytes and the tag, behind their length
    assert wire[-72:-68] == struct.pack(">I", 60)
    assert crypto.sym_decrypt(keys.symmetric_key, wire[-68:-8],
                              _INNER_AAD) == bytes(range(32))


def test_roundtrip(sample_token, keys):
    assert reopen(sealed_plaintext(sample_token, keys), keys) == sample_token


def test_deserialize_rejects_truncation(sample_token, keys):
    wire = sealed_plaintext(sample_token, keys)
    for cut in (0, 1, 7, 8, 11, 50, 220, 223, len(wire) - 1):
        with pytest.raises(crypto.DecryptionFailure):
            reopen(wire[:cut], keys)


def test_deserialize_rejects_trailing_bytes(sample_token, keys):
    with pytest.raises(crypto.DecryptionFailure):
        reopen(sealed_plaintext(sample_token, keys) + b"\x00", keys)


def test_wire_never_silently_absorbs_a_bit_flip(sample_token, keys):
    """Flipping any single bit either fails to open or yields a token that
    compares unequal; no flip can round-trip back to the original."""
    wire = sealed_plaintext(sample_token, keys)
    for byte in range(len(wire)):
        for bit in range(8):
            mutated = bytearray(wire)
            mutated[byte] ^= 1 << bit
            try:
                token = reopen(bytes(mutated), keys)
            except (crypto.DecryptionFailure, TokenIdDecryptionFailure):
                continue
            assert token != sample_token, (byte, bit)
            assert verify_token(token, sample_token)


def test_token_field_validation(keyset):
    certs = (keyset.cert_customer, keyset.cert_merchant)
    good = dict(amount=1, cert_customer=certs[0], cert_merchant=certs[1],
                token_id=bytes(32), timestamp=0)
    Token(**good)
    for bad in ({"amount": 0}, {"amount": -5}, {"amount": 2 ** 63},
                {"amount": True}, {"token_id": bytes(31)},
                {"timestamp": -1}):
        with pytest.raises(ValueError):
            Token(**{**good, **bad})


def test_sealed_token_rejects_short_envelope():
    with pytest.raises(ValueError):
        SealedToken(b"\x00" * 59)
    SealedToken(b"\x00" * 60)


# -- sealing ------------------------------------------------------------------

def test_seal_open_roundtrip(sample_token, keys):
    sealed = seal_token(sample_token, keys, ByteStream(5))
    assert open_token(sealed, keys) == sample_token


def test_open_rejects_any_envelope_bit_flip(sample_token, keys):
    sealed = seal_token(sample_token, keys, ByteStream(5))
    env = sealed.envelope
    step = max(1, len(env) // 64)
    for pos in range(0, len(env), step):
        mutated = bytearray(env)
        mutated[pos] ^= 0x01
        with pytest.raises(crypto.DecryptionFailure):
            open_token(SealedToken(bytes(mutated)), keys)


def test_open_rejects_wrong_box_key(sample_token, keys):
    other = new_key_material(ByteStream(100))
    sealed = seal_token(sample_token, keys, ByteStream(5))
    with pytest.raises(crypto.DecryptionFailure):
        open_token(sealed, other)


def test_key_material_refuses_a_box_public_of_another_secret(keys):
    other = new_key_material(ByteStream(100))
    with pytest.raises(ValueError):
        KeyMaterial(keys.box_secret, other.box_public, keys.symmetric_key)


def test_inner_layer_failure_is_distinguished(sample_token, keys):
    """Outer box opens but the embedded id was encrypted under a different
    symmetric key: the failure names the inner layer."""
    hybrid = KeyMaterial(keys.box_secret, keys.box_public,
                         new_key_material(ByteStream(100)).symmetric_key)
    sealed = seal_token(sample_token, hybrid, ByteStream(5))
    with pytest.raises(TokenIdDecryptionFailure):
        open_token(sealed, keys)


def test_sealing_is_deterministic_per_stream(sample_token, keys):
    a = seal_token(sample_token, keys, ByteStream(5))
    b = seal_token(sample_token, keys, ByteStream(5))
    c = seal_token(sample_token, keys, ByteStream(6))
    assert a == b
    assert a != c


def test_verify_token_reports_mismatched_fields(sample_token, keyset):
    other = Token(sample_token.amount + 1, sample_token.cert_customer,
                  sample_token.cert_merchant, sample_token.token_id,
                  sample_token.timestamp + 1)
    assert verify_token(other, sample_token) == ("amount", "timestamp")
    assert verify_token(sample_token, sample_token) == ()


# -- the mint -------------------------------------------------------------------

def test_mint_issues_unique_ids(keyset):
    mint = TokenMint(ByteStream(3),
                     crypto.CertificateChecks(keyset.root_public))
    seen = set()
    for i in range(500):
        token = mint.generate_token(10, keyset.cert_customer,
                                    keyset.cert_merchant, i)
        assert token.token_id not in seen
        seen.add(token.token_id)
    assert mint.issued_count == 500


def test_mint_rejects_uncertified_parties(keyset):
    mint = TokenMint(ByteStream(3),
                     crypto.CertificateChecks(keyset.root_public))
    forged = crypto.Certificate("C9", keyset.cert_customer.public_key,
                                keyset.cert_customer.signature)
    with pytest.raises(crypto.AuthFailure):
        mint.generate_token(10, forged, keyset.cert_merchant, 0)
    with pytest.raises(crypto.AuthFailure):
        mint.generate_token(10, keyset.cert_customer, forged, 0)


def test_mint_duplicate_lookup_and_settle(keyset):
    mint = TokenMint(ByteStream(3),
                     crypto.CertificateChecks(keyset.root_public))
    token = mint.generate_token(10, keyset.cert_customer,
                                keyset.cert_merchant, 0)
    assert mint.duplicate_of(token.token_id) == token
    mint.settle(token.token_id)
    with pytest.raises(AlreadySettled):
        mint.duplicate_of(token.token_id)
    with pytest.raises(AlreadySettled):
        mint.settle(token.token_id)


def test_mint_unknown_and_revoked(keyset):
    mint = TokenMint(ByteStream(3),
                     crypto.CertificateChecks(keyset.root_public))
    with pytest.raises(UnknownTokenId):
        mint.duplicate_of(bytes(32))
    with pytest.raises(UnknownTokenId):
        mint.settle(bytes(32))
    token = mint.generate_token(10, keyset.cert_customer,
                                keyset.cert_merchant, 0)
    mint.revoke(token.token_id)
    with pytest.raises(RevokedToken):
        mint.duplicate_of(token.token_id)


def test_mint_revocation_outranks_settlement(keyset):
    mint = TokenMint(ByteStream(3),
                     crypto.CertificateChecks(keyset.root_public))
    token = mint.generate_token(10, keyset.cert_customer,
                                keyset.cert_merchant, 0)
    mint.settle(token.token_id)
    mint.revoke(token.token_id)
    with pytest.raises(RevokedToken):
        mint.duplicate_of(token.token_id)
