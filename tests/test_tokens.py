"""Wire format, sealing, verification, and mint behavior.

The canonical byte layout is pinned twice: once against an independent
struct.pack construction in the test and once against frozen golden values,
so a change to either the framing or the certificate encoding fails loudly.
"""

import hashlib
import struct

import pytest

from tset import crypto
from tset.rng import ByteStream
from tset.tokens import (
    AlreadySettled,
    KeyMaterial,
    MalformedBytes,
    RevokedToken,
    SealedToken,
    Token,
    TokenIdDecryptionFailure,
    TokenMint,
    UnknownTokenId,
    canonical_deserialize,
    canonical_serialize,
    new_key_material,
    seal_token,
    open_token,
    verify_token,
)

# Frozen from the layout definition: seed-42 certificates, amount 15000,
# token id 00..1f, timestamp 7.
GOLDEN_WIRE_LEN = 256
GOLDEN_WIRE_SHA256 = (
    "0a419e1878fb398972c86b769e48c7a0f13a0f82e58a00c297abed9d1de98f59")


def independent_wire(token: Token) -> bytes:
    """Oracle: rebuild the documented layout without canonical_serialize."""
    cert_c = crypto.encode_certificate(token.cert_customer)
    cert_m = crypto.encode_certificate(token.cert_merchant)
    return (struct.pack(">Q", token.amount)
            + struct.pack(">I", len(cert_c)) + cert_c
            + struct.pack(">I", len(cert_m)) + cert_m
            + token.token_id
            + struct.pack(">Q", token.timestamp))


def test_wire_matches_independent_oracle(sample_token):
    assert canonical_serialize(sample_token) == independent_wire(sample_token)


def test_wire_matches_golden_pin(sample_token):
    wire = canonical_serialize(sample_token)
    assert len(wire) == GOLDEN_WIRE_LEN
    assert hashlib.sha256(wire).hexdigest() == GOLDEN_WIRE_SHA256


def test_wire_field_positions(sample_token):
    wire = canonical_serialize(sample_token)
    assert wire[:8] == struct.pack(">Q", 15000)
    (clen,) = struct.unpack_from(">I", wire, 8)
    assert clen == 100
    assert wire[-8:] == struct.pack(">Q", 7)
    assert wire[-40:-8] == bytes(range(32))


def test_roundtrip(sample_token):
    assert canonical_deserialize(canonical_serialize(sample_token)) \
        == sample_token


def test_deserialize_rejects_truncation(sample_token):
    wire = canonical_serialize(sample_token)
    for cut in (0, 1, 7, 8, 11, 50, len(wire) - 1):
        with pytest.raises(MalformedBytes):
            canonical_deserialize(wire[:cut])


def test_deserialize_rejects_trailing_bytes(sample_token):
    with pytest.raises(MalformedBytes):
        canonical_deserialize(canonical_serialize(sample_token) + b"\x00")


def test_wire_never_silently_absorbs_a_bit_flip(sample_token):
    """Flipping any single bit either fails to parse or yields a token that
    compares unequal; no flip can round-trip back to the original."""
    wire = canonical_serialize(sample_token)
    for byte in range(len(wire)):
        for bit in range(8):
            mutated = bytearray(wire)
            mutated[byte] ^= 1 << bit
            try:
                token = canonical_deserialize(bytes(mutated))
            except MalformedBytes:
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

@pytest.fixture()
def keys():
    return new_key_material(ByteStream(99))


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
    assert not mint.is_settled(token.token_id)
    mint.settle(token.token_id)
    assert mint.is_settled(token.token_id)
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
