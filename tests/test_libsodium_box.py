"""The seeded stream and sealing by libsodium, against ``cryptography``.

``cryptography`` is a test-only reference here, as in test_ed25519.py:
each primitive is rebuilt from its ChaCha20, X25519, HKDF and AESGCM, and
the program's bytes must equal the reference's on derandomised inputs.
"""

import hashlib

import pytest
from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers import Cipher
from cryptography.hazmat.primitives.ciphers.algorithms import ChaCha20
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.kdf.hkdf import HKDF
from hypothesis import given, settings
from hypothesis import strategies as st

from tset import crypto
from tset.rng import ByteStream

SETTINGS = settings(derandomize=True, database=None, deadline=None,
                    max_examples=150)
seeds = st.one_of(st.integers(0, 2**64), st.binary(max_size=40))
labels = st.lists(st.text(max_size=8), max_size=3)
# Sizes up to three blocks, so that takes straddle the 64-byte blocks of
# the keystream, and zero among them.
sizes = st.lists(st.integers(0, 200), max_size=12)
messages = st.binary(max_size=300)


class ReferenceStream:
    """ByteStream as it was built on ``cryptography``'s ChaCha20."""

    def __init__(self, key: bytes):
        self.key = key
        self._enc = Cipher(ChaCha20(key, bytes(16)), mode=None).encryptor()

    @classmethod
    def of_seed(cls, seed) -> "ReferenceStream":
        seed_bytes = seed if isinstance(seed, bytes) else str(seed).encode()
        return cls(hashlib.sha256(b"tset/stream:" + seed_bytes).digest())

    def take(self, n: int) -> bytes:
        return self._enc.update(bytes(n))

    def fork(self, label: str) -> "ReferenceStream":
        return ReferenceStream(
            hashlib.sha256(self.key + b"/" + label.encode()).digest())


def forked(stream, path):
    for label in path:
        stream = stream.fork(label)
    return stream


def reference_box_key(shared: bytes, eph_pub: bytes,
                      recipient_pub: bytes) -> bytes:
    return HKDF(algorithm=hashes.SHA256(), length=32, salt=None,
                info=b"tset/box" + eph_pub + recipient_pub).derive(shared)


def reference_seal(recipient_public: bytes, plaintext: bytes,
                   rng: ReferenceStream) -> bytes:
    eph = X25519PrivateKey.from_private_bytes(rng.take(32))
    eph_pub = eph.public_key().public_bytes_raw()
    shared = eph.exchange(X25519PublicKey.from_public_bytes(recipient_public))
    key = reference_box_key(shared, eph_pub, recipient_public)
    nonce = rng.take(crypto.NONCE_LEN)
    return eph_pub + nonce + AESGCM(key).encrypt(nonce, plaintext, eph_pub)


def reference_open(secret: bytes, recipient_public: bytes,
                   blob: bytes) -> bytes:
    eph_pub, nonce, ct = blob[:32], blob[32:44], blob[44:]
    shared = X25519PrivateKey.from_private_bytes(secret).exchange(
        X25519PublicKey.from_public_bytes(eph_pub))
    key = reference_box_key(shared, eph_pub, recipient_public)
    return AESGCM(key).decrypt(nonce, ct, eph_pub)


@SETTINGS
@given(seed=seeds, path=labels, takes=sizes)
def test_stream_bytes_equal_the_reference(seed, path, takes):
    ours = forked(ByteStream(seed), path)
    reference = forked(ReferenceStream.of_seed(seed), path)
    for n in takes:
        assert ours.take(n) == reference.take(n)


@SETTINGS
@given(seed=seeds, path=st.lists(st.text(max_size=8), min_size=1, max_size=3),
       skip=st.integers(0, 200))
def test_a_fork_ignores_what_its_parent_took(seed, path, skip):
    parent = ByteStream(seed)
    parent.take(skip)
    assert forked(parent, path).take(80) \
        == forked(ReferenceStream.of_seed(seed), path).take(80)


@SETTINGS
@given(seed=seeds, skip=st.integers(0, 200))
def test_new_box_keypair_equals_the_reference(seed, skip):
    rng, reference = ByteStream(seed), ReferenceStream.of_seed(seed)
    rng.take(skip)
    reference.take(skip)
    secret, public = crypto.new_box_keypair(rng)
    key = X25519PrivateKey.from_private_bytes(reference.take(32))
    assert secret == key.private_bytes_raw()
    assert public == key.public_key().public_bytes_raw()
    assert crypto.box_public_key(secret) == public


@SETTINGS
@given(seed=seeds, plaintext=messages)
def test_seal_box_bytes_equal_the_reference(seed, plaintext):
    rng, reference = ByteStream(seed), ReferenceStream.of_seed(seed)
    _, public = crypto.new_box_keypair(rng)
    reference.take(32)
    assert crypto.seal_box(public, plaintext, rng) \
        == reference_seal(public, plaintext, reference)
    # Both streams are still in step.
    assert rng.take(16) == reference.take(16)


@SETTINGS
@given(seed=seeds, plaintext=messages, bit=st.integers(0, 8 * 60 - 1))
def test_open_box_opens_either_librarys_blobs_and_refuses_alike(
        seed, plaintext, bit):
    rng = ByteStream(seed)
    secret, public = crypto.new_box_keypair(rng)
    ours = crypto.seal_box(public, plaintext, rng)
    theirs = reference_seal(public, plaintext,
                            ReferenceStream.of_seed(seed).fork("reference"))
    for blob in (ours, theirs):
        assert crypto.open_box(secret, public, blob) == plaintext
        assert reference_open(secret, public, blob) == plaintext
        flipped = bytearray(blob)
        flipped[bit // 8] ^= 1 << (bit % 8)
        with pytest.raises(crypto.DecryptionFailure):
            crypto.open_box(secret, public, bytes(flipped))
        with pytest.raises((InvalidTag, ValueError)):
            reference_open(secret, public, bytes(flipped))


@SETTINGS
@given(seed=seeds, plaintext=messages, aad=st.binary(max_size=40))
def test_sym_encrypt_and_decrypt_equal_the_reference(seed, plaintext, aad):
    rng, reference = ByteStream(seed), ReferenceStream.of_seed(seed)
    key = rng.take(32)
    assert key == reference.take(32)
    blob = crypto.sym_encrypt(key, plaintext, aad, rng)
    nonce = reference.take(crypto.NONCE_LEN)
    assert blob == nonce + AESGCM(key).encrypt(nonce, plaintext, aad)
    assert crypto.sym_decrypt(key, blob, aad) == plaintext
    other = ReferenceStream.of_seed(seed).fork("nonce").take(crypto.NONCE_LEN)
    assert crypto.sym_decrypt(
        key, other + AESGCM(key).encrypt(other, plaintext, aad), aad) \
        == plaintext
