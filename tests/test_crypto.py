import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from tset import crypto
from tset.rng import ByteStream

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture()
def rng():
    return ByteStream(1234)


def test_sign_verify_roundtrip(rng):
    key = crypto.new_signing_key(rng)
    pub = key.public_key
    sig = crypto.sign(key, b"hello")
    assert crypto.verify(pub, sig, b"hello")
    assert not crypto.verify(pub, sig, b"hullo")


def test_verify_rejects_garbage_key(rng):
    key = crypto.new_signing_key(rng)
    sig = crypto.sign(key, b"data")
    assert not crypto.verify(b"\x00" * 32, sig, b"data")


# -- certificates -----------------------------------------------------------

def test_certificate_verifies_under_root(keyset):
    assert crypto.verify_certificate(keyset.cert_customer, keyset.root_public)


def test_certificate_rejects_wrong_root(keyset, rng):
    other_root = crypto.new_signing_key(rng)
    assert not crypto.verify_certificate(keyset.cert_customer,
                                         other_root.public_key)


def test_certificate_rejects_subject_swap(keyset):
    forged = crypto.Certificate("M0", keyset.cert_customer.public_key,
                                keyset.cert_customer.signature)
    assert not crypto.verify_certificate(forged, keyset.root_public)


def test_certificate_checks_verify_each_certificate_once(keyset,
                                                          monkeypatch):
    seen = []
    real = crypto.verify_certificate

    def counted(cert, root_public):
        seen.append(cert)
        return real(cert, root_public)

    monkeypatch.setattr(crypto, "verify_certificate", counted)
    certs = crypto.CertificateChecks(keyset.root_public)
    for _ in range(3):
        assert certs.valid(keyset.cert_customer)
        assert certs.valid(keyset.cert_merchant)
    assert seen == [keyset.cert_customer, keyset.cert_merchant]

    # A forged or altered certificate is another value: checked, refused.
    forged = crypto.Certificate("M0", keyset.cert_customer.public_key,
                                keyset.cert_customer.signature)
    altered = crypto.Certificate("C0", keyset.cert_customer.public_key,
                                 bytes(64))
    for _ in range(2):
        assert not certs.valid(forged)
        assert not certs.valid(altered)
    assert seen[2:] == [forged, altered]


def test_certificate_checks_belong_to_one_root(keyset, rng):
    other_root = crypto.new_signing_key(rng)
    other = crypto.CertificateChecks(other_root.public_key)
    assert crypto.CertificateChecks(keyset.root_public).valid(
        keyset.cert_customer)
    assert not other.valid(keyset.cert_customer)


def test_certificate_encode_decode_roundtrip(keyset):
    blob = crypto.encode_certificate(keyset.cert_merchant)
    assert crypto.decode_certificate(blob) == keyset.cert_merchant


def test_certificate_decode_rejects_bad_length(keyset):
    blob = crypto.encode_certificate(keyset.cert_merchant)
    with pytest.raises(ValueError):
        crypto.decode_certificate(blob[:-1])
    with pytest.raises(ValueError):
        crypto.decode_certificate(blob + b"\x00")
    with pytest.raises(ValueError):
        crypto.decode_certificate(b"\x00")


def test_certificate_field_validation():
    with pytest.raises(ValueError):
        crypto.Certificate("", b"\x00" * 32, b"\x00" * 64)
    with pytest.raises(ValueError):
        crypto.Certificate("C0", b"\x00" * 31, b"\x00" * 64)
    with pytest.raises(ValueError):
        crypto.Certificate("C0", b"\x00" * 32, b"\x00" * 63)


# -- symmetric layer ----------------------------------------------------------

def test_sym_roundtrip(rng):
    key = rng.take(32)
    blob = crypto.sym_encrypt(key, b"payload", b"aad", rng)
    assert crypto.sym_decrypt(key, blob, b"aad") == b"payload"


def test_sym_rejects_wrong_key(rng):
    blob = crypto.sym_encrypt(rng.take(32), b"payload", b"aad", rng)
    with pytest.raises(crypto.DecryptionFailure):
        crypto.sym_decrypt(b"\x01" * 32, blob, b"aad")


def test_sym_rejects_wrong_aad(rng):
    key = rng.take(32)
    blob = crypto.sym_encrypt(key, b"payload", b"aad", rng)
    with pytest.raises(crypto.DecryptionFailure):
        crypto.sym_decrypt(key, blob, b"other")


def test_sym_rejects_any_bit_flip(rng):
    key = rng.take(32)
    blob = crypto.sym_encrypt(key, b"payload", b"aad", rng)
    for i in range(len(blob)):
        flipped = bytearray(blob)
        flipped[i] ^= 0x01
        with pytest.raises(crypto.DecryptionFailure):
            crypto.sym_decrypt(key, bytes(flipped), b"aad")


def test_sym_rejects_short_blob(rng):
    with pytest.raises(crypto.DecryptionFailure):
        crypto.sym_decrypt(rng.take(32), b"short", b"")


# -- hybrid box ---------------------------------------------------------------

def test_box_roundtrip(rng):
    secret, public = crypto.new_box_keypair(rng)
    blob = crypto.seal_box(public, b"secret message", rng)
    assert crypto.open_box(secret, public, blob) == b"secret message"


def test_box_rejects_wrong_recipient(rng):
    _, public = crypto.new_box_keypair(rng)
    other_secret, other_public = crypto.new_box_keypair(rng)
    blob = crypto.seal_box(public, b"secret message", rng)
    with pytest.raises(crypto.DecryptionFailure):
        crypto.open_box(other_secret, other_public, blob)


def test_box_rejects_any_bit_flip(rng):
    secret, public = crypto.new_box_keypair(rng)
    blob = crypto.seal_box(public, b"msg", rng)
    for i in range(len(blob)):
        flipped = bytearray(blob)
        flipped[i] ^= 0x80
        with pytest.raises(crypto.DecryptionFailure):
            crypto.open_box(secret, public, bytes(flipped))


def test_box_rejects_short_blob(rng):
    secret, public = crypto.new_box_keypair(rng)
    with pytest.raises(crypto.DecryptionFailure):
        crypto.open_box(secret, public, b"\x00" * 40)


def test_box_envelope_layout(rng):
    secret, public = crypto.new_box_keypair(rng)
    blob = crypto.seal_box(public, b"x" * 10, rng)
    # [32B ephemeral public][12B nonce][ciphertext + 16B tag]
    assert len(blob) == 32 + 12 + 10 + 16


P = 2**255 - 19
# X25519 public keys of small order, each of which makes the shared secret
# all zero: u = 0 and 1, the two points of order 8, u = p - 1 (order 2),
# p and p + 1 (0 and 1 again, unreduced), and 0 and 1 with bit 255 set,
# which X25519 ignores.
SMALL_ORDER = [
    bytes(32),
    (1).to_bytes(32, "little"),
    bytes.fromhex("e0eb7a7c3b41b8ae1656e3faf19fc46a"
                  "da098deb9c32b1fd866205165f49b800"),
    bytes.fromhex("5f9c95bca3508c24b1d0b1559c83ef5b"
                  "04445cc4581c8e86d8224eddd09f1157"),
    (P - 1).to_bytes(32, "little"),
    P.to_bytes(32, "little"),
    (P + 1).to_bytes(32, "little"),
    (2**255).to_bytes(32, "little"),
    (2**255 + 1).to_bytes(32, "little"),
]


@pytest.mark.parametrize("point", SMALL_ORDER, ids=lambda p: p.hex()[:8])
def test_a_small_order_key_is_refused_both_ways(rng, point):
    secret, public = crypto.new_box_keypair(rng)
    envelope = point + rng.take(crypto.NONCE_LEN) + bytes(16)
    with pytest.raises(crypto.DecryptionFailure,
                       match="^invalid ephemeral key$"):
        crypto.open_box(secret, public, envelope)
    with pytest.raises(ValueError):
        crypto.seal_box(point, b"message", rng)


def test_the_box_and_symmetric_layers_take_only_bytes(rng):
    secret, public = crypto.new_box_keypair(rng)
    blob = crypto.seal_box(public, b"m", rng)
    key = rng.take(32)
    sealed = crypto.sym_encrypt(key, b"m", b"aad", rng)
    for wrong in (memoryview, lambda blob: blob.hex()):
        calls = [
            lambda: crypto.box_public_key(wrong(secret)),
            lambda: crypto.seal_box(wrong(public), b"m", rng),
            lambda: crypto.seal_box(public, wrong(b"m"), rng),
            lambda: crypto.open_box(wrong(secret), public, blob),
            lambda: crypto.open_box(secret, public, wrong(blob)),
            lambda: crypto.sym_encrypt(wrong(key), b"m", b"aad", rng),
            lambda: crypto.sym_encrypt(key, wrong(b"m"), b"aad", rng),
            lambda: crypto.sym_encrypt(key, b"m", wrong(b"aad"), rng),
            lambda: crypto.sym_decrypt(wrong(key), sealed, b"aad"),
            lambda: crypto.sym_decrypt(key, wrong(sealed), b"aad"),
            lambda: crypto.sym_decrypt(key, sealed, wrong(b"aad"))]
        for call in calls:
            with pytest.raises(TypeError):
                call()


def test_a_box_or_symmetric_key_of_another_length_is_a_value_error(rng):
    secret, public = crypto.new_box_keypair(rng)
    blob = crypto.seal_box(public, b"m", rng)
    for length in (31, 33):
        with pytest.raises(ValueError):
            crypto.box_public_key((secret + b"\x00")[:length])
        with pytest.raises(ValueError):
            crypto.seal_box((public + b"\x00")[:length], b"m", rng)
        with pytest.raises(ValueError):
            crypto.open_box((secret + b"\x00")[:length], public, blob)
        with pytest.raises(ValueError):
            crypto.sym_encrypt(bytes(length), b"m", b"aad", rng)
        with pytest.raises(ValueError):
            crypto.sym_decrypt(bytes(length), blob[32:], b"aad")


class _NoAesGcm:
    """A libsodium that initialises but has no AES-256-GCM for this CPU:
    every call returns 0."""

    def __getattr__(self, name):
        return lambda *args: 0


def test_without_aes_gcm_the_import_fails_naming_its_check(monkeypatch):
    monkeypatch.setattr(crypto.ctypes, "CDLL", lambda name: _NoAesGcm())
    with pytest.raises(ImportError, match=re.escape(
            "crypto_aead_aes256gcm_is_available()")):
        crypto._load_sodium()


def test_the_program_loads_no_cryptography_module():
    program = ("import sys\n"
               "import tset.cli\n"
               "print(sorted(name for name in sys.modules\n"
               "             if name.split('.')[0] == 'cryptography'))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", program], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


def test_deterministic_under_seed():
    a = ByteStream(77)
    b = ByteStream(77)
    _, pub_a = crypto.new_box_keypair(a)
    _, pub_b = crypto.new_box_keypair(b)
    assert pub_a == pub_b
    assert crypto.seal_box(pub_a, b"m", a) == crypto.seal_box(pub_b, b"m", b)
