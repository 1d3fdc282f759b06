import pytest

from tset import crypto
from tset.rng import ByteStream


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
    assert crypto.open_box(crypto.load_box_key(secret), public, blob) \
        == b"secret message"


def test_box_rejects_wrong_recipient(rng):
    _, public = crypto.new_box_keypair(rng)
    other_secret, other_public = crypto.new_box_keypair(rng)
    blob = crypto.seal_box(public, b"secret message", rng)
    with pytest.raises(crypto.DecryptionFailure):
        crypto.open_box(crypto.load_box_key(other_secret), other_public,
                        blob)


def test_box_rejects_any_bit_flip(rng):
    secret, public = crypto.new_box_keypair(rng)
    key = crypto.load_box_key(secret)
    blob = crypto.seal_box(public, b"msg", rng)
    for i in range(len(blob)):
        flipped = bytearray(blob)
        flipped[i] ^= 0x80
        with pytest.raises(crypto.DecryptionFailure):
            crypto.open_box(key, public, bytes(flipped))


def test_box_rejects_short_blob(rng):
    secret, public = crypto.new_box_keypair(rng)
    with pytest.raises(crypto.DecryptionFailure):
        crypto.open_box(crypto.load_box_key(secret), public, b"\x00" * 40)


def test_box_envelope_layout(rng):
    secret, public = crypto.new_box_keypair(rng)
    blob = crypto.seal_box(public, b"x" * 10, rng)
    # [32B ephemeral public][12B nonce][ciphertext + 16B tag]
    assert len(blob) == 32 + 12 + 10 + 16


def test_deterministic_under_seed():
    a = ByteStream(77)
    b = ByteStream(77)
    _, pub_a = crypto.new_box_keypair(a)
    _, pub_b = crypto.new_box_keypair(b)
    assert pub_a == pub_b
    assert crypto.seal_box(pub_a, b"m", a) == crypto.seal_box(pub_b, b"m", b)
