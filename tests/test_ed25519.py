"""Ed25519 by libsodium: agreement with ``cryptography``, the verdicts where
libsodium is stricter, and the guards in front of every C call."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from tset import crypto

from conftest import send_checks

SRC = Path(__file__).resolve().parents[1] / "src"

# The order of the Ed25519 base point.
L = 2**252 + 27742317777372353535851937790883648493
# The encoding of the identity point, a point of small order.
IDENTITY = b"\x01" + bytes(31)


def reference_verdict(public_key: bytes, signature: bytes,
                      data: bytes) -> bool:
    try:
        Ed25519PublicKey.from_public_bytes(public_key).verify(signature, data)
        return True
    except InvalidSignature:
        return False


def flipped(blob: bytes, bit: int) -> bytes:
    out = bytearray(blob)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


@pytest.fixture()
def signed():
    key = crypto.SigningKey(bytes(range(32)))
    data = b"x" * 400
    return key, crypto.sign(key, data), data


# -- agreement with cryptography ----------------------------------------------

@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(seed=st.binary(min_size=32, max_size=32),
       message=st.binary(max_size=600), data=st.data())
def test_sign_and_verify_agree_with_cryptography(seed, message, data):
    key = crypto.SigningKey(seed)
    reference = Ed25519PrivateKey.from_private_bytes(seed)
    assert key.public_key == reference.public_key().public_bytes_raw()
    signature = crypto.sign(key, message)
    assert signature == reference.sign(message)
    assert crypto.verify(key.public_key, signature, message) is True
    assert reference_verdict(key.public_key, signature, message)

    cases = [
        (key.public_key,
         flipped(signature, data.draw(st.integers(0, 8 * 64 - 1))),
         message),
        (flipped(key.public_key, data.draw(st.integers(0, 8 * 32 - 1))),
         signature, message),
    ]
    if message:
        cases.append((key.public_key, signature, flipped(
            message, data.draw(st.integers(0, 8 * len(message) - 1)))))
    for case in cases:
        assert crypto.verify(*case) is reference_verdict(*case)


def test_the_identity_key_and_signature_are_refused_where_openssl_accepts():
    signature = IDENTITY + bytes(32)        # R = identity, S = 0
    assert reference_verdict(IDENTITY, signature, b"data")
    assert not crypto.verify(IDENTITY, signature, b"data")


def test_a_scalar_not_below_the_group_order_is_refused(signed):
    key, signature, data = signed
    s = int.from_bytes(signature[32:], "little") + L
    unreduced = signature[:32] + s.to_bytes(32, "little")
    assert not crypto.verify(key.public_key, unreduced, data)
    assert not reference_verdict(key.public_key, unreduced, data)


# -- the guards in front of the C calls ---------------------------------------

def _refuse_c_calls(monkeypatch) -> list:
    """Replace the three libsodium calls with ones that record their
    arguments and fail the test."""
    calls = []

    def record(*args):
        calls.append(args)
        raise AssertionError("a C call was made")

    for name in ("_seed_keypair", "_sign_detached", "_verify_detached"):
        monkeypatch.setattr(crypto, name, record)
    return calls


@pytest.mark.parametrize("length", [0, 63, 65])
def test_a_signature_of_another_length_is_refused_unread(signed, monkeypatch,
                                                         length):
    key, signature, data = signed
    bad = (signature + b"\x00")[:length]
    calls = _refuse_c_calls(monkeypatch)
    assert crypto.verify(key.public_key, bad, data) is False
    assert calls == []


@pytest.mark.parametrize("length", [31, 33])
def test_a_key_or_seed_of_another_length_is_a_value_error(signed, monkeypatch,
                                                          length):
    key, signature, data = signed
    calls = _refuse_c_calls(monkeypatch)
    with pytest.raises(ValueError):
        crypto.verify((key.public_key + b"\x00")[:length], signature, data)
    with pytest.raises(ValueError):
        crypto.SigningKey(bytes(length))
    with pytest.raises(ValueError):
        crypto.CertificateChecks(bytes(length))
    assert calls == []


def test_a_str_or_memoryview_is_never_passed_as_a_pointer(signed,
                                                          monkeypatch):
    key, signature, data = signed
    calls = _refuse_c_calls(monkeypatch)
    for wrong in (str, memoryview):
        def as_wrong(blob):
            return blob.hex() if wrong is str else memoryview(blob)
        with pytest.raises(TypeError):
            crypto.verify(as_wrong(key.public_key), signature, data)
        with pytest.raises(TypeError):
            crypto.verify(key.public_key, as_wrong(signature), data)
        with pytest.raises(TypeError):
            crypto.verify(key.public_key, signature, as_wrong(data))
        with pytest.raises(TypeError):
            crypto.sign(key, as_wrong(data))
        with pytest.raises(TypeError):
            crypto.SigningKey(as_wrong(bytes(32)))
    assert calls == []


def test_the_helper_answers_0_unread_for_a_signature_of_another_length(
        signed, monkeypatch):
    """``_serve``, run here on framed checks: every signature whose framed
    length is not 64 is answered 0 without a C call; the honest one is
    verified."""
    key, signature, data = signed
    bad = [b"", signature[:63], signature + b"\x00"]
    verified = []
    real = crypto._verify_detached

    def recorded(sig, message, length, public_key):
        verified.append(sig)
        return real(sig, message, length, public_key)

    monkeypatch.setattr(crypto, "_verify_detached", recorded)
    checks_in, checks_out = os.pipe()
    answers_in, answers_out = os.pipe()
    try:
        for sig in bad + [signature]:
            os.write(checks_out, crypto._CHECK.pack(
                key.public_key, len(sig), len(data)) + sig + data)
        os.close(checks_out)
        crypto._serve(checks_in, answers_out)
        assert os.read(answers_in, 16) == b"\x00\x00\x00\x01"
        assert verified == [signature]
    finally:
        for fd in (checks_in, answers_in, answers_out):
            os.close(fd)


@pytest.mark.parametrize("length", [0, 63, 65])
def test_the_helper_refuses_a_signature_of_another_length(signed, length):
    key, signature, data = signed
    bad = (signature + b"\x00")[:length]
    good, wrong = send_checks(crypto.helper(), [
        (key.public_key, signature, data), (key.public_key, bad, data)])
    assert good.valid() is True
    assert wrong.valid() is False


def test_without_libsodium_the_import_fails_naming_it():
    program = (
        "import ctypes\n"
        "def missing(name, *args, **kwargs):\n"
        "    raise OSError(name + ': cannot open shared object file')\n"
        "ctypes.CDLL = missing\n"
        "try:\n"
        "    import tset.crypto\n"
        "except ImportError as exc:\n"
        "    print(exc)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", program], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert "libsodium" in out
