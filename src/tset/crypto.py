"""Signatures, certificates, and the two encryption primitives.

Certificates are a minimal in-model PKI: one root signing key per run signs
(subject, public key) pairs, and every entity checks certificates against
the root public key through the run's shared CertificateChecks.  That
checks each certificate once and keeps the loaded public key of each one
that checks out, so a hop signature is verified against a key parsed once
per world; every signature is still verified on every call.  A
certificate builds its canonical JSON once, when it is built.
Asymmetric sealing is hybrid: an ephemeral X25519 exchange feeds HKDF-SHA256,
and the derived key runs AES-256-GCM.  Both the hybrid and the plain
symmetric primitive are authenticated, so any bit flip in a sealed blob
fails the tag check.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

from cryptography.exceptions import InvalidSignature, InvalidTag
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.kdf.hkdf import HKDF

from .rng import ByteStream


class DecryptionFailure(Exception):
    """Authenticated decryption failed: wrong key or modified ciphertext."""


class AuthFailure(Exception):
    """A signature or certificate did not verify."""


NONCE_LEN = 12
X25519_KEY_LEN = 32
SIG_LEN = 64


# ---------------------------------------------------------------------------
# Signing

def new_signing_key(rng: ByteStream) -> Ed25519PrivateKey:
    return Ed25519PrivateKey.from_private_bytes(rng.take(32))


def sign(key: Ed25519PrivateKey, data: bytes) -> bytes:
    return key.sign(data)


def load_public_key(raw: bytes) -> Ed25519PublicKey:
    """The Ed25519 public key of its raw 32 bytes."""
    return Ed25519PublicKey.from_public_bytes(raw)


def verify(public_key: Ed25519PublicKey, signature: bytes,
           data: bytes) -> bool:
    try:
        public_key.verify(signature, data)
        return True
    except InvalidSignature:
        return False


# ---------------------------------------------------------------------------
# Certificates

@dataclass(frozen=True)
class Certificate:
    """Root-signed binding of an entity name to its signing public key."""

    subject: str
    public_key: bytes
    signature: bytes

    def __post_init__(self):
        if not self.subject:
            raise ValueError("certificate subject must be non-empty")
        if len(self.public_key) != 32:
            raise ValueError("certificate public key must be 32 bytes")
        if len(self.signature) != SIG_LEN:
            raise ValueError("certificate signature must be 64 bytes")
        # Its canonical JSON object, as json writes it with sorted keys and
        # ensure_ascii.  Not a field, so equality and hashing ignore it.
        object.__setattr__(self, "canonical_json", (
            '{"public_key":"%s","signature":"%s","subject":%s}'
            % (self.public_key.hex(), self.signature.hex(),
               encode_basestring_ascii(self.subject))))


def _cert_signing_bytes(subject: str, public_key: bytes) -> bytes:
    s = subject.encode()
    return b"tset/cert" + struct.pack(">H", len(s)) + s + public_key


def issue_certificate(root_key: Ed25519PrivateKey, subject: str,
                      public_key: bytes) -> Certificate:
    sig = root_key.sign(_cert_signing_bytes(subject, public_key))
    return Certificate(subject, public_key, sig)


def verify_certificate(cert: Certificate, root_public: bytes) -> bool:
    return verify(load_public_key(root_public), cert.signature,
                  _cert_signing_bytes(cert.subject, cert.public_key))


class CertificateChecks:
    """Certificate checks against one root key, each made once.

    Kept per certificate value: the loaded public key of a certificate that
    verifies against the root, None for one that does not.  Every distinct
    certificate is verified the first time it is presented; a forged or
    altered one is a different value and is verified (and refused) in turn.
    Only the certificate check and the parsing of its key are kept: a
    signature made with the key is verified on every call.  One instance
    serves one world: what it keeps is bounded by the certificates that
    world sees.
    """

    def __init__(self, root_public: bytes):
        self.root_public = root_public
        self._keys: dict[Certificate, Ed25519PublicKey | None] = {}

    def key(self, cert: Certificate) -> Ed25519PublicKey | None:
        """The subject's loaded key if ``cert`` is root-signed, else None."""
        try:
            return self._keys[cert]
        except KeyError:
            key = (load_public_key(cert.public_key)
                   if verify_certificate(cert, self.root_public) else None)
            self._keys[cert] = key
            return key

    def valid(self, cert: Certificate) -> bool:
        return self.key(cert) is not None


def encode_certificate(cert: Certificate) -> bytes:
    """[2B subject len][subject utf-8][32B public key][64B signature]"""
    s = cert.subject.encode()
    return struct.pack(">H", len(s)) + s + cert.public_key + cert.signature


def decode_certificate(data: bytes) -> Certificate:
    if len(data) < 2:
        raise ValueError("certificate truncated")
    (slen,) = struct.unpack_from(">H", data, 0)
    need = 2 + slen + 32 + SIG_LEN
    if len(data) != need:
        raise ValueError("certificate length mismatch")
    subject = data[2:2 + slen].decode()
    pk = data[2 + slen:2 + slen + 32]
    sig = data[2 + slen + 32:]
    return Certificate(subject, pk, sig)


# ---------------------------------------------------------------------------
# Symmetric authenticated encryption

def sym_encrypt(key: bytes, plaintext: bytes, aad: bytes, rng: ByteStream) -> bytes:
    """[12B nonce][ciphertext+tag] under AES-256-GCM."""
    nonce = rng.take(NONCE_LEN)
    return nonce + AESGCM(key).encrypt(nonce, plaintext, aad)


def sym_decrypt(key: bytes, blob: bytes, aad: bytes) -> bytes:
    if len(blob) < NONCE_LEN + 16:
        raise DecryptionFailure("ciphertext too short")
    try:
        return AESGCM(key).decrypt(blob[:NONCE_LEN], blob[NONCE_LEN:], aad)
    except InvalidTag as exc:
        raise DecryptionFailure("authentication tag mismatch") from exc


# ---------------------------------------------------------------------------
# Hybrid public-key sealing (ephemeral X25519 + HKDF-SHA256 + AES-256-GCM)

def new_box_keypair(rng: ByteStream) -> tuple[bytes, bytes]:
    """Returns (secret, public) raw 32-byte X25519 keys."""
    priv = X25519PrivateKey.from_private_bytes(rng.take(32))
    return (priv.private_bytes_raw(), priv.public_key().public_bytes_raw())


def load_box_key(secret: bytes) -> X25519PrivateKey:
    """The X25519 private key of its raw 32 bytes."""
    return X25519PrivateKey.from_private_bytes(secret)


def _box_key(shared: bytes, eph_pub: bytes, recipient_pub: bytes) -> bytes:
    return HKDF(algorithm=hashes.SHA256(), length=32, salt=None,
                info=b"tset/box" + eph_pub + recipient_pub).derive(shared)


def seal_box(recipient_public: bytes, plaintext: bytes, rng: ByteStream) -> bytes:
    """[32B ephemeral public][12B nonce][ciphertext+tag]"""
    eph = X25519PrivateKey.from_private_bytes(rng.take(32))
    eph_pub = eph.public_key().public_bytes_raw()
    shared = eph.exchange(X25519PublicKey.from_public_bytes(recipient_public))
    key = _box_key(shared, eph_pub, recipient_public)
    nonce = rng.take(NONCE_LEN)
    ct = AESGCM(key).encrypt(nonce, plaintext, eph_pub)
    return eph_pub + nonce + ct


def open_box(recipient: X25519PrivateKey, recipient_public: bytes,
             blob: bytes) -> bytes:
    """Opens a seal_box blob with the recipient's loaded key;
    ``recipient_public`` is that key's raw public half."""
    if len(blob) < X25519_KEY_LEN + NONCE_LEN + 16:
        raise DecryptionFailure("sealed blob too short")
    eph_pub = blob[:X25519_KEY_LEN]
    nonce = blob[X25519_KEY_LEN:X25519_KEY_LEN + NONCE_LEN]
    ct = blob[X25519_KEY_LEN + NONCE_LEN:]
    try:
        shared = recipient.exchange(
            X25519PublicKey.from_public_bytes(eph_pub))
    except ValueError as exc:
        raise DecryptionFailure("invalid ephemeral key") from exc
    key = _box_key(shared, eph_pub, recipient_public)
    try:
        return AESGCM(key).decrypt(nonce, ct, eph_pub)
    except InvalidTag as exc:
        raise DecryptionFailure("authentication tag mismatch") from exc
