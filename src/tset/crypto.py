"""Signatures, certificates, the two encryption primitives, and the helper
process that verifies signatures.

Certificates are a minimal in-model PKI: one root signing key per run signs
(subject, public key) pairs, and every entity checks certificates against
the root public key through the world's shared CertificateChecks.  That
checks each certificate once, inline, the first time it is presented, and
keeps the raw public key of each one that checks out; every signature is
still verified on every call.  A certificate builds its canonical JSON
once, when it is built.
Ed25519 is libsodium's, called through ctypes: keys from a 32-byte seed,
detached signatures, and their verification.  Ed25519 is deterministic
(RFC 8032), so a signature is the same bytes whichever library makes it.
Its verification is a tightening of ``cryptography``'s (OpenSSL): it
refuses a public key or signature point R of small order, such as the
identity key 01 00..00 with the signature R = identity, S = 0, which
OpenSSL accepts.  Both refuse a signature whose scalar S is not below the
group order L.  On a 2-core x86-64 host, libsodium verifies a
400-byte message in 67 us and signs it in 29 us, against 134 us and 47 us
for ``cryptography`` (best of five timeit runs of 2000 calls each).
Asymmetric sealing is hybrid: an ephemeral X25519 exchange (RFC 7748,
refusing a small-order key) feeds HKDF-SHA256 (two stdlib HMACs), and the
derived key runs AES-256-GCM; both layers are authenticated, so any bit
flip in a sealed blob fails the tag check.  All of it is libsodium's, on
raw keys, so one library fixes every byte and a world copies.  Its AES-GCM
needs x86-64 with AES-NI and PCLMUL, which the import requires: no fallback.

A second process verifies hop signatures beside the simulator:
``helper()``, one process forked per process on first use.  Which hops
it verifies is decided by the simulator, by the rule in simnet's module
docstring.  Each world's CertificateChecks keeps one table of the
verdicts it is owed: ``expect`` queues the check of an exact (public
key, signature, signed bytes) for the helper and records it, oldest
first, under those bytes.  A verification of a signature (``signed``)
takes the oldest check owed to its exact bytes, before it asks for the
certificate's key, and uses its verdict, waited for if it is not in
yet; with none owed, it verifies inline.  So a verdict answers only for
the bytes it was computed on, each owed check is taken at most once,
and one whose certificate is refused is taken all the same.
``Helper.top_up`` writes every queued check to the helper in one batch.
The helper is never asked for a verdict twice and keeps nothing between
checks.  If it dies, the verdicts it owes raise ``HelperLost``: none is
read as a bad signature.
"""

from __future__ import annotations

import atexit
import collections
import ctypes
import gc
import hmac
import os
import select
import signal
import struct
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .rng import ByteStream


class DecryptionFailure(Exception):
    """Authenticated decryption failed: wrong key or modified ciphertext."""


class AuthFailure(Exception):
    """A signature or certificate did not verify."""


NONCE_LEN = 12
X25519_KEY_LEN = 32
SIG_LEN = 64
ED25519_KEY_LEN = 32
SEED_LEN = 32


# ---------------------------------------------------------------------------
# libsodium, and signing with its Ed25519
#
# Every length a C call reads is checked here first, and only bytes are
# passed as pointers: anything else is a TypeError before ctypes sees it.

def _load_sodium() -> ctypes.CDLL:
    """libsodium, loaded by soname and initialised, with every call this
    package makes declared.  By soname: ``ctypes.util.find_library`` would
    run ldconfig at import."""
    for name in ("libsodium.so.23", "libsodium.so"):
        try:
            lib = ctypes.CDLL(name)
            break
        except OSError:
            continue
    else:
        raise ImportError(
            "tset.crypto needs libsodium (libsodium.so.23 or libsodium.so; "
            "the Debian/Ubuntu package libsodium23)")
    lib.sodium_init.argtypes = ()
    lib.sodium_init.restype = ctypes.c_int
    if lib.sodium_init() < 0:
        raise ImportError("libsodium failed to initialise")
    lib.crypto_aead_aes256gcm_is_available.argtypes = ()
    lib.crypto_aead_aes256gcm_is_available.restype = ctypes.c_int
    if lib.crypto_aead_aes256gcm_is_available() != 1:
        raise ImportError("tset.crypto needs libsodium's AES-256-GCM: "
                          "crypto_aead_aes256gcm_is_available() returned 0")
    buf, size, null = ctypes.c_char_p, ctypes.c_ulonglong, ctypes.c_void_p
    for fn, argtypes in (
            # (public key out, secret out, seed)
            (lib.crypto_sign_ed25519_seed_keypair, (buf, buf, buf)),
            # (signature out, signature length out, message, its length,
            # secret)
            (lib.crypto_sign_ed25519_detached, (buf, null, buf, size, buf)),
            # (signature, message, its length, public key)
            (lib.crypto_sign_ed25519_verify_detached, (buf, buf, size, buf)),
            # (out, in, its length, nonce, first 64-byte block, key)
            (lib.crypto_stream_chacha20_ietf_xor_ic,
             (buf, buf, size, buf, ctypes.c_uint32, buf)),
            # (shared out, secret, public): -1 if shared is all zero
            (lib.crypto_scalarmult_curve25519, (buf, buf, buf)),
            (lib.crypto_scalarmult_curve25519_base, (buf, buf)),
            # (out, its length out, in, its length, additional data, its
            # length, unused, nonce, key); decrypt takes the unused
            # argument before in, and returns -1 for a bad tag
            (lib.crypto_aead_aes256gcm_encrypt,
             (buf, null, buf, size, buf, size, null, buf, buf)),
            (lib.crypto_aead_aes256gcm_decrypt,
             (buf, null, null, buf, size, buf, size, buf, buf))):
        fn.argtypes = argtypes
        fn.restype = ctypes.c_int
    return lib


_sodium = _load_sodium()
_seed_keypair = _sodium.crypto_sign_ed25519_seed_keypair
_sign_detached = _sodium.crypto_sign_ed25519_detached
_verify_detached = _sodium.crypto_sign_ed25519_verify_detached
_stream_xor_ic = _sodium.crypto_stream_chacha20_ietf_xor_ic
_scalarmult = _sodium.crypto_scalarmult_curve25519
_scalarmult_base = _sodium.crypto_scalarmult_curve25519_base
_aead_encrypt = _sodium.crypto_aead_aes256gcm_encrypt
_aead_decrypt = _sodium.crypto_aead_aes256gcm_decrypt


def _need_bytes(*values) -> None:
    for value in values:
        if not isinstance(value, bytes):
            raise TypeError(f"expected bytes, not {type(value).__name__}")


def _need_key(key: bytes, what: str) -> None:
    """TypeError unless ``key`` is bytes, ValueError unless 32 of them."""
    _need_bytes(key)
    if len(key) != 32:
        raise ValueError(f"{what} is 32 bytes")


class SigningKey:
    """An Ed25519 signing key: libsodium's 64-byte secret (the seed, then
    the public key) and the raw 32-byte ``public_key``."""

    __slots__ = ("_secret", "public_key")

    def __init__(self, seed: bytes):
        _need_key(seed, "an Ed25519 seed")
        public = ctypes.create_string_buffer(ED25519_KEY_LEN)
        secret = ctypes.create_string_buffer(64)
        if _seed_keypair(public, secret, seed) != 0:
            raise ValueError("libsodium refused the seed")
        self._secret = secret.raw
        self.public_key = public.raw

    def sign(self, data: bytes) -> bytes:
        _need_bytes(data)
        sig = ctypes.create_string_buffer(SIG_LEN)
        if _sign_detached(sig, None, data, len(data), self._secret) != 0:
            raise ValueError("libsodium failed to sign")
        return sig.raw


def new_signing_key(rng: ByteStream) -> SigningKey:
    return SigningKey(rng.take(SEED_LEN))


def sign(key: SigningKey, data: bytes) -> bytes:
    return key.sign(data)


def verify(public_key: bytes, signature: bytes, data: bytes) -> bool:
    """Whether ``signature`` over ``data`` verifies under the raw Ed25519
    ``public_key``.  A key that is not 32 bytes is a ValueError; a
    signature that is not 64 bytes does not verify."""
    _need_bytes(signature, data)
    _need_key(public_key, "an Ed25519 public key")
    return (len(signature) == SIG_LEN
            and _verify_detached(signature, data, len(data), public_key) == 0)


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


def issue_certificate(root_key: SigningKey, subject: str,
                      public_key: bytes) -> Certificate:
    sig = root_key.sign(_cert_signing_bytes(subject, public_key))
    return Certificate(subject, public_key, sig)


def verify_certificate(cert: Certificate, root_public: bytes) -> bool:
    return verify(root_public, cert.signature,
                  _cert_signing_bytes(cert.subject, cert.public_key))


class CertificateChecks:
    """Certificate checks against one root key, each made once, and the
    helper's verdicts one world is owed.

    Kept per certificate value: the raw public key of a certificate that
    verifies against the root, None for one that does not.  Every distinct
    certificate is verified once, inline, when it is first presented.  A
    forged or altered certificate is a different value and is verified
    (and refused) in turn.  Only the certificate check is kept: a
    signature made with the key is verified on every call.  ``_owed``
    holds, per exact (public key, signature, signed part) of a hop, the
    helper's checks of those bytes that ``expect`` queued, oldest first
    (see the module docstring).  One instance serves one world: what it
    keeps is bounded by what that world sees.
    """

    def __init__(self, root_public: bytes):
        _need_key(root_public, "an Ed25519 public key")
        self.root_public = root_public
        self._keys: dict[Certificate, bytes | None] = {}
        self._owed: dict[tuple, list[SignatureCheck]] = {}

    def expect(self, helper: "Helper", public_key: bytes, signature: bytes,
               data: bytes) -> None:
        """Queue for ``helper`` the check of ``signature`` over ``data``
        under the raw ``public_key``, owed to their next verification."""
        self._owed.setdefault((public_key, signature, data), []).append(
            helper.queue(public_key, signature, data))

    def _take(self, public_key: bytes, signature: bytes,
              data: bytes) -> SignatureCheck | None:
        """The oldest check owed to these very bytes, now taken; None if
        none is owed."""
        triple = (public_key, signature, data)
        owed = self._owed.get(triple)
        if owed is None:
            return None
        check = owed.pop(0)
        if not owed:
            del self._owed[triple]
        return check

    def key(self, cert: Certificate) -> bytes | None:
        """The subject's raw key if ``cert`` is root-signed, else None;
        checked the first time ``cert`` is presented."""
        try:
            return self._keys[cert]
        except KeyError:
            pass
        key = (cert.public_key if verify_certificate(cert, self.root_public)
               else None)
        self._keys[cert] = key
        return key

    def valid(self, cert: Certificate) -> bool:
        return self.key(cert) is not None

    def signed(self, cert: Certificate, signature: bytes,
               data: bytes) -> bool:
        """Whether ``cert`` is root-signed and ``signature`` over ``data``
        verifies under its key.  The check owed to these bytes is taken
        first, so a refused certificate leaves none owed."""
        check = self._take(cert.public_key, signature, data)
        key = self.key(cert)
        if key is None:
            return False
        return verify(key, signature, data) if check is None else check.valid()


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
    _need_key(key, "an AES-256 key")
    _need_bytes(plaintext, aad)
    nonce = rng.take(NONCE_LEN)
    out = ctypes.create_string_buffer(len(plaintext) + 16)
    _aead_encrypt(out, None, plaintext, len(plaintext), aad, len(aad), None,
                  nonce, key)
    return nonce + out.raw


def sym_decrypt(key: bytes, blob: bytes, aad: bytes) -> bytes:
    _need_key(key, "an AES-256 key")
    _need_bytes(blob, aad)
    if len(blob) < NONCE_LEN + 16:
        raise DecryptionFailure("ciphertext too short")
    out = ctypes.create_string_buffer(len(blob) - NONCE_LEN - 16)
    if _aead_decrypt(out, None, None, blob[NONCE_LEN:], len(blob) - NONCE_LEN,
                     aad, len(aad), blob[:NONCE_LEN], key) != 0:
        raise DecryptionFailure("authentication tag mismatch")
    return out.raw


# ---------------------------------------------------------------------------
# Hybrid public-key sealing (ephemeral X25519 + HKDF-SHA256 + AES-256-GCM)

def box_public_key(secret: bytes) -> bytes:
    """The raw X25519 public key of the raw 32-byte ``secret``."""
    _need_key(secret, "an X25519 secret")
    public = ctypes.create_string_buffer(X25519_KEY_LEN)
    _scalarmult_base(public, secret)
    return public.raw


def new_box_keypair(rng: ByteStream) -> tuple[bytes, bytes]:
    """Returns (secret, public) raw 32-byte X25519 keys."""
    secret = rng.take(32)
    return secret, box_public_key(secret)


def _box_key(secret: bytes, public: bytes, eph_pub: bytes,
             recipient_pub: bytes) -> bytes | None:
    """HKDF-SHA256 (RFC 5869, salt absent) of the X25519 secret shared by
    ``secret`` and ``public``; None if that is all zero (small order)."""
    _need_key(secret, "an X25519 secret")
    _need_key(public, "an X25519 public key")
    shared = ctypes.create_string_buffer(X25519_KEY_LEN)
    if _scalarmult(shared, secret, public) != 0:
        return None
    prk = hmac.digest(bytes(32), shared.raw, "sha256")
    return hmac.digest(prk, b"tset/box" + eph_pub + recipient_pub + b"\x01",
                       "sha256")


def seal_box(recipient_public: bytes, plaintext: bytes, rng: ByteStream) -> bytes:
    """[32B ephemeral public][12B nonce][ciphertext+tag]"""
    eph, eph_pub = new_box_keypair(rng)
    key = _box_key(eph, recipient_public, eph_pub, recipient_public)
    if key is None:
        raise ValueError("the recipient's X25519 key has small order")
    return eph_pub + sym_encrypt(key, plaintext, eph_pub, rng)


def open_box(recipient_secret: bytes, recipient_public: bytes,
             blob: bytes) -> bytes:
    """Opens a seal_box blob with the recipient's raw 32-byte secret;
    ``recipient_public`` is its raw public half."""
    if len(blob) < X25519_KEY_LEN + NONCE_LEN + 16:
        raise DecryptionFailure("sealed blob too short")
    eph_pub = blob[:X25519_KEY_LEN]
    key = _box_key(recipient_secret, eph_pub, eph_pub, recipient_public)
    if key is None:
        raise DecryptionFailure("invalid ephemeral key")
    return sym_decrypt(key, blob[X25519_KEY_LEN:], eph_pub)


# ---------------------------------------------------------------------------
# The helper process that verifies signatures
#
# One pipe carries checks, each [32B public key][2B signature length]
# [4B data length][signature][data], in the order they are sent.  The other
# carries one byte per verification the helper made, in the same order: 1
# if the signature verifies, 0 if it does not.

_CHECK = struct.Struct(">32sHI")
# The answers owed at any time fit in the smallest pipe buffer, one page
# (``Helper._send`` keeps them within it): the helper never waits to write
# an answer, so it always reads on, and a batch being sent is always taken.
_ANSWER_ROOM = 4096
# The most the helper takes from the pipe of checks in one read: a Linux
# pipe's default capacity.
_READ_SIZE = 65536


class HelperLost(RuntimeError):
    """The helper process died or broke its framing.  The verdicts it owes
    are lost; none is read as a bad signature."""


class SignatureCheck:
    """One signature for the helper: the raw public key, signature and
    signed bytes its verdict is about, whether it was sent, and that
    verdict once it is in."""

    __slots__ = ("public_key", "signature", "data", "sent", "verdict",
                 "_helper")

    def __init__(self, helper: "Helper", public_key: bytes, signature: bytes,
                 data: bytes):
        self._helper = helper
        self.public_key = public_key
        self.signature = signature
        self.data = data
        self.sent = False
        self.verdict: bool | None = None

    def valid(self) -> bool:
        """The helper's verdict, waited for if it is not in yet."""
        return self._helper.verdict(self)


def _write(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _serve(checks: int, answers: int) -> None:
    """The helper's loop, until the pipe of checks closes: verify each
    complete check a read brings, and write its answer at once."""
    data = b""
    while True:
        chunk = os.read(checks, _READ_SIZE)
        if not chunk:
            return
        data += chunk
        at = 0
        while len(data) - at >= _CHECK.size:
            key, sig_len, data_len = _CHECK.unpack_from(data, at)
            start = at + _CHECK.size
            end = start + sig_len + data_len
            if end > len(data):
                break           # the rest of this check is still on its way
            # A signature of any other length is refused unread.
            valid = sig_len == SIG_LEN and _verify_detached(
                data[start:start + SIG_LEN], data[start + SIG_LEN:end],
                data_len, key) == 0
            _write(answers, b"\x01" if valid else b"\x00")
            at = end
        data = data[at:]


def _keep_only(*fds: int) -> None:
    """Close every file descriptor but ``fds``."""
    start = 0
    for fd in sorted(fds):
        os.closerange(start, fd)
        start = fd + 1
    os.closerange(start, os.sysconf("SC_OPEN_MAX"))


def _reap(pid: int):
    """The exit status of child ``pid``, waited for; None if it was
    already reaped."""
    try:
        return os.waitpid(pid, 0)[1]
    except ChildProcessError:
        return None


class Helper:
    """A forked process that verifies batches of Ed25519 signatures.

    ``queue`` queues a verification, and ``top_up`` sends every queued one
    in one batch.  A sent check's ``valid()`` reads answers, which come in
    the order the checks were sent, until its own is in.  One thread uses
    it at a time.
    The helper keeps only stderr and its ends of the two pipes, ignores
    SIGINT, and exits when the pipe of checks reaches end of file, so it
    cannot outlive this process."""

    def __init__(self):
        checks_in, self._checks = os.pipe()
        self._answers, answers_out = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            for fd in (checks_in, self._checks, self._answers, answers_out):
                os.close(fd)
            raise
        if pid == 0:
            status = 1
            try:
                gc.disable()    # its collections would copy the whole heap
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                _keep_only(2, checks_in, answers_out)
                _serve(checks_in, answers_out)
                status = 0
            finally:
                os._exit(status)
        os.close(checks_in)
        os.close(answers_out)
        self.pid = pid
        # Verifications the helper reported making, summed over answers.
        self.verified = 0
        # Reads of the answer pipe made while it held no answer: each
        # blocked this process.
        self.waits = 0
        # Why this end no longer talks to the helper; None while it does.
        self.lost: str | None = None
        # Whether an answer is in the pipe, asked without waiting.
        self._answer_in = select.poll()
        self._answer_in.register(self._answers, select.POLLIN)
        self._unsent: list[SignatureCheck] = []     # in the order queued
        self._sent: collections.deque = collections.deque()  # unanswered

    def queue(self, public_key: bytes, signature: bytes,
              data: bytes) -> SignatureCheck:
        """Queue the verification of ``signature`` over ``data`` under the
        raw Ed25519 ``public_key`` for the next ``top_up``."""
        check = SignatureCheck(self, public_key, signature, data)
        self._unsent.append(check)
        return check

    def top_up(self) -> None:
        """Send every queued check, in the order queued, in one batch."""
        if self._unsent:
            batch, self._unsent = self._unsent, []
            self._send(batch)

    def _send(self, batch: list) -> None:
        """Write ``batch`` to the helper: as one write if the answers owed
        leave room for all of it, else in chunks, with answers read between
        them, so that no more than ``_ANSWER_ROOM`` are ever owed."""
        self._talking()
        while batch:
            while len(self._sent) >= _ANSWER_ROOM:
                self._collect()
            room = _ANSWER_ROOM - len(self._sent)
            chunk, batch = batch[:room], batch[room:]
            parts = []
            for c in chunk:
                c.sent = True
                parts += (_CHECK.pack(c.public_key, len(c.signature),
                                      len(c.data)),
                          c.signature, c.data)
            self._sent += chunk
            try:
                _write(self._checks, b"".join(parts))
            except OSError as exc:
                self._fail(f"took no checks ({exc})")

    def verdict(self, check: SignatureCheck) -> bool:
        """The helper's verdict on ``check``, read from the pipe, and
        waited for if the helper has not answered it yet.  A check never
        sent has no answer coming: ValueError."""
        if not check.sent:
            raise ValueError("the helper was never sent this check")
        while check.verdict is None:
            if not self._answer_in.poll(0):
                self.waits += 1
            self._collect()
        return check.verdict

    def drain(self) -> None:
        """Drop the checks never sent, and wait for the verdict of every
        check sent."""
        self._unsent = []
        if self.lost is None:
            while self._sent:
                self._collect()

    def _collect(self) -> None:
        """Wait for answers, and give each to the oldest unanswered check."""
        self._talking()
        verdicts = os.read(self._answers, _ANSWER_ROOM)
        if not verdicts:
            self._fail("closed its pipe")
        if len(verdicts) > len(self._sent) or not set(verdicts) <= {0, 1}:
            self._fail(f"answered {len(self._sent)} checks with {verdicts!r}")
        self.verified += len(verdicts)
        for verdict in verdicts:
            self._sent.popleft().verdict = verdict == 1

    def _talking(self) -> None:
        """Raise HelperLost unless this end still talks to the helper: a
        closed pipe's descriptor may name another file by now."""
        if self.lost is not None:
            raise HelperLost(f"signature helper {self.pid}: {self.lost}")

    def _shut(self, reason: str) -> None:
        """Close this process's ends of the pipes."""
        if self.lost is None:
            self.lost = reason
            os.close(self._checks)
            os.close(self._answers)

    def close(self) -> None:
        """Stop the helper: it reads end of file, exits, and is reaped."""
        if self.lost is None:
            self._shut("closed")
            _reap(self.pid)

    def _fail(self, what: str) -> None:
        self._shut(what)
        try:
            os.kill(self.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        raise HelperLost(f"signature helper {self.pid} {what}; exit status "
                         f"{_reap(self.pid)}")


_helper: Helper | None = None


def helper() -> Helper:
    """This process's helper, started on first use and after a loss."""
    global _helper
    if _helper is None or _helper.lost is not None:
        _helper = Helper()
    return _helper


def _disown_helper() -> None:
    """In a forked child: close the copies of the parent's pipes, so that
    the child starts its own helper and the parent's sees end of file when
    the parent exits."""
    if _helper is not None:
        _helper._shut("belongs to the parent process")


def _close_helper() -> None:
    if _helper is not None:
        _helper.close()


os.register_at_fork(after_in_child=_disown_helper)
atexit.register(_close_helper)
