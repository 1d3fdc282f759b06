"""Signatures, certificates, the two encryption primitives, and the helper
process that verifies signatures.

Certificates are a minimal in-model PKI: one root signing key per run signs
(subject, public key) pairs, and every entity checks certificates against
the root public key through the run's shared CertificateChecks.  That
checks each certificate once, by the helper process when it was sent the
check (``CertificateChecks.send``) and inline otherwise, and keeps the
loaded public key of each one that checks out, so a hop signature is
verified against a key parsed once per world; every signature is still
verified on every call.  A certificate builds its canonical JSON once,
when it is built.
Asymmetric sealing is hybrid: an ephemeral X25519 exchange feeds HKDF-SHA256,
and the derived key runs AES-256-GCM.  Both the hybrid and the plain
symmetric primitive are authenticated, so any bit flip in a sealed blob
fails the tag check.

An Ed25519 verification holds the GIL, so a second thread cannot overlap
one; a second process can: ``helper()``, one process forked per process
on first use.  Where a signature is verified is decided by this rule:
- a run with a purchase in its plan sends the helper the checks of its
  world's certificates at once (``CertificateChecks.send``); a
  certificate it was not sent is checked inline;
- ``Helper.check`` alone places a delivery's hop check, by the number of
  deliveries queued ahead of it.  With none it is verified inline:
  nothing ahead gives the helper time to answer.  With exactly one it is
  sent at once.  With two or more it is queued, and ``top_up`` sends it
  only when the helper can answer it before the simulator needs it: while
  the helper has at most one check left to verify, and only if the checks
  it has left, this one included, are fewer than the deliveries still
  ahead of this one.  The helper's progress is read from a counter it
  keeps in shared memory, so answers waiting unread in the pipe are not
  counted as its backlog.  A queued check not sent by the time its
  delivery is made is withdrawn (``Helper.withdraw``) and verified in the
  simulator's process, so that neither process waits on the other.
Which process verifies a queued check therefore depends on timing, and
the split varies from run to run; a check sent at once is always the
helper's, so a world that queues nothing behind two deliveries splits the
same way on every run.  Each signature is still verified exactly once,
and the verdicts, like every output, do not vary.
A sent ``SignatureCheck`` travels with its delivery to the receiver's
``CertificateChecks.signed``.  It names the exact key, signature and
signed bytes its verdict is about, and that verdict is used only for
those bytes; every other signature is verified in the calling process.
The helper is never asked for a verdict twice and keeps nothing between
checks.  If it dies, the verdicts it owes raise ``HelperLost``: none is
read as a bad signature.
"""

from __future__ import annotations

import atexit
import collections
import gc
import mmap
import os
import signal
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
    certificate is verified once, by the time it is first presented: by the
    helper if ``send`` sent it the check of those very bytes, else inline.
    A forged or altered certificate is a different value and is verified
    (and refused) in turn.  Only the certificate check and the parsing of
    its key are kept: a signature made with the key is verified on every
    call, inline or, when the caller brings the helper's check of those
    very bytes, by the helper.  One instance serves one world: what it
    keeps is bounded by the certificates that world sees.
    """

    def __init__(self, root_public: bytes):
        self.root_public = root_public
        self._keys: dict[Certificate, Ed25519PublicKey | None] = {}
        # The helper's check of each certificate sent to it and not yet
        # presented.
        self._sent: dict[Certificate, SignatureCheck] = {}

    def send(self, certs, helper: "Helper") -> None:
        """Send ``helper`` the check of each of ``certs`` not checked or sent
        yet, all at once, so that their verdicts come in while the caller
        works on."""
        fresh = [cert for cert in certs
                 if cert not in self._keys and cert not in self._sent]
        checks = helper.send_now([
            (self.root_public, cert.signature,
             _cert_signing_bytes(cert.subject, cert.public_key))
            for cert in fresh])
        self._sent.update(zip(fresh, checks))

    def key(self, cert: Certificate) -> Ed25519PublicKey | None:
        """The subject's loaded key if ``cert`` is root-signed, else None.
        The first time ``cert`` is presented, the helper's check of it
        answers if it was sent one for these very bytes, waited for if it is
        not in yet; otherwise it is verified here."""
        try:
            return self._keys[cert]
        except KeyError:
            pass
        check = self._sent.pop(cert, None)
        if check is not None and check.covers(
                self.root_public, cert.signature,
                _cert_signing_bytes(cert.subject, cert.public_key)):
            valid = check.valid()
        else:
            valid = verify_certificate(cert, self.root_public)
        key = load_public_key(cert.public_key) if valid else None
        self._keys[cert] = key
        return key

    def valid(self, cert: Certificate) -> bool:
        return self.key(cert) is not None

    def signed(self, cert: Certificate, signature: bytes, data: bytes,
               check: SignatureCheck | None = None) -> bool:
        """Whether ``cert`` is root-signed and ``signature`` over ``data``
        verifies under its key.  The verdict of ``check``, a check sent to
        the helper, answers only for the very key, signature and bytes it
        was sent; anything else is verified here."""
        key = self.key(cert)
        if key is None:
            return False
        if check is not None and check.covers(cert.public_key, signature,
                                              data):
            return check.valid()
        return verify(key, signature, data)


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


# ---------------------------------------------------------------------------
# The helper process that verifies signatures
#
# One pipe carries checks, each [32B public key][2B signature length]
# [4B data length][signature][data], in the order they are sent.  The other
# carries one byte per verification the helper made, in the same order: 1
# if the signature verifies, 0 if it does not.  A counter in memory shared
# with the helper holds the number of answers it has written.  It is read
# without a system call, to judge the helper's backlog, and never for a
# verdict.

_CHECK = struct.Struct(">32sHI")
_COUNT = struct.Struct("=Q")
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
    signed bytes its verdict is about, the position in the caller's work by
    which the verdict is needed, and that verdict once it is in."""

    __slots__ = ("public_key", "signature", "data", "due", "sent",
                 "verdict", "_helper")

    def __init__(self, helper: "Helper", public_key: bytes, signature: bytes,
                 data: bytes, due: int):
        self._helper = helper
        self.public_key = public_key
        self.signature = signature
        self.data = data
        self.due = due
        self.sent = False
        self.verdict: bool | None = None

    def covers(self, public_key: bytes, signature: bytes,
               data: bytes) -> bool:
        return (data == self.data and signature == self.signature
                and public_key == self.public_key)

    def valid(self) -> bool:
        """The helper's verdict, waited for if it is not in yet."""
        return self._helper.verdict(self)


def _write(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _serve(checks: int, answers: int, answered) -> None:
    """The helper's loop, until the pipe of checks closes: verify each
    complete check a read brings, write its answer at once, and then count
    it in ``answered``."""
    count = 0
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
            try:
                load_public_key(key).verify(data[start:start + sig_len],
                                            data[start + sig_len:end])
                answer = b"\x01"
            except InvalidSignature:
                answer = b"\x00"
            _write(answers, answer)
            count += 1
            _COUNT.pack_into(answered, 0, count)
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

    ``check`` decides where a delivery's hop signature is verified (see the
    module docstring).  ``send_now`` sends verifications at once, and
    ``top_up`` sends the queued checks the helper can answer before they
    are due.  ``withdraw`` hands the caller each queued check it reaches,
    to verify itself unless it was sent.  A sent check's ``valid()`` reads
    answers, which come in the order the checks were sent, until its own
    is in.  One thread uses it at a time.
    The helper keeps only stderr and its ends of the two pipes, ignores
    SIGINT, and exits when the pipe of checks reaches end of file, so it
    cannot outlive this process."""

    def __init__(self):
        checks_in, self._checks = os.pipe()
        self._answers, answers_out = os.pipe()
        # Shared with the helper, which counts its answers here.
        self._answered = mmap.mmap(-1, _COUNT.size)
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
                _serve(checks_in, answers_out, self._answered)
                status = 0
            finally:
                os._exit(status)
        os.close(checks_in)
        os.close(answers_out)
        self.pid = pid
        # Verifications the helper reported making, summed over answers.
        self.verified = 0
        # Reads of the answer pipe made before the helper had written the
        # answer they waited for: each blocked this process.
        self.waits = 0
        # Why this end no longer talks to the helper; None while it does.
        self.lost: str | None = None
        self._sent_count = 0    # checks written to the pipe, ever
        self._unsent: list[SignatureCheck] = []     # in the order queued
        self._sent: collections.deque = collections.deque()  # unanswered

    def check(self, public_key: bytes, signature: bytes, data: bytes,
              ahead: int, now: int) -> SignatureCheck | None:
        """The check of ``signature`` over ``data`` under the raw Ed25519
        ``public_key``, for a delivery made once the ``ahead`` deliveries
        queued before it are, the caller's work being at position ``now``.
        None with nothing ahead: the caller verifies it.  With one ahead it
        is sent at once; with more it is queued for ``top_up``, due at
        position ``now + ahead``."""
        if not ahead:
            return None
        if ahead == 1:
            return self.send_now([(public_key, signature, data)])[0]
        check = SignatureCheck(self, public_key, signature, data, now + ahead)
        self._unsent.append(check)
        return check

    def send_now(self, items) -> list[SignatureCheck]:
        """Send the verification of each (raw public key, signature, signed
        bytes) of ``items`` at once, ahead of every check still queued, and
        return their checks in the same order."""
        batch = [SignatureCheck(self, public_key, signature, data, 0)
                 for public_key, signature, data in items]
        self._send(batch)
        return batch

    def backlog(self) -> int:
        """The checks sent that the helper has not answered yet.  An
        answer written to the pipe but not read yet is not backlog."""
        return self._sent_count - _COUNT.unpack_from(self._answered)[0]

    def top_up(self, now: int) -> None:
        """Send queued checks while the helper has at most one check left,
        so that it does not run out of work, and the checks queued while it
        was busy go in one batch.  The caller's work is at position
        ``now``.  The latest-due checks go first, and each only while the
        checks ahead of it in the helper, itself included, are fewer than
        the positions left before it is due: the helper answers it before
        the caller needs it.  The rest stay queued; the caller withdraws
        each one it reaches and verifies it itself.
        The rule reads the helper's progress, so it is applied here, before
        each of the caller's steps, and not when a check is queued: four
        rules that decided at queue time each ran the mixed load about 3%
        slower on a 2-core host (medians of 262-266 purchases a second,
        against 273)."""
        unsent = self._unsent
        if not unsent:
            return
        backlog = self.backlog()
        if backlog > 1:
            return
        batch = []
        while unsent and backlog + len(batch) + 1 < unsent[-1].due - now:
            batch.append(unsent.pop())
        if batch:
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
            self._sent_count += len(chunk)
            try:
                _write(self._checks, b"".join(parts))
            except OSError as exc:
                self._fail(f"took no checks ({exc})")

    def withdraw(self, check: SignatureCheck) -> SignatureCheck | None:
        """``check`` if it was sent, for the helper's verdict; else None,
        and it leaves the queue (if ``drain`` has not dropped it already):
        the caller verifies it, and the helper never sees it."""
        if check.sent:
            return check
        try:
            self._unsent.remove(check)
        except ValueError:
            pass
        return None

    def verdict(self, check: SignatureCheck) -> bool:
        """The helper's verdict on ``check``, read from the pipe, and
        waited for if the helper has not answered it yet.  A check never
        sent has no answer coming: ValueError."""
        if not check.sent:
            raise ValueError("the helper was never sent this check")
        while check.verdict is None:
            if _COUNT.unpack_from(self._answered)[0] == self.verified:
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
