"""Deterministic byte stream for key, nonce, and token-id generation.

Every run derives all cryptographic material from a single integer seed so
that two runs with the same scenario and seed produce byte-identical keys,
envelopes, and traces.  The stream is libsodium's ChaCha20 keystream
(RFC 8439, zero nonce) under a key derived from the seed, which is uniform
and fast; it is *reproducible by design* and therefore only suitable
inside the simulator.  A stream is that key and an offset, so it copies.
"""

from __future__ import annotations

import ctypes
import hashlib

from .crypto import _stream_xor_ic

_DOMAIN = b"tset/stream:"


class ByteStream:
    """Seeded generator of cryptographic-quality bytes.

    ``fork(label)`` derives an independent child stream; material drawn from
    a fork depends only on (seed, label path), not on how much the parent or
    sibling streams have consumed.  Entities each get their own fork so that
    key material is stable under unrelated scenario changes.
    """

    def __init__(self, seed: int | bytes, _raw_key: bytes | None = None):
        if _raw_key is not None:
            key = _raw_key
        else:
            seed_bytes = seed if isinstance(seed, bytes) else str(int(seed)).encode()
            key = hashlib.sha256(_DOMAIN + seed_bytes).digest()
        self._key = key
        self._offset = 0        # keystream bytes taken so far

    def take(self, n: int) -> bytes:
        if n < 0:
            raise ValueError("byte count must be non-negative")
        block, skip = divmod(self._offset, 64)
        out = ctypes.create_string_buffer(skip + n)
        _stream_xor_ic(out, out, skip + n, bytes(12), block, self._key)
        self._offset += n
        return out.raw[skip:]

    def fork(self, label: str) -> "ByteStream":
        child_key = hashlib.sha256(self._key + b"/" + label.encode()).digest()
        return ByteStream(0, _raw_key=child_key)
