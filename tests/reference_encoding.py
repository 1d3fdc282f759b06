"""The reference encoding of a protocol message, for the differential tests.

It builds each message as plain data (``payload_dict``, ``header``) and lets
json write it with sorted keys and no spaces.  It shares no code with the
per-type encoders in ``tset.messages``, so agreement between the two is
evidence that those encoders write canonical JSON.
"""

import json
from dataclasses import fields, is_dataclass

from tset.crypto import Certificate
from tset.messages import EntityId, ProtocolMessage, TransactionId
from tset.tokens import SealedToken

# The payload field whose bytes hop signatures leave out, and its mask.
SIGN_EXEMPT = "sealed"
MASK = "<sealed>"

_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def jsonable(value):
    """``value`` as the dicts, strings, numbers, bools and None json takes."""
    if isinstance(value, SealedToken):
        return value.envelope.hex()
    if isinstance(value, Certificate):
        return {"subject": value.subject,
                "public_key": value.public_key.hex(),
                "signature": value.signature.hex()}
    if isinstance(value, (EntityId, TransactionId)):
        return str(value)
    if is_dataclass(value):
        return {f.name: jsonable(getattr(value, f.name))
                for f in fields(value)}
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    raise TypeError(f"cannot canonicalize {type(value).__name__}")


def canon(obj) -> bytes:
    return _ENCODER.encode(obj).encode()


def payload_dict(msg: ProtocolMessage):
    return jsonable(msg.payload)


def header(msg: ProtocolMessage, mask_sealed: bool) -> dict:
    """The message without its signature, as plain data."""
    payload = payload_dict(msg)
    if mask_sealed and msg.sealed_token() is not None:
        payload = {**payload, SIGN_EXEMPT: MASK}
    return {
        "kind": msg.kind.value,
        "sender": str(msg.sender),
        "receiver": str(msg.receiver),
        "txn": str(msg.txn),
        "payload": payload,
    }


def signed_part(msg: ProtocolMessage) -> bytes:
    """What the hop signature covers: the sealed bytes masked."""
    return canon(header(msg, mask_sealed=True))


def whole(msg: ProtocolMessage) -> bytes:
    """The whole message, signature and sealed bytes included."""
    return canon({**header(msg, mask_sealed=False),
                  "signature": msg.signature.hex()})
