"""Protocol messages exchanged between the five entity roles.

Every message is signed by its sender's certified key.  The signature
covers the routing header and the business payload but deliberately not the
sealed token bytes: the token authenticates itself end-to-end to the
issuing bank through its own two encryption layers, and hop signatures must
not turn intermediaries into tamper oracles.  A mutated envelope therefore
travels to the bank, where detection (and the tamper report) belongs.

The hop signature is checked on every delivery, by the receiver's
Entity.step through verify_message.  The sender's certificate is checked
against the root key once per world (crypto.CertificateChecks): a
certificate never changes, so a second check could only repeat the first.
The hop signature is verified every time, by libsodium, against the raw
public key of the certificate that checked out.  The certificate is
verified inline, the first time it is presented; the hop signature
inline or in the helper process, by the rule in simnet's module
docstring.  The subject match and the BadSignature refusal stay in the
simulator's process either way.

A message is frozen, so its encodings are built once and kept for the
signature check, the trace digest and the privacy monitor.  Both are
canonical JSON: sorted keys, no spaces, ASCII only.  Each message is
JSON-encoded once, for its signed part, by its payload type's own encoder:
the type's fields are sorted by name once, at import; a certificate brings
its JSON, built once; strings are escaped by json's own ensure_ascii
escaper.  The whole-message bytes are derived from the signed part by
putting the sealed bytes in place of their mask and adding the signature.
"""

from __future__ import annotations

import hashlib
import typing
from dataclasses import dataclass, fields, replace
from enum import Enum
from functools import cached_property
from json.encoder import encode_basestring_ascii as _string

from . import crypto
from .crypto import Certificate
from .tokens import SealedToken


class Role(str, Enum):
    CUSTOMER = "C"
    MERCHANT = "M"
    CUSTOMER_BANK = "CB"
    MERCHANT_BANK = "MB"
    TTP = "TTP"


@dataclass(frozen=True)
class EntityId:
    role: Role
    index: int

    def __post_init__(self):
        # The name is built once.  It is not a field, so equality, hashing
        # and repr are those of (role, index).
        object.__setattr__(self, "name", f"{self.role.value}{self.index}")

    def __str__(self) -> str:
        return self.name

    @staticmethod
    def parse(text: str) -> "EntityId":
        for role in sorted(Role, key=lambda r: -len(r.value)):
            if text.startswith(role.value) and text[len(role.value):].isdigit():
                return EntityId(role, int(text[len(role.value):]))
        raise ValueError(f"not an entity id: {text!r}")


# The one issuing bank, acquiring bank and arbiter of every world.
CB0 = EntityId(Role.CUSTOMER_BANK, 0)
MB0 = EntityId(Role.MERCHANT_BANK, 0)
TTP0 = EntityId(Role.TTP, 0)


@dataclass(frozen=True)
class TransactionId:
    """Customer-scoped transaction name, e.g. C0-1 for C0's first purchase."""

    customer: EntityId
    serial: int

    def __post_init__(self):
        object.__setattr__(self, "name", f"{self.customer}-{self.serial}")

    def __str__(self) -> str:
        return self.name

    @staticmethod
    def parse(text: str) -> "TransactionId":
        head, _, tail = text.rpartition("-")
        if not head or not tail.isdigit():
            raise ValueError(f"not a transaction id: {text!r}")
        return TransactionId(EntityId.parse(head), int(tail))


@dataclass(frozen=True)
class OrderInfo:
    """What is being bought, shared by customer and merchant (and escrowed
    at the arbiter); banks never see product or quantity."""

    order_number: str
    product: str
    quantity: int
    unit_price: int
    total_price: int
    merchant: EntityId

    def __post_init__(self):
        if self.quantity <= 0:
            raise ValueError("quantity must be positive")
        if self.unit_price <= 0 or self.total_price <= 0:
            raise ValueError("prices must be positive minor units")
        if self.total_price != self.unit_price * self.quantity:
            raise ValueError("total_price must equal unit_price * quantity")


class MsgKind(str, Enum):
    BROWSE = "Browse"
    OFFER = "Offer"
    TRUST_LOOKUP = "TrustLookup"
    TRUST_REPLY = "TrustReply"
    TOKEN_REQUEST = "TokenRequest"
    TOKEN_ISSUED = "TokenIssued"
    PURCHASE_CONFIRM = "PurchaseConfirm"
    ESCROW_DEPOSIT = "EscrowDeposit"
    TEMP_PAYMENT_QUERY = "TempPaymentQuery"
    TEMP_PAYMENT_ACK = "TempPaymentAck"
    GOODS_DISPATCH = "GoodsDispatch"
    ACCEPT_GOODS = "AcceptGoods"
    REJECT_GOODS = "RejectGoods"
    TOKEN_RELEASE = "TokenRelease"
    PAYMENT_REQUEST = "PaymentRequest"
    SETTLEMENT = "Settlement"
    TAMPER_REPORT = "TamperReport"
    REGENERATE_REQUEST = "RegenerateRequest"
    COMPLETION_NOTICE = "CompletionNotice"
    ESCROW_CANCEL = "EscrowCancel"
    ABORT_NOTICE = "AbortNotice"


# ---------------------------------------------------------------------------
# Payloads, one dataclass per message kind.

@dataclass(frozen=True)
class Browse:
    product: str
    quantity: int


@dataclass(frozen=True)
class Offer:
    order: OrderInfo
    merchant_cert: Certificate


@dataclass(frozen=True)
class TrustLookup:
    merchant: EntityId


@dataclass(frozen=True)
class TrustReply:
    rated: bool
    trust_factor: str | None = None
    grade: str | None = None


@dataclass(frozen=True)
class TokenRequest:
    amount: int
    customer_cert: Certificate
    merchant_cert: Certificate


@dataclass(frozen=True)
class TokenIssued:
    sealed: SealedToken


@dataclass(frozen=True)
class PurchaseConfirm:
    order: OrderInfo
    customer_cert: Certificate


@dataclass(frozen=True)
class EscrowDeposit:
    order: OrderInfo
    sealed: SealedToken


@dataclass(frozen=True)
class TempPaymentQuery:
    order_number: str


@dataclass(frozen=True)
class TempPaymentAck:
    token_digest: str
    amount: int


@dataclass(frozen=True)
class GoodsDispatch:
    order_number: str
    product: str
    quantity: int
    replacement: bool = False


@dataclass(frozen=True)
class AcceptGoods:
    order_number: str


@dataclass(frozen=True)
class RejectGoods:
    order_number: str
    reason: str = "unsatisfactory"


@dataclass(frozen=True)
class TokenRelease:
    sealed: SealedToken
    merchant: EntityId


@dataclass(frozen=True)
class PaymentRequest:
    sealed: SealedToken
    merchant: EntityId


@dataclass(frozen=True)
class Settlement:
    amount: int
    duplicate: bool = False


@dataclass(frozen=True)
class TamperReport:
    reason: str
    detail: str = ""


@dataclass(frozen=True)
class RegenerateRequest:
    reason: str = "tamper"


@dataclass(frozen=True)
class CompletionNotice:
    status: str
    reason: str = ""

    def __post_init__(self):
        if self.status not in ("completed", "aborted"):
            raise ValueError("status must be completed or aborted")


@dataclass(frozen=True)
class EscrowCancel:
    reason: str


@dataclass(frozen=True)
class AbortNotice:
    reason: str


PAYLOAD_TYPES = {
    MsgKind.BROWSE: Browse,
    MsgKind.OFFER: Offer,
    MsgKind.TRUST_LOOKUP: TrustLookup,
    MsgKind.TRUST_REPLY: TrustReply,
    MsgKind.TOKEN_REQUEST: TokenRequest,
    MsgKind.TOKEN_ISSUED: TokenIssued,
    MsgKind.PURCHASE_CONFIRM: PurchaseConfirm,
    MsgKind.ESCROW_DEPOSIT: EscrowDeposit,
    MsgKind.TEMP_PAYMENT_QUERY: TempPaymentQuery,
    MsgKind.TEMP_PAYMENT_ACK: TempPaymentAck,
    MsgKind.GOODS_DISPATCH: GoodsDispatch,
    MsgKind.ACCEPT_GOODS: AcceptGoods,
    MsgKind.REJECT_GOODS: RejectGoods,
    MsgKind.TOKEN_RELEASE: TokenRelease,
    MsgKind.PAYMENT_REQUEST: PaymentRequest,
    MsgKind.SETTLEMENT: Settlement,
    MsgKind.TAMPER_REPORT: TamperReport,
    MsgKind.REGENERATE_REQUEST: RegenerateRequest,
    MsgKind.COMPLETION_NOTICE: CompletionNotice,
    MsgKind.ESCROW_CANCEL: EscrowCancel,
    MsgKind.ABORT_NOTICE: AbortNotice,
}
# Each payload type serves one kind, so a payload names its message's kind.
KIND_OF = {payload_type: kind for kind, payload_type in PAYLOAD_TYPES.items()}

# Field name whose bytes are excluded from hop signatures (see module doc).
_SIGN_EXEMPT = "sealed"
_MASK = "<sealed>"


# ---------------------------------------------------------------------------
# One encoder per payload type: the signed part written directly.

_MASK_JSON = _string(_MASK)
# The masked field as it appears in the signed part.  JSON escapes every
# quote inside a string, so these bytes can only be the field itself.
_MASKED_FIELD = f"{_string(_SIGN_EXEMPT)}:{_MASK_JSON}".encode()


def _scalar(value) -> str:
    """A str, int, bool or None field as json writes it."""
    if isinstance(value, str):
        return _string(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"cannot canonicalize {type(value).__name__}")


def _object_encoder(cls):
    """The writer of a ``cls`` instance as a JSON object.  Its fields are
    sorted by name here, once; each is written by the encoder of its
    annotated type, or as a scalar.  A payload's sealed field is its mask."""
    hints = typing.get_type_hints(cls)
    plan = [(f'{_string(f.name)}:',
             f.name,
             (lambda _: _MASK_JSON) if f.name == _SIGN_EXEMPT
             else _FIELD_ENCODERS.get(hints[f.name], _scalar))
            for f in sorted(fields(cls), key=lambda f: f.name)]

    def encode(value) -> str:
        return "{%s}" % ",".join([key + write(getattr(value, name))
                                  for key, name, write in plan])
    return encode


_FIELD_ENCODERS = {
    EntityId: lambda eid: _string(eid.name),
    Certificate: lambda cert: cert.canonical_json,
}
_FIELD_ENCODERS[OrderInfo] = _object_encoder(OrderInfo)
_PAYLOAD_ENCODERS = {cls: _object_encoder(cls)
                     for cls in PAYLOAD_TYPES.values()}
_SIGNED_PART = '{"kind":%s,"payload":%s,"receiver":%s,"sender":%s,"txn":%s}'
_KIND_JSON = {kind: _string(kind.value) for kind in MsgKind}


def _json_keys(cls) -> frozenset:
    """Every key of the JSON form of a ``cls`` instance, at any depth: the
    encoders above write an order and a certificate as nested objects, and
    every other field as a string, a number, a bool or null."""
    hints = typing.get_type_hints(cls)
    keys = set()
    for f in fields(cls):
        keys.add(f.name)
        if hints[f.name] in (OrderInfo, Certificate):
            keys |= _json_keys(hints[f.name])
    return frozenset(keys)


# Payload type -> every key of its JSON form, for the privacy monitor.
PAYLOAD_KEYS = {cls: _json_keys(cls) for cls in PAYLOAD_TYPES.values()}


def order_digest(order: OrderInfo) -> str:
    encoded = _FIELD_ENCODERS[OrderInfo](order).encode()
    return hashlib.sha256(encoded).hexdigest()


def sealed_digest(sealed: SealedToken) -> str:
    return hashlib.sha256(sealed.envelope).hexdigest()


@dataclass(frozen=True)
class ProtocolMessage:
    kind: MsgKind
    sender: EntityId
    receiver: EntityId
    txn: TransactionId
    payload: object
    signature: bytes = b""

    def __post_init__(self):
        expected = PAYLOAD_TYPES[self.kind]
        if not isinstance(self.payload, expected):
            raise TypeError(f"{self.kind.value} payload must be "
                            f"{expected.__name__}")

    # The kept encodings are cached properties: each is built on first use.
    # dataclasses.replace makes a copy that keeps none of them, so a copy
    # with any field changed is encoded afresh.

    @cached_property
    def signed_part(self) -> bytes:
        """signing_bytes(), kept."""
        return self.signing_bytes()

    @cached_property
    def wire(self) -> bytes:
        """The whole message, derived from the signed part: the sealed bytes
        replace their mask, and the signature goes before txn, the last of
        the sorted keys."""
        signed = self.signed_part
        sealed = self.sealed_token()
        if sealed is not None:
            unmasked = _MASKED_FIELD.replace(_MASK.encode(),
                                             sealed.envelope.hex().encode())
            signed = signed.replace(_MASKED_FIELD, unmasked, 1)
        at = signed.rfind(b',"txn":')
        signature = self.signature.hex().encode()
        return b'%s,"signature":"%s"%s' % (signed[:at], signature, signed[at:])

    def signing_bytes(self) -> bytes:
        """Encodes what the hop signature covers: header and payload as
        canonical JSON, the sealed bytes masked, written by the payload
        type's encoder."""
        payload = self.payload
        return (_SIGNED_PART % (
            _KIND_JSON[self.kind],
            _PAYLOAD_ENCODERS[type(payload)](payload),
            _string(self.receiver.name), _string(self.sender.name),
            _string(self.txn.name))).encode()

    def canonical_bytes(self) -> bytes:
        """Encodes the whole message, signature and sealed bytes included."""
        return self.wire

    def digest(self) -> str:
        return hashlib.sha256(self.wire).hexdigest()

    def edge(self) -> tuple[str, str]:
        return (self.sender.name, self.receiver.name)

    def sealed_token(self) -> SealedToken | None:
        return getattr(self.payload, _SIGN_EXEMPT, None)

    def with_sealed(self, sealed: SealedToken) -> "ProtocolMessage":
        """Copy of this message with the sealed bytes swapped out.  The
        signature is kept as-is; it remains valid because hop signatures
        exclude the sealed field, and so does the kept signed part."""
        if self.sealed_token() is None:
            raise ValueError(f"{self.kind.value} carries no sealed token")
        copy = replace(self, payload=replace(self.payload,
                                             **{_SIGN_EXEMPT: sealed}))
        copy.__dict__["signed_part"] = self.signed_part
        return copy


def sign_message(msg: ProtocolMessage, key) -> ProtocolMessage:
    """The signed copy of ``msg``.  It keeps the signed part of ``msg``,
    which the signature does not enter.  The copy takes the fields of
    ``msg`` as they are, without running the checks ``msg`` passed when it
    was built."""
    signed_part = msg.signed_part
    signed = object.__new__(ProtocolMessage)
    signed.__dict__.update(
        kind=msg.kind, sender=msg.sender, receiver=msg.receiver, txn=msg.txn,
        payload=msg.payload, signature=crypto.sign(key, signed_part),
        signed_part=signed_part)
    return signed


def verify_message(msg: ProtocolMessage, sender_cert: Certificate,
                   certs: crypto.CertificateChecks) -> bool:
    """The certificate names the sender and is root-signed (checked once per
    world, which keeps its raw key), and the hop signature verifies
    against that key (checked on every call)."""
    if msg.sender.name != sender_cert.subject:
        return False
    return certs.signed(sender_cert, msg.signature, msg.signed_part)
