import dataclasses
import hashlib
import typing

import pytest
from hypothesis import given, settings, strategies as st

from tset import crypto
from tset import messages as m
from tset.messages import (
    EntityId,
    MsgKind,
    OrderInfo,
    ProtocolMessage,
    Role,
    TransactionId,
    sign_message,
    verify_message,
)
from tset.tokens import SealedToken

import reference_encoding as ref
from conftest import sample_payloads


def eid(text: str) -> EntityId:
    return EntityId.parse(text)


def certs(keyset) -> crypto.CertificateChecks:
    return crypto.CertificateChecks(keyset.root_public)


@pytest.fixture()
def txn():
    return TransactionId(eid("C0"), 1)


@pytest.fixture()
def order():
    return OrderInfo("ORD-M0-1", "widget", 2, 7500, 15000, eid("M0"))


def test_entity_id_parse_roundtrip():
    for text in ("C0", "M12", "CB0", "MB0", "TTP0"):
        assert str(eid(text)) == text
    assert eid("CB0").role is Role.CUSTOMER_BANK
    assert eid("MB3").role is Role.MERCHANT_BANK
    for bad in ("X0", "C", "0", "CB", "ttp0", ""):
        with pytest.raises(ValueError):
            EntityId.parse(bad)


def test_transaction_id_parse_roundtrip(txn):
    assert str(txn) == "C0-1"
    assert TransactionId.parse("C0-1") == txn
    assert TransactionId.parse("MB0-12").serial == 12
    for bad in ("C0", "C0-", "-1", "C0-x"):
        with pytest.raises(ValueError):
            TransactionId.parse(bad)


def test_order_info_validates_totals(order):
    with pytest.raises(ValueError):
        OrderInfo("o", "widget", 2, 7500, 14999, eid("M0"))
    with pytest.raises(ValueError):
        OrderInfo("o", "widget", 0, 7500, 0, eid("M0"))
    with pytest.raises(ValueError):
        OrderInfo("o", "widget", 1, 0, 0, eid("M0"))


def test_payload_type_enforced(txn):
    with pytest.raises(TypeError):
        ProtocolMessage(MsgKind.BROWSE, eid("C0"), eid("M0"), txn,
                        m.AcceptGoods("o"))


def test_completion_notice_status_restricted():
    with pytest.raises(ValueError):
        m.CompletionNotice("maybe")


def test_sign_verify_roundtrip(keyset, txn):
    msg = ProtocolMessage(MsgKind.BROWSE, eid("C0"), eid("M0"), txn,
                          m.Browse("widget", 1))
    msg = sign_message(msg, keyset.customer_key)
    assert verify_message(msg, keyset.cert_customer, certs(keyset))


def test_verify_rejects_header_tamper(keyset, txn):
    msg = sign_message(
        ProtocolMessage(MsgKind.BROWSE, eid("C0"), eid("M0"), txn,
                        m.Browse("widget", 1)),
        keyset.customer_key)
    msg = dataclasses.replace(msg, payload=m.Browse("widget", 2))
    assert not verify_message(msg, keyset.cert_customer, certs(keyset))


def test_verify_rejects_wrong_sender_cert(keyset, txn):
    msg = sign_message(
        ProtocolMessage(MsgKind.BROWSE, eid("C0"), eid("M0"), txn,
                        m.Browse("widget", 1)),
        keyset.customer_key)
    assert not verify_message(msg, keyset.cert_merchant, certs(keyset))


def sealed_fixture(tag: bytes) -> SealedToken:
    return SealedToken(tag * 30)  # 60+ bytes of opaque envelope


def test_sealed_bytes_excluded_from_signature(keyset, txn):
    a = sign_message(
        ProtocolMessage(MsgKind.TOKEN_RELEASE, eid("TTP0"), eid("MB0"), txn,
                        m.TokenRelease(sealed_fixture(b"aa"), eid("M0"))),
        keyset.customer_key)
    b = a.with_sealed(sealed_fixture(b"bb"))
    assert a.signing_bytes() == b.signing_bytes()
    assert a.signature == b.signature
    # but the whole message (and thus the trace digest) differs
    assert a.wire != b.wire
    assert a.digest() != b.digest()
    assert b"<sealed>" in a.signing_bytes()
    assert sealed_fixture(b"aa").envelope.hex().encode() \
        not in a.signing_bytes()


def test_with_sealed_preserves_signature_validity(keyset, txn):
    msg = sign_message(
        ProtocolMessage(MsgKind.PAYMENT_REQUEST, eid("MB0"), eid("CB0"), txn,
                        m.PaymentRequest(sealed_fixture(b"aa"), eid("M0"))),
        keyset.customer_key)
    swapped = msg.with_sealed(sealed_fixture(b"cc"))
    cert = crypto.issue_certificate(
        keyset.root_key, "MB0", keyset.customer_key.public_key)
    assert verify_message(swapped, cert, certs(keyset))


def test_with_sealed_requires_token_bearing_kind(keyset, txn):
    msg = ProtocolMessage(MsgKind.BROWSE, eid("C0"), eid("M0"), txn,
                          m.Browse("widget", 1))
    assert msg.sealed_token() is None
    with pytest.raises(ValueError):
        msg.with_sealed(sealed_fixture(b"aa"))


def test_canonical_bytes_cover_signature(keyset, txn):
    msg = sign_message(
        ProtocolMessage(MsgKind.BROWSE, eid("C0"), eid("M0"), txn,
                        m.Browse("widget", 1)),
        keyset.customer_key)
    with_sig = msg.digest()
    msg = dataclasses.replace(msg, signature=b"\x00" * 64)
    assert msg.digest() != with_sig


def test_wire_equals_the_reference_encoding_whatever_the_strings(keyset,
                                                                 txn):
    # Text that spells the masked sealed field, the mask, and the final txn
    # key, which a careless splice of the signed part would mistake for
    # the real ones.
    text = '"sealed":"<sealed>" <sealed> ,"txn":"C0-1"}'
    order = OrderInfo("ORD-M0-1", text, 1, 7500, 7500, eid("M0"))
    payloads = [
        (MsgKind.TAMPER_REPORT, m.TamperReport(text, detail=text)),
        (MsgKind.ABORT_NOTICE, m.AbortNotice(text)),
        (MsgKind.ESCROW_DEPOSIT,
         m.EscrowDeposit(order, sealed_fixture(b"ab"))),
    ]
    for kind, payload in payloads:
        msg = ProtocolMessage(kind, eid("C0"), eid("TTP0"), txn, payload)
        signed = sign_message(msg, keyset.customer_key)
        for each in (msg, signed):
            assert each.wire == ref.whole(each), kind
    swapped = signed.with_sealed(sealed_fixture(b"cd"))
    assert swapped.wire == ref.whole(swapped)
    assert swapped.wire != signed.wire


def test_edge_and_digest_shapes(keyset, txn):
    msg = sign_message(
        ProtocolMessage(MsgKind.BROWSE, eid("C0"), eid("M0"), txn,
                        m.Browse("widget", 1)),
        keyset.customer_key)
    assert msg.edge() == ("C0", "M0")
    assert len(msg.digest()) == 64
    int(msg.digest(), 16)


def test_order_digest_stable_and_distinct(order):
    other = OrderInfo("ORD-M0-1", "widget", 2, 7500, 15000, eid("M1"))
    assert m.order_digest(order) == m.order_digest(order)
    assert m.order_digest(order) != m.order_digest(other)


def test_order_digest_hashes_the_reference_bytes_of_the_order(order):
    # The ledger's oi_digest: a change here changes every ledger digest.
    text = '"sealed":"<sealed>" \u00e9\x00\\'
    for each in (order, OrderInfo(text, text, 3, 2 ** 70, 3 * 2 ** 70,
                                  eid("M12"))):
        assert m.order_digest(each) \
            == hashlib.sha256(ref.canon(ref.jsonable(each))).hexdigest()
    assert m.order_digest(order) == (
        "098c9dd2ac24615c7500de1c6ad8681449f43ee57488facacd72fa45f444f94c")


def test_payload_dict_is_plain_data(keyset, txn, order):
    # The reference form the privacy scan reads: nested dicts, sealed hex.
    msg = ProtocolMessage(
        MsgKind.ESCROW_DEPOSIT, eid("C0"), eid("TTP0"), txn,
        m.EscrowDeposit(order, sealed_fixture(b"ab")))
    d = ref.payload_dict(msg)
    assert d["order"]["product"] == "widget"
    assert d["sealed"] == (b"ab" * 30).hex()


def test_every_kind_has_a_payload_type():
    assert set(m.PAYLOAD_TYPES) == set(MsgKind)
    # A payload type serves one kind, so it can name the kind it carries.
    assert len(set(m.PAYLOAD_TYPES.values())) == len(m.PAYLOAD_TYPES)
    assert {kind: payload_type for payload_type, kind in m.KIND_OF.items()} \
        == m.PAYLOAD_TYPES


# -- the per-type encoders against the reference encoding -------------------

def test_signing_bytes_of_every_kind_equal_the_reference(keyset, txn):
    samples = sample_payloads(keyset)
    assert set(samples) == set(MsgKind)
    for kind, payload in samples.items():
        msg = ProtocolMessage(kind, eid("C0"), eid("M0"), txn, payload)
        assert msg.signing_bytes() == ref.signed_part(msg), kind
        signed = sign_message(msg, keyset.customer_key)
        assert signed.wire == ref.whole(signed), kind


def _payload_keys(obj) -> set:
    """Every key of a JSON-ready value, at any depth."""
    keys = set()
    if isinstance(obj, dict):
        for k, v in obj.items():
            keys.add(k)
            keys |= _payload_keys(v)
    return keys


def test_each_payload_type_has_the_key_set_of_its_json_form(keyset, txn):
    for kind, payload in sample_payloads(keyset).items():
        msg = ProtocolMessage(kind, eid("C0"), eid("M0"), txn, payload)
        assert m.PAYLOAD_KEYS[type(payload)] \
            == _payload_keys(ref.payload_dict(msg)), kind


# Quotes, backslashes, control characters, non-ASCII text and the spelling
# of the mask, beside text of any kind.
_text = st.one_of(st.text(), st.text(
    alphabet='"\\/\x00\x08\x1f\x7f\u00e9\u2028\U0001f600<>sealed:,'))
_eids = st.builds(EntityId, st.sampled_from(Role), st.integers(0, 10 ** 6))


@st.composite
def _orders(draw) -> OrderInfo:
    quantity = draw(st.integers(1, 10 ** 6))
    unit_price = draw(st.integers(1, 2 ** 80))
    return OrderInfo(draw(_text), draw(_text), quantity, unit_price,
                     quantity * unit_price, draw(_eids))


_BY_ANNOTATION = {
    str: _text,
    str | None: st.one_of(st.none(), _text),
    # Large amounts, past 64 bits too, and negative ones.
    int: st.one_of(st.integers(), st.integers(2 ** 62, 2 ** 200)),
    # A bool field holding an int must stay a number.
    bool: st.one_of(st.booleans(), st.integers(-1, 2)),
    EntityId: _eids,
    OrderInfo: _orders(),
    crypto.Certificate: st.builds(
        crypto.Certificate, _text.filter(bool),
        st.binary(min_size=32, max_size=32),
        st.binary(min_size=64, max_size=64)),
    SealedToken: st.builds(SealedToken, st.binary(min_size=60, max_size=90)),
}


def _messages(kind: MsgKind):
    payload_type = m.PAYLOAD_TYPES[kind]
    hints = typing.get_type_hints(payload_type)
    drawn = {f.name: _BY_ANNOTATION[hints[f.name]]
             for f in dataclasses.fields(payload_type)}
    if payload_type is m.CompletionNotice:
        drawn["status"] = st.sampled_from(["completed", "aborted"])
    return st.builds(ProtocolMessage, st.just(kind), _eids, _eids,
                     st.builds(TransactionId, _eids, st.integers(0, 10 ** 9)),
                     st.builds(payload_type, **drawn),
                     st.binary(max_size=64))


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(msg=st.sampled_from(MsgKind).flatmap(_messages))
def test_signing_bytes_equal_the_reference_whatever_the_fields(msg):
    assert msg.signing_bytes() == ref.signed_part(msg)
    assert msg.wire == ref.whole(msg)
