"""Role state machines driven message by message.

Each test builds the one-customer world from the shared scenario and hands
hand-signed messages straight to an entity's step(), so transitions,
emissions, and refusals are observable without the network in between.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tset

from tset import messages as m
from tset.entities import (
    AcceptancePolicy,
    AcquirerPhase as AP,
    ArbiterPhase as TP,
    CustomerPhase as CP,
    IssuerPhase as IP,
    MerchantPhase as MP,
    PurchaseIntent,
    TRANSITION_TABLES,
)
from tset.messages import (CB0, TTP0, MsgKind as K, ProtocolMessage,
                           TransactionId)
from tset.rng import ByteStream
from tset.scenario import ScenarioConfig, build_world
from tset.tokens import SealedToken, open_token, seal_token
from tset.trust import Grade, TrustRecord

from conftest import basic_scenario


@pytest.fixture()
def world():
    return build_world(ScenarioConfig.from_dict(basic_scenario()))


def signed(world, sender: str, kind: K, receiver: str, txn, payload):
    ent = world.entities[sender]
    msg = ProtocolMessage(kind, ent.id, world.entities[receiver].id,
                          txn, payload)
    return m.sign_message(msg, ent._key)


def txn_of(world, serial=1) -> TransactionId:
    return TransactionId(world.customers["C0"].id, serial)


# -- customer decision policy -------------------------------------------------

def test_decide_default_accepts_unrated():
    reply = m.TrustReply(rated=False)
    assert AcceptancePolicy().admits(reply)


def test_decide_min_grade_refuses_unrated():
    policy = AcceptancePolicy(min_grade=Grade.B1)
    assert not policy.admits(m.TrustReply(False))
    allow = AcceptancePolicy(min_grade=Grade.B1, accept_unrated=True)
    assert allow.admits(m.TrustReply(False))


def test_decide_compares_grades():
    policy = AcceptancePolicy(min_grade=Grade.B1)
    at = m.TrustReply(True, "70.00", "B1")
    above = m.TrustReply(True, "97.50", "A1")
    below = m.TrustReply(True, "66.67", "B2")
    assert policy.admits(at)
    assert policy.admits(above)
    assert not policy.admits(below)


def assert_refused(result, violation, entity, txn, phase):
    """One violation named, nothing emitted, the phase kept."""
    assert result.violations == [violation]
    assert result.messages == []
    assert entity.phase_of(txn) is phase


# -- generic step() behavior ----------------------------------------------------

def test_illegal_pair_is_violation_without_state_change(world):
    ttp, txn = world.ttp, txn_of(world)
    msg = signed(world, "C0", K.ACCEPT_GOODS, "TTP0", txn,
                 m.AcceptGoods("ORD-M0-1"))
    result = ttp.step(msg, 1)
    assert result.violations == ["ProtocolViolation:TTP0:NewxAcceptGoods"]
    assert result.messages == []
    assert ttp.phase_of(txn) is TP.NEW


def test_bad_signature_is_rejected_before_handling(world):
    txn = txn_of(world)
    msg = signed(world, "C0", K.TRUST_LOOKUP, "TTP0", txn,
                 m.TrustLookup(world.entities["M0"].id))
    msg = dataclasses.replace(msg, signature=bytes(64))
    result = world.ttp.step(msg, 1)
    assert result.violations and "BadSignature" in result.violations[0]
    assert world.ttp.phase_of(txn) is TP.NEW


def test_unknown_sender_is_rejected(world):
    txn = txn_of(world)
    msg = signed(world, "C0", K.TRUST_LOOKUP, "TTP0", txn,
                 m.TrustLookup(world.entities["M0"].id))
    msg = dataclasses.replace(msg, sender=m.EntityId.parse("C7"))
    result = world.ttp.step(msg, 1)
    assert result.violations and "BadSignature" in result.violations[0]


# Run as a script under both optimisation levels: a merchant whose row
# method answers a Browse from New with Done, against the table's
# AwaitConfirm.
_ILLEGAL_STEP_SCRIPT = """
import json
from tset import messages as m
from tset.entities import Merchant, MerchantPhase
from tset.messages import MsgKind, ProtocolMessage, TransactionId
from tset.scenario import ScenarioConfig, build_world

Merchant._quote = lambda self, msg, phase, now, result: MerchantPhase.DONE
world = build_world(ScenarioConfig.from_dict({
    "customers": [{"balance": 100000, "purchases": []}],
    "merchants": [{"catalog": {"widget": 15000}}]}))
customer, merchant = world.entities["C0"], world.entities["M0"]
txn = TransactionId(customer.id, 1)
browse = m.sign_message(ProtocolMessage(MsgKind.BROWSE, customer.id,
                                        merchant.id, txn,
                                        m.Browse("widget", 1)),
                        customer._key)
result = merchant.step(browse, 1)
print(json.dumps({"violations": result.violations,
                  "messages": len(result.messages),
                  "phase": merchant.phase_of(txn).value}))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimised"])
def test_illegal_transition_is_refused_under_any_optimisation(flags):
    src = str(Path(tset.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, *flags, "-c", _ILLEGAL_STEP_SCRIPT],
                          capture_output=True, text=True, env=env,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {
        "violations": ["IllegalTransition:M0:NewxBrowse->Done"],
        "messages": 0, "phase": "New"}


def test_illegal_emission_is_dropped(world, monkeypatch):
    merchant, txn = world.entities["M0"], txn_of(world)

    def quote(self, msg, phase, now, result):
        self._emit(result, TTP0, msg.txn,
                   m.TempPaymentQuery("ORD-M0-1"))
        return MP.AWAIT_CONFIRM

    monkeypatch.setattr(type(merchant), "_quote", quote)
    result = merchant.step(
        signed(world, "C0", K.BROWSE, "M0", txn, m.Browse("widget", 1)), 1)
    assert result.violations == [
        "IllegalEmission:M0:NewxBrowse:TempPaymentQuery"]
    assert result.messages == []
    assert merchant.phase_of(txn) is MP.NEW


def test_emission_of_another_branch_is_refused(world, monkeypatch):
    # The trust reply's row allows a TokenRequest on the way to AwaitToken
    # and an AbortNotice on the way to Aborted, never the one with the other.
    customer, txn = world.customers["C0"], txn_of(world)
    customer.begin_purchase(PurchaseIntent(world.entities["M0"].id,
                                           "widget", 1), 1)
    customer.step(offer_for(world, txn), 2)
    request_token = type(customer)._request_token

    def gate(self, msg, phase, now, result):
        request_token(self, msg, phase, now, result)
        return CP.ABORTED

    monkeypatch.setattr(type(customer), "_gate", gate)
    reply = signed(world, "TTP0", K.TRUST_REPLY, "C0", txn,
                   m.TrustReply(False))
    assert_refused(customer.step(reply, 3),
                   "IllegalEmission:C0:AwaitTrustxTrustReply:TokenRequest",
                   customer, txn, CP.AWAIT_TRUST)


def test_emission_to_another_role_is_refused(world, monkeypatch):
    # A TempPaymentQuery is the merchant's to send to the arbiter only.
    merchant, txn = world.entities["M0"], txn_of(world)
    merchant.phases[str(txn)] = MP.AWAIT_CONFIRM

    def query(self, msg, phase, now, result):
        self._emit(result, CB0, msg.txn, m.TempPaymentQuery("ORD-M0-1"))
        return MP.AWAIT_ACK

    monkeypatch.setattr(type(merchant), "_query", query)
    order = m.OrderInfo("ORD-M0-1", "widget", 1, 15000, 15000, merchant.id)
    confirm = signed(world, "C0", K.PURCHASE_CONFIRM, "M0", txn,
                     m.PurchaseConfirm(order, world.customers["C0"]
                                       .certificate))
    assert_refused(
        merchant.step(confirm, 4),
        "IllegalEmission:M0:AwaitConfirmxPurchaseConfirm:TempPaymentQuery",
        merchant, txn, MP.AWAIT_CONFIRM)


# A stale pair per role: the receiver is put in the phase (None: its start
# phase), then sent the kind by the sender.
STALE_PAIRS = {
    "customer": ("C0", CP.DONE, "TTP0", K.COMPLETION_NOTICE,
                 lambda world, txn: m.CompletionNotice("completed")),
    "merchant": ("M0", MP.DONE, "MB0", K.SETTLEMENT,
                 lambda world, txn: m.Settlement(15000)),
    "issuer": ("CB0", IP.CANCELLED, "TTP0", K.ESCROW_CANCEL,
               lambda world, txn: m.EscrowCancel("late")),
    "acquirer": ("MB0", AP.SETTLED, "TTP0", K.COMPLETION_NOTICE,
                 lambda world, txn: m.CompletionNotice("aborted", "late")),
    "arbiter": ("TTP0", None, "C0", K.ESCROW_DEPOSIT,
                lambda world, txn: m.EscrowDeposit(
                    m.OrderInfo("ORD-M0-1", "widget", 1, 15000, 15000,
                                world.entities["M0"].id),
                    issue_token(world, txn)[0])),
}


@pytest.mark.parametrize("pair", STALE_PAIRS.values(), ids=STALE_PAIRS)
def test_stale_pair_is_absorbed_without_its_handler(world, monkeypatch,
                                                    pair):
    receiver, phase, sender, kind, payload = pair
    entity, txn = world.entities[receiver], txn_of(world)
    msg = signed(world, sender, kind, receiver, txn, payload(world, txn))
    if phase is not None:
        entity.phases[str(txn)] = phase
    before = entity.phase_of(txn)

    def act(self, msg, phase, now, result):
        raise AssertionError("row method called on a stale row")

    for rule in TRANSITION_TABLES[entity.role].values():
        if rule.act is not None:
            monkeypatch.setattr(type(entity), rule.act, act)
    result = entity.step(msg, 20)
    assert (result.messages, result.violations) == ([], [])
    assert entity.phase_of(txn) is before


# Run as a script under both optimisation levels: the arbiter's deadline,
# armed by a TrustLookup, fires after its phase was forced to Settled,
# which has no Timer row.
_REFUSED_TIMER_SCRIPT = """
import json
from tset import messages as m
from tset.entities import ArbiterPhase
from tset.messages import MsgKind, ProtocolMessage, TransactionId
from tset.scenario import ScenarioConfig, build_world

world = build_world(ScenarioConfig.from_dict({
    "customers": [{"balance": 100000, "purchases": []}],
    "merchants": [{"catalog": {"widget": 15000}}]}))
customer, ttp = world.entities["C0"], world.ttp
txn = TransactionId(customer.id, 1)
lookup = m.sign_message(ProtocolMessage(MsgKind.TRUST_LOOKUP, customer.id,
                                        ttp.id, txn,
                                        m.TrustLookup(world.entities["M0"].id)),
                        customer._key)
ttp.step(lookup, 3)
ttp.phases[str(txn)] = ArbiterPhase.SETTLED
due = ttp.timer_due(str(txn))
result = ttp.fire_timer(str(txn), due)
print(json.dumps({"violations": result.violations,
                  "messages": len(result.messages),
                  "phase": ttp.phase_of(txn).value,
                  "events": [entry.event for entry in ttp.ledger]}))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimised"])
def test_timer_without_a_row_is_refused_under_any_optimisation(flags):
    src = str(Path(tset.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, *flags, "-c", _REFUSED_TIMER_SCRIPT],
        capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {
        "violations": ["ProtocolViolation:TTP0:SettledxTimer"],
        "messages": 0, "phase": "Settled", "events": []}


def test_timer_moving_outside_its_row_is_refused(world, monkeypatch):
    txn = txn_of(world)
    quote(world, txn)

    def on_timer(self, key, phase, now, result):
        self._emit(result, CB0, txn,
                   m.EscrowCancel("deadline expired"))
        return TP.SETTLED

    monkeypatch.setattr(type(world.ttp), "on_timer", on_timer)
    due = world.ttp.timer_due(str(txn))
    assert world.ttp.fire_timer(str(txn), due - 1).messages == []
    result = world.ttp.fire_timer(str(txn), due)
    assert result.violations == [
        "IllegalTransition:TTP0:QuotedxTimer->Settled"]
    assert result.messages == []
    assert world.ttp.phase_of(txn) is TP.QUOTED


def test_refused_transition_leaves_the_timer_as_it_was(world, monkeypatch):
    txn = txn_of(world)
    sealed, _ = issue_token(world, txn)
    quote(world, txn)
    due = world.ttp.timer_due(str(txn))
    assert due == 3 + world.ttp.deadline_ticks
    hold_escrow = type(world.ttp).hold_escrow

    def hold_then_dispatch(self, *args):
        hold_escrow(self, *args)
        return TP.DISPATCHED

    monkeypatch.setattr(type(world.ttp), "hold_escrow", hold_then_dispatch)
    result = deposit(world, txn, sealed, now=7)
    assert result.violations == [
        "IllegalTransition:TTP0:QuotedxEscrowDeposit->Dispatched"]
    assert world.ttp.phase_of(txn) is TP.QUOTED
    assert world.ttp.timer_due(str(txn)) == due


def test_arbiter_self_loops_keep_the_deadline(world):
    txn = txn_of(world)
    sealed, _ = issue_token(world, txn)
    quote(world, txn)
    deposit(world, txn, sealed, now=7)
    due = world.ttp.timer_due(str(txn))
    assert due == 7 + world.ttp.deadline_ticks
    query = world.ttp.step(
        signed(world, "M0", K.TEMP_PAYMENT_QUERY, "TTP0", txn,
               m.TempPaymentQuery("ORD-M0-1")), 9)
    report = world.ttp.step(
        signed(world, "CB0", K.TAMPER_REPORT, "TTP0", txn,
               m.TamperReport("tamper", "DecryptionFailure")), 11)
    assert [msg.kind for msg in query.messages] == [K.TEMP_PAYMENT_ACK]
    assert report.violations == []
    assert world.ttp.phase_of(txn) is TP.HELD
    assert world.ttp.timer_due(str(txn)) == due


# -- customer --------------------------------------------------------------------

def offer_for(world, txn, product="widget", quantity=1):
    merchant = world.entities["M0"]
    price = merchant.catalog[product]
    order = m.OrderInfo(f"ORD-M0-{txn.serial}", product, quantity, price,
                        price * quantity, merchant.id)
    return signed(world, "M0", K.OFFER, "C0", txn,
                  m.Offer(order, merchant.certificate))


def test_customer_flow_to_token_request(world):
    customer = world.customers["C0"]
    intent = PurchaseIntent(world.entities["M0"].id, "widget", 1)
    out = customer.begin_purchase(intent, 1)
    assert [msg.kind for msg in out.messages] == [K.BROWSE]
    txn = txn_of(world)
    assert customer.phase_of(txn) is CP.AWAIT_OFFER

    result = customer.step(offer_for(world, txn), 2)
    assert [msg.kind for msg in result.messages] == [K.TRUST_LOOKUP]
    assert customer.phase_of(txn) is CP.AWAIT_TRUST

    reply = signed(world, "TTP0", K.TRUST_REPLY, "C0", txn,
                   m.TrustReply(False))
    result = customer.step(reply, 3)
    assert [msg.kind for msg in result.messages] == [K.TOKEN_REQUEST]
    assert result.messages[0].payload.amount == 15000
    assert customer.phase_of(txn) is CP.AWAIT_TOKEN


def test_customer_rejects_mismatched_offer(world):
    customer = world.customers["C0"]
    customer.begin_purchase(PurchaseIntent(world.entities["M0"].id,
                                           "widget", 1), 1)
    txn = txn_of(world)
    result = customer.step(offer_for(world, txn, quantity=3), 2)
    assert any("OfferMismatch" in v for v in result.violations)
    assert customer.phase_of(txn) is CP.AWAIT_OFFER


def test_customer_rejects_forged_merchant_certificate(world):
    customer, merchant = world.customers["C0"], world.entities["M0"]
    customer.begin_purchase(PurchaseIntent(merchant.id, "widget", 1), 1)
    txn = txn_of(world)
    genuine = offer_for(world, txn)
    # M0's name and signature over C0's key: a forgery the memo never saw,
    # delivered after the genuine certificate has been checked.
    assert customer.certs.valid(merchant.certificate)
    forged = dataclasses.replace(
        merchant.certificate, public_key=customer.certificate.public_key)
    offer = signed(world, "M0", K.OFFER, "C0", txn,
                   dataclasses.replace(genuine.payload, merchant_cert=forged))
    result = customer.step(offer, 2)
    assert result.violations == ["AuthFailure:Offer:M0"]
    assert customer.phase_of(txn) is CP.AWAIT_OFFER
    customer.step(genuine, 3)
    assert customer.phase_of(txn) is CP.AWAIT_TRUST


def test_customer_trust_gate_aborts(world):
    customer = world.customers["C0"]
    customer.policy = AcceptancePolicy(min_grade=Grade.B1)
    customer.begin_purchase(PurchaseIntent(world.entities["M0"].id,
                                           "widget", 1), 1)
    txn = txn_of(world)
    customer.step(offer_for(world, txn), 2)
    reply = signed(world, "TTP0", K.TRUST_REPLY, "C0", txn,
                   m.TrustReply(False))
    result = customer.step(reply, 3)
    assert [msg.kind for msg in result.messages] == [K.ABORT_NOTICE]
    assert customer.phase_of(txn) is CP.ABORTED


def test_customer_refuses_completion_before_its_verdict(world):
    customer = world.customers["C0"]
    customer.begin_purchase(PurchaseIntent(world.entities["M0"].id,
                                           "widget", 1), 1)
    txn = txn_of(world)
    customer.step(offer_for(world, txn), 2)
    customer.step(signed(world, "TTP0", K.TRUST_REPLY, "C0", txn,
                         m.TrustReply(False)), 3)
    early = signed(world, "CB0", K.COMPLETION_NOTICE, "C0", txn,
                   m.CompletionNotice("completed"))
    assert_refused(customer.step(early, 4), "EarlyCompletion:C0-1",
                   customer, txn, CP.AWAIT_TOKEN)


# -- merchant ----------------------------------------------------------------------

def test_merchant_quotes_catalog_price(world):
    merchant = world.entities["M0"]
    txn = txn_of(world)
    result = merchant.step(
        signed(world, "C0", K.BROWSE, "M0", txn, m.Browse("widget", 2)), 1)
    offer = result.messages[0].payload
    assert offer.order.unit_price == 15000
    assert offer.order.total_price == 30000
    assert merchant.phase_of(txn) is MP.AWAIT_CONFIRM


def test_merchant_rejects_unknown_product(world):
    merchant = world.entities["M0"]
    txn = txn_of(world)
    result = merchant.step(
        signed(world, "C0", K.BROWSE, "M0", txn, m.Browse("anvil", 1)), 1)
    assert any("UnknownProduct" in v for v in result.violations)
    assert merchant.phase_of(txn) is MP.NEW


def merchant_awaiting_confirm(world):
    """M0 after quoting C0-1; returns the transaction and the order."""
    txn = txn_of(world)
    result = world.entities["M0"].step(
        signed(world, "C0", K.BROWSE, "M0", txn, m.Browse("widget", 1)), 1)
    return txn, result.messages[0].payload.order


def confirm(world, txn, order, cert):
    return world.entities["M0"].step(
        signed(world, "C0", K.PURCHASE_CONFIRM, "M0", txn,
               m.PurchaseConfirm(order, cert)), 2)


def test_merchant_refuses_confirm_with_another_partys_certificate(world):
    merchant = world.entities["M0"]
    txn, order = merchant_awaiting_confirm(world)
    result = confirm(world, txn, order, merchant.certificate)
    assert_refused(result, "AuthFailure:PurchaseConfirm:C0", merchant, txn,
                   MP.AWAIT_CONFIRM)


def test_merchant_refuses_confirm_of_another_order(world):
    merchant = world.entities["M0"]
    txn, order = merchant_awaiting_confirm(world)
    other = dataclasses.replace(order, quantity=2, total_price=30000)
    result = confirm(world, txn, other, world.customers["C0"].certificate)
    assert_refused(result, "OrderMismatch:C0-1", merchant, txn,
                   MP.AWAIT_CONFIRM)


def test_merchant_refuses_ack_of_another_amount(world):
    merchant = world.entities["M0"]
    txn, order = merchant_awaiting_confirm(world)
    confirm(world, txn, order, world.customers["C0"].certificate)
    assert merchant.phase_of(txn) is MP.AWAIT_ACK
    ack = signed(world, "TTP0", K.TEMP_PAYMENT_ACK, "M0", txn,
                 m.TempPaymentAck("ab" * 32, order.total_price - 1))
    assert_refused(merchant.step(ack, 3), "AckAmountMismatch:C0-1:14999",
                   merchant, txn, MP.AWAIT_ACK)


# -- issuing bank --------------------------------------------------------------------

def issue_token(world, txn, amount=15000):
    customer = world.customers["C0"]
    req = signed(world, "C0", K.TOKEN_REQUEST, "CB0", txn,
                 m.TokenRequest(amount, customer.certificate,
                                world.entities["M0"].certificate))
    result = world.cb.step(req, 5)
    issued = [msg for msg in result.messages if msg.kind is K.TOKEN_ISSUED]
    return issued[0].payload.sealed if issued else None, result


def test_issue_places_hold(world):
    txn = txn_of(world)
    sealed, _ = issue_token(world, txn)
    assert sealed is not None
    assert world.cb.accounts["C0"] == 85000
    assert world.cb.escrow_pool == 15000
    assert world.cb.phase_of(txn) is IP.ISSUED


def test_issue_insufficient_funds_aborts(world):
    txn = txn_of(world)
    sealed, result = issue_token(world, txn, amount=200000)
    assert sealed is None
    assert [msg.kind for msg in result.messages] == [K.COMPLETION_NOTICE]
    assert result.messages[0].payload.status == "aborted"
    assert world.cb.phase_of(txn) is IP.CANCELLED
    assert world.cb.escrow_pool == 0


def test_issue_refuses_another_partys_certificate(world):
    txn = txn_of(world)
    merchant_cert = world.entities["M0"].certificate
    req = signed(world, "C0", K.TOKEN_REQUEST, "CB0", txn,
                 m.TokenRequest(15000, merchant_cert, merchant_cert))
    assert_refused(world.cb.step(req, 5), "AuthFailure:TokenRequest:C0",
                   world.cb, txn, IP.NEW)
    assert world.cb.accounts["C0"] == 100000
    assert world.cb.holds == {}


def present(world, txn, sealed):
    return world.cb.step(
        signed(world, "MB0", K.PAYMENT_REQUEST, "CB0", txn,
               m.PaymentRequest(sealed, world.entities["M0"].id)), 9)


def test_settlement_moves_hold_out(world):
    txn = txn_of(world)
    sealed, _ = issue_token(world, txn)
    result = present(world, txn, sealed)
    kinds = [msg.kind for msg in result.messages]
    assert kinds == [K.SETTLEMENT, K.COMPLETION_NOTICE]
    assert result.messages[0].payload.amount == 15000
    assert not result.messages[0].payload.duplicate
    assert world.cb.phase_of(txn) is IP.SETTLED
    assert world.cb.escrow_pool == 0
    assert world.cb.settled_out_total == 15000
    assert world.cb.accounts["C0"] == 85000    # debited, not refunded


def test_replay_refused_with_idempotent_duplicate(world):
    txn = txn_of(world)
    sealed, _ = issue_token(world, txn)
    present(world, txn, sealed)
    result = present(world, txn, sealed)
    kinds = [msg.kind for msg in result.messages]
    assert kinds == [K.TAMPER_REPORT, K.SETTLEMENT]
    assert result.messages[0].payload.reason == "replay"
    assert result.messages[1].payload.duplicate
    assert world.cb.replay_refusals == 1
    assert world.cb.settled_out_total == 15000      # no second debit
    assert world.cb.phase_of(txn) is IP.SETTLED


def test_tampered_presentation_reports_and_waits(world):
    txn = txn_of(world)
    sealed, _ = issue_token(world, txn)
    mutated = bytearray(sealed.envelope)
    mutated[50] ^= 0xFF
    result = present(world, txn, SealedToken(bytes(mutated)))
    assert [msg.kind for msg in result.messages] == [K.TAMPER_REPORT]
    assert result.messages[0].payload.reason == "tamper"
    assert world.cb.phase_of(txn) is IP.TAMPER_WAIT
    assert world.cb.escrow_pool == 15000            # hold intact for retry


def _settle_other(world, other):
    present(world, txn_of(world, 2),
            seal_token(other, world.cb.keys, ByteStream(b"forger")))
    assert world.cb.phase_of(txn_of(world, 2)) is IP.SETTLED
    return other


# Forgeries presented for C0-1, by the detail they must be reported under.
# Each maps (world, C0-1's token, C0-2's token) to (token, sealing keys).
FORGERIES = {
    "FieldMismatch:amount": lambda world, token, other: (
        dataclasses.replace(token, amount=99), world.cb.keys),
    "UnknownTokenId": lambda world, token, other: (
        dataclasses.replace(token, token_id=bytes(range(32))), world.cb.keys),
    "TokenIdDecryptionFailure": lambda world, token, other: (
        token, dataclasses.replace(world.cb.keys, symmetric_key=bytes(32))),
    "TokenTxnMismatch": lambda world, token, other: (other, world.cb.keys),
    "AlreadySettledForeign": lambda world, token, other: (
        _settle_other(world, other), world.cb.keys),
}


@pytest.mark.parametrize("detail", FORGERIES)
def test_forged_presentation_names_its_flaw(world, detail):
    # Each token opens under the bank's own keys, so the check that refuses
    # it is the one after the envelope: id, mint record, purchase, fields.
    txn = txn_of(world)
    sealed, _ = issue_token(world, txn)
    token = open_token(sealed, world.cb.keys)
    other = open_token(issue_token(world, txn_of(world, 2))[0], world.cb.keys)
    forged, keys = FORGERIES[detail](world, token, other)
    result = present(world, txn,
                     seal_token(forged, keys, ByteStream(b"forger")))
    assert [(msg.kind, msg.payload.detail) for msg in result.messages] \
        == [(K.TAMPER_REPORT, detail)]
    assert world.cb.phase_of(txn) is IP.TAMPER_WAIT
    assert world.cb.holds["C0-1"].amount == 15000


def test_reissue_after_tamper_reuses_hold_and_settles(world):
    txn = txn_of(world)
    sealed, _ = issue_token(world, txn)
    mutated = bytearray(sealed.envelope)
    mutated[50] ^= 0xFF
    present(world, txn, SealedToken(bytes(mutated)))

    fresh, result = issue_token(world, txn)
    assert fresh is not None and fresh != sealed
    assert world.cb.escrow_pool == 15000            # same hold, no double debit
    assert world.cb.accounts["C0"] == 85000
    assert world.cb.phase_of(txn) is IP.ISSUED

    # Presenting the revoked original is tamper again; the bank also pulls
    # the live replacement so this txn has to regenerate once more.
    stale_result = present(world, txn, sealed)
    assert [msg.kind for msg in stale_result.messages] == [K.TAMPER_REPORT]
    assert world.cb.phase_of(txn) is IP.TAMPER_WAIT
    burned = present(world, txn, fresh)
    assert [msg.kind for msg in burned.messages] == [K.TAMPER_REPORT]

    third, _ = issue_token(world, txn)
    final = present(world, txn, third)
    assert [msg.kind for msg in final.messages] \
        == [K.SETTLEMENT, K.COMPLETION_NOTICE]
    assert world.cb.phase_of(txn) is IP.SETTLED
    assert world.cb.escrow_pool == 0
    assert world.cb.settled_out_total == 15000


def test_reissue_refuses_another_amount_than_the_hold(world):
    txn = txn_of(world)
    sealed, _ = issue_token(world, txn)
    mutated = bytearray(sealed.envelope)
    mutated[50] ^= 0xFF
    present(world, txn, SealedToken(bytes(mutated)))
    assert world.cb.phase_of(txn) is IP.TAMPER_WAIT
    fresh, result = issue_token(world, txn, amount=16000)
    assert fresh is None
    assert_refused(result, "HoldAmountMismatch:C0-1", world.cb, txn,
                   IP.TAMPER_WAIT)
    assert world.cb.holds["C0-1"].amount == 15000
    assert world.cb.escrow_pool == 15000


def test_escrow_cancel_refunds_hold(world):
    txn = txn_of(world)
    sealed, _ = issue_token(world, txn)
    result = world.cb.step(
        signed(world, "TTP0", K.ESCROW_CANCEL, "CB0", txn,
               m.EscrowCancel("deadline expired")), 120)
    assert world.cb.phase_of(txn) is IP.CANCELLED
    assert world.cb.accounts["C0"] == 100000
    assert world.cb.escrow_pool == 0
    late = present(world, txn, sealed)
    assert [msg.kind for msg in late.messages] == [K.TAMPER_REPORT]
    assert world.cb.accounts["C0"] == 100000        # nothing moved


# -- acquiring bank ---------------------------------------------------------------

def release_to_mb(world, txn, sealed):
    return world.mb.step(
        signed(world, "TTP0", K.TOKEN_RELEASE, "MB0", txn,
               m.TokenRelease(sealed, world.entities["M0"].id)), 10)


def test_release_presents_and_arms_retry(world):
    txn = txn_of(world)
    sealed, _ = issue_token(world, txn)
    result = release_to_mb(world, txn, sealed)
    assert [msg.kind for msg in result.messages] == [K.PAYMENT_REQUEST]
    assert world.mb.phase_of(txn) is AP.AWAIT_PAYMENT
    assert world.mb.timer_due(str(txn)) == 10 + world.mb.retry_ticks


def test_retry_timer_represents_until_cap(world):
    txn = txn_of(world)
    sealed, _ = issue_token(world, txn)
    release_to_mb(world, txn, sealed)
    fired = 0
    for _ in range(world.mb.retry_cap + 2):
        due = world.mb.timer_due(str(txn))
        if due is None:
            break
        result = world.mb.fire_timer(str(txn), due)
        if result.messages:
            fired += 1
    assert fired == world.mb.retry_cap
    assert world.mb.timer_due(str(txn)) is None


def test_settlement_credits_merchant_once(world):
    txn = txn_of(world)
    sealed, _ = issue_token(world, txn)
    release_to_mb(world, txn, sealed)
    settle = signed(world, "CB0", K.SETTLEMENT, "MB0", txn,
                    m.Settlement(15000))
    result = world.mb.step(settle, 12)
    assert [msg.kind for msg in result.messages] == [K.SETTLEMENT]
    assert world.mb.accounts == {"M0": 15000}
    assert world.mb.phase_of(txn) is AP.SETTLED
    dup = world.mb.step(
        signed(world, "CB0", K.SETTLEMENT, "MB0", txn,
               m.Settlement(15000, duplicate=True)), 14)
    assert dup.messages == []
    assert world.mb.accounts == {"M0": 15000}


def test_settlement_without_release_is_violation(world):
    txn = txn_of(world)
    result = world.mb.step(
        signed(world, "CB0", K.SETTLEMENT, "MB0", txn,
               m.Settlement(15000)), 12)
    assert result.violations and "ProtocolViolation" in result.violations[0]
    assert world.mb.phase_of(txn) is AP.NEW
    assert world.mb.accounts == {}


def test_abort_notice_before_release_closes_the_purchase(world):
    # The arbiter's notice outran its TokenRelease, or the release was lost:
    # the acquirer closes the purchase and absorbs the late release.
    txn = txn_of(world)
    result = world.mb.step(
        signed(world, "TTP0", K.COMPLETION_NOTICE, "MB0", txn,
               m.CompletionNotice("aborted", "deadline expired")), 15)
    assert (result.messages, result.violations) == ([], [])
    assert world.mb.phase_of(txn) is AP.ABORTED
    sealed, _ = issue_token(world, txn)
    late = release_to_mb(world, txn, sealed)
    assert (late.messages, late.violations) == ([], [])
    assert world.mb.phase_of(txn) is AP.ABORTED
    assert world.mb.pending == {}
    assert world.mb.timer_due(str(txn)) is None


def test_abort_notice_keeps_pending_while_awaiting_payment(world):
    txn = txn_of(world)
    sealed, _ = issue_token(world, txn)
    release_to_mb(world, txn, sealed)
    result = world.mb.step(
        signed(world, "TTP0", K.COMPLETION_NOTICE, "MB0", txn,
               m.CompletionNotice("aborted", "deadline expired")), 15)
    assert (result.messages, result.violations) == ([], [])
    assert world.mb.phase_of(txn) is AP.AWAIT_PAYMENT
    assert world.mb.timer_due(str(txn)) is not None     # still presenting


# -- arbiter ------------------------------------------------------------------------

def test_arbiter_trust_reply_rated_vs_unrated(world):
    # A merchant with no verdicts, recorded or not, is unrated, not perfect.
    world.ttp.trust = {"M0": TrustRecord(total=1000, rejected=25),
                       "M1": TrustRecord()}
    replies = {}
    for serial, merchant in enumerate(["M0", "M1", "M9"], start=1):
        result = world.ttp.step(
            signed(world, "C0", K.TRUST_LOOKUP, "TTP0", txn_of(world, serial),
                   m.TrustLookup(m.EntityId.parse(merchant))), 3)
        [reply] = result.messages
        assert reply.kind is K.TRUST_REPLY
        replies[merchant] = reply.payload
    assert replies == {"M0": m.TrustReply(True, "97.50", "A1"),
                       "M1": m.TrustReply(False),
                       "M9": m.TrustReply(False)}


def quote(world, txn):
    return world.ttp.step(
        signed(world, "C0", K.TRUST_LOOKUP, "TTP0", txn,
               m.TrustLookup(world.entities["M0"].id)), 3)


def deposit(world, txn, sealed, now=7):
    order = m.OrderInfo("ORD-M0-1", "widget", 1, 15000, 15000,
                        world.entities["M0"].id)
    return world.ttp.step(
        signed(world, "C0", K.ESCROW_DEPOSIT, "TTP0", txn,
               m.EscrowDeposit(order, sealed)), now)


def test_arbiter_escrow_and_query_race(world):
    txn = txn_of(world)
    sealed, _ = issue_token(world, txn)
    quote(world, txn)
    # merchant query arrives before the deposit: acked on deposit
    early = world.ttp.step(
        signed(world, "M0", K.TEMP_PAYMENT_QUERY, "TTP0", txn,
               m.TempPaymentQuery("ORD-M0-1")), 6)
    assert early.messages == []
    result = deposit(world, txn, sealed)
    assert [msg.kind for msg in result.messages] == [K.TEMP_PAYMENT_ACK]
    assert result.messages[0].payload.amount == 15000
    assert world.ttp.phase_of(txn) is TP.HELD
    assert [e.event for e in world.ttp.ledger.entries] \
        == ["Deposit", "TempAck"]


def test_arbiter_duplicate_deposit_is_absorbed(world):
    txn = txn_of(world)
    sealed, _ = issue_token(world, txn)
    quote(world, txn)
    deposit(world, txn, sealed)
    result = deposit(world, txn, sealed, now=8)
    assert (result.messages, result.violations) == ([], [])
    assert world.ttp.phase_of(txn) is TP.HELD
    assert [e.event for e in world.ttp.ledger.entries] == ["Deposit"]


def test_arbiter_accept_releases_token(world):
    txn = txn_of(world)
    sealed, _ = issue_token(world, txn)
    quote(world, txn)
    deposit(world, txn, sealed)
    world.ttp.step(
        signed(world, "M0", K.GOODS_DISPATCH, "TTP0", txn,
               m.GoodsDispatch("ORD-M0-1", "widget", 1)), 10)
    result = world.ttp.step(
        signed(world, "C0", K.ACCEPT_GOODS, "TTP0", txn,
               m.AcceptGoods("ORD-M0-1")), 11)
    assert [msg.kind for msg in result.messages] == [K.TOKEN_RELEASE]
    assert result.messages[0].payload.sealed == sealed
    assert world.ttp.phase_of(txn) is TP.RELEASED
    assert world.ttp.trust["M0"].total == 1
    assert world.ttp.trust["M0"].rejected == 0


def test_arbiter_reject_records_and_asks_replacement(world):
    txn = txn_of(world)
    sealed, _ = issue_token(world, txn)
    quote(world, txn)
    deposit(world, txn, sealed)
    world.ttp.step(
        signed(world, "M0", K.GOODS_DISPATCH, "TTP0", txn,
               m.GoodsDispatch("ORD-M0-1", "widget", 1)), 10)
    result = world.ttp.step(
        signed(world, "C0", K.REJECT_GOODS, "TTP0", txn,
               m.RejectGoods("ORD-M0-1")), 11)
    assert [msg.kind for msg in result.messages] == [K.REJECT_GOODS]
    assert world.ttp.phase_of(txn) is TP.REPLACING
    record = world.ttp.trust["M0"]
    assert (record.total, record.rejected) == (1, 1)
    assert record.repeats == {("C0", "widget"): 1}


def test_arbiter_verdict_before_dispatch_is_violation(world):
    txn = txn_of(world)
    sealed, _ = issue_token(world, txn)
    quote(world, txn)
    deposit(world, txn, sealed)
    result = world.ttp.step(
        signed(world, "C0", K.ACCEPT_GOODS, "TTP0", txn,
               m.AcceptGoods("ORD-M0-1")), 11)
    assert result.violations
    assert world.ttp.phase_of(txn) is TP.HELD


def test_arbiter_deadline_expiry_refunds_and_penalizes(world):
    txn = txn_of(world)
    sealed, _ = issue_token(world, txn)
    quote(world, txn)
    deposit(world, txn, sealed, now=7)
    due = world.ttp.timer_due(str(txn))
    assert due == 7 + world.ttp.deadline_ticks
    result = world.ttp.fire_timer(str(txn), due)
    kinds = sorted(msg.kind.value for msg in result.messages)
    assert kinds == ["CompletionNotice", "CompletionNotice", "EscrowCancel"]
    assert world.ttp.phase_of(txn) is TP.EXPIRED
    assert world.ttp.trust["M0"].rejected == 1
    assert world.ttp.ledger.entries[-1].event == "DeadlineExpired"
    assert world.ttp.timer_due(str(txn)) is None


def test_arbiter_expiry_before_deposit_skips_trust_penalty(world):
    txn = txn_of(world)
    quote(world, txn)
    due = world.ttp.timer_due(str(txn))
    assert due is not None
    result = world.ttp.fire_timer(str(txn), due)
    assert world.ttp.phase_of(txn) is TP.EXPIRED
    assert "M0" not in world.ttp.trust
    assert any(msg.kind is K.ESCROW_CANCEL for msg in result.messages)


def test_arbiter_replay_report_after_release_does_not_regenerate(world):
    txn = txn_of(world)
    sealed, _ = issue_token(world, txn)
    quote(world, txn)
    deposit(world, txn, sealed)
    world.ttp.step(
        signed(world, "M0", K.GOODS_DISPATCH, "TTP0", txn,
               m.GoodsDispatch("ORD-M0-1", "widget", 1)), 10)
    world.ttp.step(
        signed(world, "C0", K.ACCEPT_GOODS, "TTP0", txn,
               m.AcceptGoods("ORD-M0-1")), 11)
    assert world.ttp.phase_of(txn) is TP.RELEASED
    result = world.ttp.step(
        signed(world, "CB0", K.TAMPER_REPORT, "TTP0", txn,
               m.TamperReport("replay", "AlreadySettled")), 14)
    assert result.messages == []
    assert world.ttp.phase_of(txn) is TP.RELEASED
    assert world.ttp.ledger.entries[-1].event == "Tamper"


def test_arbiter_tamper_after_release_regenerates_until_cap(world):
    txn = txn_of(world)
    sealed, _ = issue_token(world, txn)
    quote(world, txn)
    deposit(world, txn, sealed)
    for attempt in range(world.ttp.regenerate_cap + 1):
        world.ttp.step(
            signed(world, "M0", K.GOODS_DISPATCH, "TTP0", txn,
                   m.GoodsDispatch("ORD-M0-1", "widget", 1)), 10)
        world.ttp.step(
            signed(world, "C0", K.ACCEPT_GOODS, "TTP0", txn,
                   m.AcceptGoods("ORD-M0-1")), 11)
        result = world.ttp.step(
            signed(world, "CB0", K.TAMPER_REPORT, "TTP0", txn,
                   m.TamperReport("tamper", "DecryptionFailure")), 12)
        if attempt < world.ttp.regenerate_cap:
            assert [msg.kind for msg in result.messages] \
                == [K.REGENERATE_REQUEST]
            assert world.ttp.phase_of(txn) is TP.QUOTED
            deposit(world, txn, sealed, now=13)
        else:
            kinds = sorted(msg.kind.value for msg in result.messages)
            assert kinds == ["CompletionNotice", "CompletionNotice",
                             "EscrowCancel"]
            assert world.ttp.phase_of(txn) is TP.ABORTED
    events = [e.event for e in world.ttp.ledger.entries]
    assert events.count("Regenerate") == world.ttp.regenerate_cap
    assert events[-1] == "Abort"
