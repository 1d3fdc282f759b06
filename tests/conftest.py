"""Shared fixtures: deterministic key material and a scenario runner."""

import pytest

from tset import crypto
from tset import messages as m
from tset.rng import ByteStream
from tset.scenario import ScenarioConfig, build_world
from tset.simnet import Simulation
from tset.tokens import SealedToken, Token


class KeyFixture:
    """Root key, two entity keys, and their certificates, all from seed 42."""

    def __init__(self):
        rng = ByteStream(42)
        self.root_key = crypto.new_signing_key(rng.fork("root"))
        self.root_public = self.root_key.public_key
        self.customer_key = crypto.new_signing_key(rng.fork("customer"))
        self.merchant_key = crypto.new_signing_key(rng.fork("merchant"))
        self.cert_customer = crypto.issue_certificate(
            self.root_key, "C0", self.customer_key.public_key)
        self.cert_merchant = crypto.issue_certificate(
            self.root_key, "M0", self.merchant_key.public_key)


@pytest.fixture(scope="session")
def keyset() -> KeyFixture:
    return KeyFixture()


@pytest.fixture()
def sample_token(keyset) -> Token:
    return Token(15000, keyset.cert_customer, keyset.cert_merchant,
                 bytes(range(32)), 7)


def sample_payloads(keys: KeyFixture) -> dict:
    """One payload of every message kind, every optional field set."""
    K = m.MsgKind
    order = m.OrderInfo("ORD-M0-1", "widget", 2, 7500, 15000,
                        m.EntityId.parse("M0"))
    sealed = SealedToken(b"\xab" * 60)
    return {
        K.BROWSE: m.Browse("widget", 2),
        K.OFFER: m.Offer(order, keys.cert_merchant),
        K.TRUST_LOOKUP: m.TrustLookup(order.merchant),
        K.TRUST_REPLY: m.TrustReply(True, "0.9", "A1"),
        K.TOKEN_REQUEST: m.TokenRequest(15000, keys.cert_customer,
                                        keys.cert_merchant),
        K.TOKEN_ISSUED: m.TokenIssued(sealed),
        K.PURCHASE_CONFIRM: m.PurchaseConfirm(order, keys.cert_customer),
        K.ESCROW_DEPOSIT: m.EscrowDeposit(order, sealed),
        K.TEMP_PAYMENT_QUERY: m.TempPaymentQuery(order.order_number),
        K.TEMP_PAYMENT_ACK: m.TempPaymentAck("ab" * 32, 15000),
        K.GOODS_DISPATCH: m.GoodsDispatch(order.order_number, "widget", 2,
                                          replacement=True),
        K.ACCEPT_GOODS: m.AcceptGoods(order.order_number),
        K.REJECT_GOODS: m.RejectGoods(order.order_number, "broken"),
        K.TOKEN_RELEASE: m.TokenRelease(sealed, order.merchant),
        K.PAYMENT_REQUEST: m.PaymentRequest(sealed, order.merchant),
        K.SETTLEMENT: m.Settlement(15000, duplicate=True),
        K.TAMPER_REPORT: m.TamperReport("amount", "mismatch"),
        K.REGENERATE_REQUEST: m.RegenerateRequest(),
        K.COMPLETION_NOTICE: m.CompletionNotice("aborted", "expired"),
        K.ESCROW_CANCEL: m.EscrowCancel("rejected"),
        K.ABORT_NOTICE: m.AbortNotice("no funds"),
    }


def send_checks(helper: crypto.Helper, items) -> list:
    """Queue for ``helper`` the verification of each (raw public key,
    signature, signed bytes) of ``items``, send the queue, and return the
    checks in the same order."""
    checks = [helper.queue(*item) for item in items]
    helper.top_up()
    return checks


def run_dict(data: dict):
    """Build and run a scenario given as a plain dict; returns the RunResult."""
    config = ScenarioConfig.from_dict(data)
    return Simulation(build_world(config)).run()


BASIC_SCENARIO = {
    "seed": 7,
    "customers": [{"balance": 100000,
                   "purchases": [{"merchant": 0, "product": "widget",
                                  "quantity": 1}]}],
    "merchants": [{"catalog": {"widget": 15000}}],
}


def basic_scenario(**overrides) -> dict:
    data = {k: (dict(v) if isinstance(v, dict) else list(v)
                if isinstance(v, list) else v)
            for k, v in BASIC_SCENARIO.items()}
    data["customers"] = [dict(c) for c in BASIC_SCENARIO["customers"]]
    data["merchants"] = [dict(m) for m in BASIC_SCENARIO["merchants"]]
    data.update(overrides)
    return data


# The members of the five phase enums in which a party is done with a
# purchase; each name means the same in every enum that has it.
ENDED = {"Done", "Aborted", "Settled", "Cancelled", "Expired"}


def stranded(world) -> set:
    """Purchases some entity holds in a phase that is not an end."""
    return {txn for entity in world.entities.values()
            for txn, phase in entity.phases.items()
            if phase.value not in ENDED}
