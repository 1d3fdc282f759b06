"""The five protocol roles as deterministic per-transaction state machines.

Customer, Merchant, CustomerBank (token issuer), MerchantBank (acquirer),
and Ttp (escrow arbiter) each hold a phase per transaction.  One legality
table per role maps (phase, key) to the permitted next phases and
emissions; the key is a message kind, ``Begin`` for the customer starting
a purchase, or ``Timer`` for an entity's timer firing.  Every phase change
goes through one check against that table, ``Entity._advance``: a pair
with no row is a protocol violation, logged and never applied; a row
marked stale absorbs late or duplicate traffic: no handler runs and the
entity emits nothing; any other row runs the handler and refuses a next
phase or an emission the row does not list.  ``_advance`` is also the one
writer of ``timers``, from the clocks of the phases with ``Timer`` rows.

Money never leaves double-entry form.  The issuing bank moves a hold from
the customer account into its escrow pool at token issuance, so settlement
can never fail for funds; cancellation moves the hold back; settlement
moves it out toward the acquirer.  Amounts are integer minor units.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum

from . import crypto, messages as m, tokens
from .crypto import Certificate
from .ledger import Ledger, LedgerEntry
from .messages import (CB0, MB0, TTP0, EntityId, MsgKind, OrderInfo,
                       ProtocolMessage, TransactionId)
from .rng import ByteStream
from .tokens import KeyMaterial, SealedToken, TokenMint
from .trust import (Disposition, Grade, TrustRecord, merchant_standing,
                    record_outcome)

# ---------------------------------------------------------------------------
# Phases

class CustomerPhase(str, Enum):
    START = "Start"
    AWAIT_OFFER = "AwaitOffer"
    AWAIT_TRUST = "AwaitTrust"
    AWAIT_TOKEN = "AwaitToken"
    AWAIT_GOODS = "AwaitGoods"
    AWAIT_COMPLETION = "AwaitCompletion"
    DONE = "Done"
    ABORTED = "Aborted"


class MerchantPhase(str, Enum):
    NEW = "New"
    AWAIT_CONFIRM = "AwaitConfirm"
    AWAIT_ACK = "AwaitAck"
    AWAIT_CAPTURE = "AwaitCapture"
    DONE = "Done"
    ABORTED = "Aborted"


class IssuerPhase(str, Enum):
    NEW = "New"
    ISSUED = "Issued"
    TAMPER_WAIT = "TamperWait"
    SETTLED = "Settled"
    CANCELLED = "Cancelled"


class AcquirerPhase(str, Enum):
    NEW = "New"
    AWAIT_PAYMENT = "AwaitPayment"
    SETTLED = "Settled"
    ABORTED = "Aborted"


class ArbiterPhase(str, Enum):
    NEW = "New"
    QUOTED = "Quoted"
    HELD = "Held"
    DISPATCHED = "Dispatched"
    REPLACING = "Replacing"
    RELEASED = "Released"
    SETTLED = "Settled"
    ABORTED = "Aborted"
    EXPIRED = "Expired"


# ---------------------------------------------------------------------------
# Legality table: (phase, key) -> permitted next phases and emissions, where
# the key is the kind of the message delivered, or Begin when the customer
# starts a purchase, or Timer when the entity's timer for the transaction
# fires.  A pair absent from a table is a protocol violation in that phase.
# A stale row absorbs late or duplicate traffic: the handler is not called
# and the entity emits nothing.  A row that restarts the clock re-arms the
# timer of the phase it stays in.

class Internal(str, Enum):
    """Table keys of the phase changes no message causes."""

    BEGIN = "Begin"
    TIMER = "Timer"     # one timer per entity per transaction


@dataclass(frozen=True)
class Rule:
    next: tuple
    emits: tuple = ()
    stale: bool = False
    restarts: bool = False


def _table(*rows, stale: dict, restarts: tuple = ()) -> dict:
    """Rows are (phase, key, next phases, emissions); ``stale`` maps a phase
    to the message kinds it absorbs; ``restarts`` lists the (phase, key)
    rows that restart the clock."""
    table = {(phase, kind): Rule(tuple(nxt), tuple(emits),
                                 restarts=(phase, kind) in restarts)
             for phase, kind, nxt, emits in rows}
    table.update({(phase, kind): Rule((phase,), stale=True)
                  for phase, kinds in stale.items() for kind in kinds})
    return table


K, I = MsgKind, Internal
CP, MP, IP, AP, TP = (CustomerPhase, MerchantPhase, IssuerPhase,
                      AcquirerPhase, ArbiterPhase)

CUSTOMER_TABLE = _table(
    (CP.START, I.BEGIN, [CP.AWAIT_OFFER], [K.BROWSE]),
    (CP.AWAIT_OFFER, K.OFFER, [CP.AWAIT_TRUST], [K.TRUST_LOOKUP]),
    (CP.AWAIT_TRUST, K.TRUST_REPLY, [CP.AWAIT_TOKEN, CP.ABORTED],
     [K.TOKEN_REQUEST, K.ABORT_NOTICE]),
    # Arbiter may expire the txn while the trust reply is lost in transit.
    (CP.AWAIT_TRUST, K.COMPLETION_NOTICE, [CP.ABORTED], []),
    (CP.AWAIT_TOKEN, K.TOKEN_ISSUED, [CP.AWAIT_GOODS],
     [K.PURCHASE_CONFIRM, K.ESCROW_DEPOSIT]),
    (CP.AWAIT_TOKEN, K.COMPLETION_NOTICE, [CP.ABORTED], [K.ABORT_NOTICE]),
    (CP.AWAIT_GOODS, K.GOODS_DISPATCH, [CP.AWAIT_COMPLETION, CP.AWAIT_GOODS],
     [K.ACCEPT_GOODS, K.REJECT_GOODS]),
    (CP.AWAIT_GOODS, K.COMPLETION_NOTICE, [CP.ABORTED], []),
    (CP.AWAIT_COMPLETION, K.COMPLETION_NOTICE, [CP.DONE, CP.ABORTED], []),
    (CP.AWAIT_COMPLETION, K.REGENERATE_REQUEST, [CP.AWAIT_TOKEN],
     [K.TOKEN_REQUEST]),
    stale={
        CP.AWAIT_TOKEN: [K.GOODS_DISPATCH],
        CP.DONE: [K.COMPLETION_NOTICE, K.GOODS_DISPATCH],
        CP.ABORTED: [K.COMPLETION_NOTICE, K.GOODS_DISPATCH, K.TOKEN_ISSUED,
                     K.REGENERATE_REQUEST],
    },
)

MERCHANT_TABLE = _table(
    (MP.NEW, K.BROWSE, [MP.AWAIT_CONFIRM], [K.OFFER]),
    (MP.AWAIT_CONFIRM, K.PURCHASE_CONFIRM, [MP.AWAIT_ACK],
     [K.TEMP_PAYMENT_QUERY]),
    (MP.AWAIT_CONFIRM, K.COMPLETION_NOTICE, [MP.ABORTED], []),
    (MP.AWAIT_ACK, K.TEMP_PAYMENT_ACK, [MP.AWAIT_CAPTURE],
     [K.GOODS_DISPATCH]),
    (MP.AWAIT_ACK, K.COMPLETION_NOTICE, [MP.ABORTED], []),
    (MP.AWAIT_CAPTURE, K.REJECT_GOODS, [MP.AWAIT_CAPTURE],
     [K.GOODS_DISPATCH]),
    (MP.AWAIT_CAPTURE, K.SETTLEMENT, [MP.DONE], [K.COMPLETION_NOTICE]),
    (MP.AWAIT_CAPTURE, K.PURCHASE_CONFIRM, [MP.AWAIT_ACK],
     [K.TEMP_PAYMENT_QUERY]),
    (MP.AWAIT_CAPTURE, K.COMPLETION_NOTICE, [MP.ABORTED], []),
    (MP.ABORTED, K.SETTLEMENT, [MP.DONE], [K.COMPLETION_NOTICE]),
    stale={
        MP.ABORTED: [K.REJECT_GOODS, K.COMPLETION_NOTICE],
        MP.DONE: [K.SETTLEMENT, K.COMPLETION_NOTICE],
    },
)

ISSUER_TABLE = _table(
    (IP.NEW, K.TOKEN_REQUEST, [IP.ISSUED, IP.CANCELLED],
     [K.TOKEN_ISSUED, K.COMPLETION_NOTICE]),
    (IP.NEW, K.ESCROW_CANCEL, [IP.CANCELLED], []),
    (IP.ISSUED, K.PAYMENT_REQUEST, [IP.SETTLED, IP.TAMPER_WAIT],
     [K.SETTLEMENT, K.COMPLETION_NOTICE, K.TAMPER_REPORT]),
    (IP.ISSUED, K.ESCROW_CANCEL, [IP.CANCELLED], []),
    (IP.TAMPER_WAIT, K.TOKEN_REQUEST, [IP.ISSUED], [K.TOKEN_ISSUED]),
    (IP.TAMPER_WAIT, K.PAYMENT_REQUEST, [IP.TAMPER_WAIT], [K.TAMPER_REPORT]),
    (IP.TAMPER_WAIT, K.ESCROW_CANCEL, [IP.CANCELLED], []),
    (IP.SETTLED, K.PAYMENT_REQUEST, [IP.SETTLED],
     [K.TAMPER_REPORT, K.SETTLEMENT]),
    (IP.CANCELLED, K.PAYMENT_REQUEST, [IP.CANCELLED], [K.TAMPER_REPORT]),
    stale={
        IP.SETTLED: [K.ESCROW_CANCEL],
        IP.CANCELLED: [K.ESCROW_CANCEL, K.TOKEN_REQUEST],
    },
)

ACQUIRER_TABLE = _table(
    (AP.NEW, K.TOKEN_RELEASE, [AP.AWAIT_PAYMENT], [K.PAYMENT_REQUEST]),
    (AP.NEW, K.COMPLETION_NOTICE, [AP.ABORTED], []),
    (AP.AWAIT_PAYMENT, K.TOKEN_RELEASE, [AP.AWAIT_PAYMENT],
     [K.PAYMENT_REQUEST]),
    (AP.AWAIT_PAYMENT, K.SETTLEMENT, [AP.SETTLED], [K.SETTLEMENT]),
    # Funds may already be moving; keep presenting until settled or capped.
    (AP.AWAIT_PAYMENT, K.COMPLETION_NOTICE, [AP.AWAIT_PAYMENT], []),
    (AP.AWAIT_PAYMENT, I.TIMER, [AP.AWAIT_PAYMENT], [K.PAYMENT_REQUEST]),
    stale={
        AP.SETTLED: [K.SETTLEMENT, K.TOKEN_RELEASE, K.COMPLETION_NOTICE],
        AP.ABORTED: [K.SETTLEMENT, K.TOKEN_RELEASE, K.COMPLETION_NOTICE],
    },
    # A fresh release and each presentment start the retry clock anew.
    restarts=((AP.AWAIT_PAYMENT, K.TOKEN_RELEASE),
              (AP.AWAIT_PAYMENT, I.TIMER)),
)

# The arbiter's deadline runs in every phase that waits on another party.
_ARBITER_WAITS = (TP.QUOTED, TP.HELD, TP.DISPATCHED, TP.REPLACING,
                  TP.RELEASED)

ARBITER_TABLE = _table(
    (TP.NEW, K.TRUST_LOOKUP, [TP.QUOTED], [K.TRUST_REPLY]),
    (TP.QUOTED, K.ESCROW_DEPOSIT, [TP.HELD], [K.TEMP_PAYMENT_ACK]),
    (TP.QUOTED, K.TEMP_PAYMENT_QUERY, [TP.QUOTED], []),
    (TP.QUOTED, K.ABORT_NOTICE, [TP.ABORTED], [K.COMPLETION_NOTICE]),
    (TP.QUOTED, K.TAMPER_REPORT, [TP.QUOTED], []),
    (TP.HELD, K.TEMP_PAYMENT_QUERY, [TP.HELD], [K.TEMP_PAYMENT_ACK]),
    (TP.HELD, K.GOODS_DISPATCH, [TP.DISPATCHED], []),
    (TP.HELD, K.TAMPER_REPORT, [TP.HELD], []),
    (TP.DISPATCHED, K.ACCEPT_GOODS, [TP.RELEASED], [K.TOKEN_RELEASE]),
    (TP.DISPATCHED, K.REJECT_GOODS, [TP.REPLACING], [K.REJECT_GOODS]),
    (TP.DISPATCHED, K.TAMPER_REPORT, [TP.DISPATCHED], []),
    (TP.REPLACING, K.GOODS_DISPATCH, [TP.DISPATCHED], []),
    (TP.REPLACING, K.TAMPER_REPORT, [TP.REPLACING], []),
    (TP.RELEASED, K.COMPLETION_NOTICE, [TP.SETTLED], []),
    (TP.RELEASED, K.TAMPER_REPORT, [TP.QUOTED, TP.ABORTED],
     [K.REGENERATE_REQUEST, K.ESCROW_CANCEL, K.COMPLETION_NOTICE]),
    (TP.SETTLED, K.TAMPER_REPORT, [TP.SETTLED], []),
    (TP.ABORTED, K.TAMPER_REPORT, [TP.ABORTED], []),
    # A capture raced past expiry; the handler logs it.
    (TP.EXPIRED, K.COMPLETION_NOTICE, [TP.EXPIRED], []),
    (TP.EXPIRED, K.TAMPER_REPORT, [TP.EXPIRED], []),
    *[(phase, I.TIMER, [TP.EXPIRED], [K.ESCROW_CANCEL, K.COMPLETION_NOTICE])
      for phase in _ARBITER_WAITS],
    stale={
        TP.NEW: [K.ESCROW_DEPOSIT],
        TP.HELD: [K.ESCROW_DEPOSIT],
        TP.SETTLED: [K.COMPLETION_NOTICE],
        TP.ABORTED: [K.COMPLETION_NOTICE, K.GOODS_DISPATCH, K.ESCROW_DEPOSIT,
                     K.TEMP_PAYMENT_QUERY, K.ACCEPT_GOODS, K.REJECT_GOODS],
        TP.EXPIRED: [K.GOODS_DISPATCH, K.ESCROW_DEPOSIT, K.TEMP_PAYMENT_QUERY,
                     K.ACCEPT_GOODS, K.REJECT_GOODS, K.ABORT_NOTICE],
    },
)

TRANSITION_TABLES = {
    m.Role.CUSTOMER: CUSTOMER_TABLE,
    m.Role.MERCHANT: MERCHANT_TABLE,
    m.Role.CUSTOMER_BANK: ISSUER_TABLE,
    m.Role.MERCHANT_BANK: ACQUIRER_TABLE,
    m.Role.TTP: ARBITER_TABLE,
}

START_PHASE = {
    m.Role.CUSTOMER: CP.START,
    m.Role.MERCHANT: MP.NEW,
    m.Role.CUSTOMER_BANK: IP.NEW,
    m.Role.MERCHANT_BANK: AP.NEW,
    m.Role.TTP: TP.NEW,
}

# The phases in which a role is done with a purchase.
TERMINAL = {
    m.Role.CUSTOMER: {CP.DONE, CP.ABORTED},
    m.Role.MERCHANT: {MP.DONE, MP.ABORTED},
    m.Role.CUSTOMER_BANK: {IP.SETTLED, IP.CANCELLED},
    m.Role.MERCHANT_BANK: {AP.SETTLED, AP.ABORTED},
    m.Role.TTP: {TP.SETTLED, TP.ABORTED, TP.EXPIRED},
}

# The clock of each phase with a Timer row: the setting by which the role's
# ``_due`` hook puts a timer's due tick after the tick that arms it.
CLOCKS = {role: {} for role in m.Role} | {
    m.Role.MERCHANT_BANK: {
        AP.AWAIT_PAYMENT: "retry_ticks while retries < retry_cap"},
    m.Role.TTP: dict.fromkeys(_ARBITER_WAITS, "deadline_ticks")}


# ---------------------------------------------------------------------------
# Customer decision policy

@dataclass(frozen=True)
class AcceptancePolicy:
    """Trust gate applied before committing to a purchase.  With no minimum
    grade set, unrated merchants are acceptable by default (someone has to
    go first); with a minimum set, unrated merchants are refused unless
    accept_unrated explicitly allows them."""

    min_grade: Grade | None = None
    accept_unrated: bool | None = None

    def admits(self, reply: m.TrustReply) -> bool:
        """Whether the customer may buy from a merchant of this standing."""
        if not reply.rated:
            if self.accept_unrated is not None:
                return self.accept_unrated
            return self.min_grade is None
        return self.min_grade is None or Grade[reply.grade] >= self.min_grade


# ---------------------------------------------------------------------------
# Step plumbing

@dataclass
class StepResult:
    messages: list = field(default_factory=list)
    violations: list = field(default_factory=list)


class Entity:
    """Common machinery: signing, signature checking, phase and timer
    bookkeeping."""

    role: m.Role

    def __init__(self, eid: EntityId, signing_key, directory: dict,
                 certs: crypto.CertificateChecks):
        self.id = eid
        self._key = signing_key
        self.certificate: Certificate = directory[str(eid)]
        self.directory = directory
        self.certs = certs
        self.phases: dict[str, Enum] = {}
        # Due tick of each armed timer, by transaction key (see _advance).
        self.timers: dict[str, int] = {}

    def phase_of(self, txn) -> Enum:
        return self.phases.get(str(txn), START_PHASE[self.role])

    def _emit(self, result: StepResult, receiver: EntityId,
              txn: TransactionId, payload) -> None:
        """Sign the message that carries ``payload``, whose type names its
        kind, and add it to ``result``."""
        msg = ProtocolMessage(m.KIND_OF[type(payload)], self.id, receiver,
                              txn, payload)
        result.messages.append(m.sign_message(msg, self._key))

    def step(self, msg: ProtocolMessage, now: int,
             check: crypto.SignatureCheck | None = None) -> StepResult:
        """Deliver one message: refuse a bad signature, then advance.
        ``check`` is the helper's check of the hop signature, if it was
        sent one (see messages.verify_message)."""
        result = StepResult()
        sender_cert = self.directory.get(msg.sender.name)
        if sender_cert is None or not m.verify_message(
                msg, sender_cert, self.certs, check):
            result.violations.append(
                f"BadSignature:{msg.kind.value}:{msg.sender}->{self.id}")
            return result
        return self._advance(
            msg.txn.name, msg.kind, now, result,
            lambda phase: self.handle(msg, phase, now, result))

    def fire_timer(self, key: str, now: int) -> StepResult:
        """Fire the timer of transaction ``key`` if it is due by ``now``."""
        result = StepResult()
        due = self.timer_due(key)
        if due is None or due > now:
            return result
        return self._advance(
            key, I.TIMER, now, result,
            lambda phase: self.on_timer(key, phase, now, result))

    def _advance(self, key: str, kind: Enum, now: int, result: StepResult,
                 act) -> StepResult:
        """The one writer of ``phases`` and ``timers``.  Look up the row of
        the current phase and ``kind``: no row is a protocol violation; a
        stale row keeps the phase without calling ``act``; otherwise
        ``act(phase)`` fills ``result`` and returns the next phase, which is
        kept only if the row lists it and every emission.  Then the timer is
        cleared in a phase with no clock, and set to ``_due`` as a phase
        with one is entered or a row restarts it."""
        phase = self.phases.get(key, START_PHASE[self.role])
        rule = TRANSITION_TABLES[self.role].get((phase, kind))
        if rule is None:
            result.violations.append(
                f"ProtocolViolation:{self.id}:{phase.value}x{kind.value}")
            return result
        new_phase = phase if rule.stale else act(phase)
        # A handler that breaks the legality table is refused like a peer
        # that does: the phase stays as it was and its emissions are dropped.
        if new_phase is not phase and new_phase not in rule.next:
            result.violations.append(
                f"IllegalTransition:{self.id}:{phase.value}x{kind.value}"
                f"->{getattr(new_phase, 'value', new_phase)}")
            result.messages.clear()
            return result
        stray = [out.kind.value for out in result.messages
                 if out.kind not in rule.emits]
        if stray:
            result.violations.append(
                f"IllegalEmission:{self.id}:{phase.value}x{kind.value}"
                f":{','.join(stray)}")
            result.messages.clear()
            return result
        self.phases[key] = new_phase
        if new_phase not in CLOCKS[self.role]:
            self.timers.pop(key, None)
        elif new_phase is not phase or rule.restarts:
            due = self._due(key, now)
            if due is None:
                self.timers.pop(key, None)
            else:
                self.timers[key] = due
        return result

    def handle(self, msg, phase, now, result):
        raise NotImplementedError

    def timer_due(self, key: str) -> int | None:
        """Tick at which the timer for transaction ``key`` fires, if armed."""
        return self.timers.get(key)

    # Timer hooks, for roles whose table has a clock: the tick at which a
    # timer armed at ``now`` falls due (None: no timer), and its firing.
    def _due(self, key: str, now: int) -> int | None:
        raise NotImplementedError

    def on_timer(self, key, phase, now, result):
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Customer

@dataclass(frozen=True)
class PurchaseIntent:
    merchant: EntityId
    product: str
    quantity: int


@dataclass
class _CustomerTxn:
    intent: PurchaseIntent
    order: OrderInfo | None = None
    merchant_cert: Certificate | None = None


class Customer(Entity):
    role = m.Role.CUSTOMER

    def __init__(self, *args, policy: AcceptancePolicy, reject_script: list,
                 reject_probability: float, behavior: random.Random):
        super().__init__(*args)
        self.policy = policy
        self._reject_script = list(reject_script)
        self._reject_probability = reject_probability
        self._behavior = behavior
        self.txns: dict[str, _CustomerTxn] = {}
        self._serial = 0

    def begin_purchase(self, intent: PurchaseIntent, now: int) -> StepResult:
        """Kick off the next transaction: browse the merchant's catalog."""
        self._serial += 1
        txn = TransactionId(self.id, self._serial)
        self.txns[txn.name] = _CustomerTxn(intent)
        result = StepResult()

        def browse(phase):
            self._emit(result, intent.merchant, txn,
                       m.Browse(intent.product, intent.quantity))
            return CP.AWAIT_OFFER
        return self._advance(txn.name, I.BEGIN, now, result, browse)

    def _reject_verdict(self) -> bool:
        if self._reject_script:
            return bool(self._reject_script.pop(0))
        if self._reject_probability <= 0:
            return False
        return self._behavior.random() < self._reject_probability

    def _request_token(self, st: _CustomerTxn, txn, result):
        self._emit(result, CB0, txn,
                   m.TokenRequest(st.order.total_price, self.certificate,
                                  st.merchant_cert))
        return CP.AWAIT_TOKEN

    def handle(self, msg, phase, now, result):
        st = self.txns.get(msg.txn.name)
        kind = msg.kind

        if kind == K.OFFER:
            order = msg.payload.order
            cert = msg.payload.merchant_cert
            if not self.certs.valid(cert) or cert.subject != msg.sender.name:
                result.violations.append(f"AuthFailure:Offer:{msg.sender}")
                return phase
            if (order.product != st.intent.product
                    or order.quantity != st.intent.quantity
                    or order.merchant != st.intent.merchant):
                result.violations.append(f"OfferMismatch:{msg.txn}")
                return phase
            st.order = order
            st.merchant_cert = cert
            self._emit(result, TTP0, msg.txn, m.TrustLookup(order.merchant))
            return CP.AWAIT_TRUST

        if kind == K.TRUST_REPLY:
            if self.policy.admits(msg.payload):
                return self._request_token(st, msg.txn, result)
            self._emit(result, TTP0, msg.txn,
                       m.AbortNotice("trust below policy"))
            return CP.ABORTED

        if kind == K.TOKEN_ISSUED:
            self._emit(result, st.order.merchant, msg.txn,
                       m.PurchaseConfirm(st.order, self.certificate))
            self._emit(result, TTP0, msg.txn,
                       m.EscrowDeposit(st.order, msg.payload.sealed))
            return CP.AWAIT_GOODS

        if kind == K.GOODS_DISPATCH:
            if self._reject_verdict():
                self._emit(result, TTP0, msg.txn,
                           m.RejectGoods(st.order.order_number))
                return CP.AWAIT_GOODS
            self._emit(result, TTP0, msg.txn,
                       m.AcceptGoods(st.order.order_number))
            return CP.AWAIT_COMPLETION

        if kind == K.REGENERATE_REQUEST:
            return self._request_token(st, msg.txn, result)

        if kind == K.COMPLETION_NOTICE:
            if msg.payload.status == "completed":
                if phase is not CP.AWAIT_COMPLETION:
                    result.violations.append(f"EarlyCompletion:{msg.txn}")
                    return phase
                return CP.DONE
            if msg.sender != TTP0:
                # The arbiter still has its deadline armed; relay the
                # bank's refusal so the txn closes now, not at expiry.
                self._emit(result, TTP0, msg.txn,
                           m.AbortNotice(msg.payload.reason))
            return CP.ABORTED

        raise AssertionError(f"unhandled {kind} in {phase}")


# ---------------------------------------------------------------------------
# Merchant

class Merchant(Entity):
    role = m.Role.MERCHANT

    def __init__(self, *args, catalog: dict[str, int]):
        super().__init__(*args)
        self.catalog = dict(catalog)
        self.orders: dict[str, OrderInfo] = {}
        self._order_seq = 0

    def handle(self, msg, phase, now, result):
        kind = msg.kind

        if kind == K.BROWSE:
            price = self.catalog.get(msg.payload.product)
            if price is None:
                result.violations.append(
                    f"UnknownProduct:{msg.payload.product}")
                return phase
            self._order_seq += 1
            order = OrderInfo(
                order_number=f"ORD-{self.id}-{self._order_seq}",
                product=msg.payload.product,
                quantity=msg.payload.quantity,
                unit_price=price,
                total_price=price * msg.payload.quantity,
                merchant=self.id)
            self.orders[msg.txn.name] = order
            self._emit(result, msg.sender, msg.txn,
                       m.Offer(order, self.certificate))
            return MP.AWAIT_CONFIRM

        if kind == K.PURCHASE_CONFIRM:
            cert = msg.payload.customer_cert
            if not self.certs.valid(cert) or cert.subject != msg.sender.name:
                result.violations.append(
                    f"AuthFailure:PurchaseConfirm:{msg.sender}")
                return phase
            order = self.orders.get(msg.txn.name)
            if order is None or msg.payload.order != order:
                result.violations.append(f"OrderMismatch:{msg.txn}")
                return phase
            self._emit(result, TTP0, msg.txn,
                       m.TempPaymentQuery(order.order_number))
            return MP.AWAIT_ACK

        if kind == K.TEMP_PAYMENT_ACK:
            order = self.orders[msg.txn.name]
            if msg.payload.amount != order.total_price:
                result.violations.append(
                    f"AckAmountMismatch:{msg.txn}:{msg.payload.amount}")
                return phase
            self._dispatch(order, msg.txn, False, result)
            return MP.AWAIT_CAPTURE

        if kind == K.REJECT_GOODS:
            self._dispatch(self.orders[msg.txn.name], msg.txn, True, result)
            return MP.AWAIT_CAPTURE

        if kind == K.SETTLEMENT:
            self._emit(result, TTP0, msg.txn, m.CompletionNotice("completed"))
            return MP.DONE

        if kind == K.COMPLETION_NOTICE:
            return MP.ABORTED

        raise AssertionError(f"unhandled {kind} in {phase}")

    def _dispatch(self, order: OrderInfo, txn, replacement: bool, result):
        payload = m.GoodsDispatch(order.order_number, order.product,
                                  order.quantity, replacement)
        self._emit(result, txn.customer, txn, payload)
        self._emit(result, TTP0, txn, payload)


# ---------------------------------------------------------------------------
# CustomerBank: token issuer, escrow holder, settlement engine

@dataclass
class _Hold:
    customer: str
    amount: int


class CustomerBank(Entity):
    role = m.Role.CUSTOMER_BANK

    def __init__(self, *args, keys: KeyMaterial, mint: TokenMint,
                 accounts: dict[str, int], crypto_rng: ByteStream,
                 account_numbers: dict[str, str]):
        super().__init__(*args)
        self.keys = keys
        self.mint = mint
        self.accounts = dict(accounts)
        # Private account references; these strings must never ride the wire.
        self.account_numbers = dict(account_numbers)
        self.escrow_pool = 0
        self.holds: dict[str, _Hold] = {}
        self.txn_token: dict[str, bytes] = {}
        self.settled_amounts: dict[str, int] = {}
        self.settled_out_total = 0
        self.replay_refusals = 0
        self.tamper_reports = 0
        self._rng = crypto_rng

    # -- issuance -----------------------------------------------------------

    def _release_hold(self, txn_key: str) -> None:
        hold = self.holds.pop(txn_key, None)
        if hold is not None:
            self.escrow_pool -= hold.amount
            self.accounts[hold.customer] += hold.amount

    def _issue(self, msg, now, result):
        req = msg.payload
        txn_key = msg.txn.name
        if req.customer_cert.subject != msg.sender.name:
            result.violations.append(f"AuthFailure:TokenRequest:{msg.sender}")
            return self.phase_of(msg.txn)
        if txn_key not in self.holds:
            customer = msg.sender.name
            if self.accounts.get(customer, 0) < req.amount:
                self._emit(result, msg.sender, msg.txn,
                           m.CompletionNotice("aborted", "insufficient funds"))
                return IP.CANCELLED
            self.accounts[customer] -= req.amount
            self.escrow_pool += req.amount
            self.holds[txn_key] = _Hold(customer, req.amount)
        elif self.holds[txn_key].amount != req.amount:
            result.violations.append(f"HoldAmountMismatch:{msg.txn}")
            return self.phase_of(msg.txn)
        token = self.mint.generate_token(req.amount, req.customer_cert,
                                         req.merchant_cert, now)
        self.txn_token[txn_key] = token.token_id
        sealed = tokens.seal_token(token, self.keys, self._rng)
        self._emit(result, msg.sender, msg.txn, m.TokenIssued(sealed))
        return IP.ISSUED

    # -- settlement ---------------------------------------------------------

    def settle(self, txn: TransactionId, sealed: SealedToken, now: int,
               result: StepResult):
        """Open the presented token, compare it against the stored duplicate,
        and either move the held funds toward the acquirer or revoke the
        token id and report tampering to the arbiter."""
        txn_key = txn.name
        try:
            opened = tokens.open_token(sealed, self.keys)
        except tokens.TokenIdDecryptionFailure:
            return self._tamper(txn, "TokenIdDecryptionFailure", result)
        except crypto.DecryptionFailure:
            return self._tamper(txn, "DecryptionFailure", result)

        try:
            duplicate = self.mint.duplicate_of(opened.token_id)
        except tokens.AlreadySettled:
            # handle() refuses a replay in Settled before calling settle, so
            # this id settled for another purchase: forgery, not replay.
            return self._tamper(txn, "AlreadySettledForeign", result)
        except tokens.RevokedToken:
            return self._tamper(txn, "RevokedToken", result)
        except tokens.UnknownTokenId:
            return self._tamper(txn, "UnknownTokenId", result)

        if self.txn_token.get(txn_key) != opened.token_id:
            return self._tamper(txn, "TokenTxnMismatch", result)
        mismatched = tokens.verify_token(opened, duplicate)
        if mismatched:
            detail = ",".join(mismatched)
            return self._tamper(txn, f"FieldMismatch:{detail}", result)

        self.mint.settle(opened.token_id)
        hold = self.holds.pop(txn_key)
        self.escrow_pool -= hold.amount
        self.settled_out_total += hold.amount
        self.settled_amounts[txn_key] = hold.amount
        self._emit(result, MB0, txn, m.Settlement(hold.amount))
        self._emit(result, txn.customer, txn, m.CompletionNotice("completed"))
        return IP.SETTLED

    def _tamper(self, txn, reason: str, result):
        txn_key = txn.name
        current = self.txn_token.get(txn_key)
        if current is not None:
            self.mint.revoke(current)
        self.tamper_reports += 1
        self._emit(result, TTP0, txn, m.TamperReport("tamper", reason))
        phase = self.phase_of(txn)
        return IP.TAMPER_WAIT if phase in (IP.ISSUED, IP.TAMPER_WAIT) else phase

    def _refuse_replay(self, txn, result):
        self.replay_refusals += 1
        self._emit(result, TTP0, txn,
                   m.TamperReport("replay", "AlreadySettled"))
        amount = self.settled_amounts.get(txn.name)
        if amount is not None:
            # Idempotent copy so a lost original cannot strand the payout.
            self._emit(result, MB0, txn, m.Settlement(amount, duplicate=True))
        return self.phase_of(txn)

    def handle(self, msg, phase, now, result):
        kind = msg.kind

        if kind == K.TOKEN_REQUEST:
            return self._issue(msg, now, result)

        if kind == K.PAYMENT_REQUEST:
            if phase is IP.SETTLED:
                return self._refuse_replay(msg.txn, result)
            if phase is IP.CANCELLED:
                return self._tamper(msg.txn, "CancelledToken", result)
            return self.settle(msg.txn, msg.payload.sealed, now, result)

        if kind == K.ESCROW_CANCEL:
            token_id = self.txn_token.get(msg.txn.name)
            if token_id is not None:
                self.mint.revoke(token_id)
            self._release_hold(msg.txn.name)
            return IP.CANCELLED

        raise AssertionError(f"unhandled {kind} in {phase}")


# ---------------------------------------------------------------------------
# MerchantBank: presents released tokens for payment, credits merchants

@dataclass
class _Pending:
    sealed: SealedToken
    merchant: EntityId
    retries: int = 0


class MerchantBank(Entity):
    role = m.Role.MERCHANT_BANK

    def __init__(self, *args, retry_ticks: int, retry_cap: int):
        super().__init__(*args)
        self.accounts: dict[str, int] = {}
        self.credited_in_total = 0
        self.pending: dict[str, _Pending] = {}
        self.retry_ticks = retry_ticks
        self.retry_cap = retry_cap

    def _due(self, key, now):
        return (now + self.retry_ticks
                if self.pending[key].retries < self.retry_cap else None)

    def handle(self, msg, phase, now, result):
        kind = msg.kind
        txn_key = msg.txn.name

        if kind == K.TOKEN_RELEASE:
            self.pending[txn_key] = _Pending(msg.payload.sealed,
                                             msg.payload.merchant)
            self._emit(result, CB0, msg.txn, m.PaymentRequest(
                msg.payload.sealed, msg.payload.merchant))
            return AP.AWAIT_PAYMENT

        if kind == K.SETTLEMENT:
            # The table admits a Settlement only in AwaitPayment, which only
            # a TokenRelease enters, and it fills ``pending``.
            p = self.pending.pop(txn_key)
            merchant = p.merchant.name
            self.accounts[merchant] = (self.accounts.get(merchant, 0)
                                       + msg.payload.amount)
            self.credited_in_total += msg.payload.amount
            self._emit(result, p.merchant, msg.txn,
                       m.Settlement(msg.payload.amount))
            return AP.SETTLED

        if kind == K.COMPLETION_NOTICE:
            if phase is AP.AWAIT_PAYMENT:
                # Funds may already have left the issuer; keep presenting.
                return phase
            return AP.ABORTED

        raise AssertionError(f"unhandled {kind} in {phase}")

    def on_timer(self, txn_key, phase, now, result):
        """Present the released token again."""
        p = self.pending[txn_key]
        p.retries += 1
        self._emit(result, CB0, TransactionId.parse(txn_key),
                   m.PaymentRequest(p.sealed, p.merchant))
        return phase


# ---------------------------------------------------------------------------
# Ttp: trust directory, escrow arbiter, dispute ledger

@dataclass
class _ArbiterTxn:
    txn: TransactionId
    merchant: EntityId
    amount: int | None = None         # set by the deposit, never cleared
    oi_digest: str = ""
    token_digest: str = ""
    product: str = ""
    sealed: SealedToken | None = None   # the deposit; dropped to regenerate
    pending_query: str | None = None
    regen_count: int = 0


class Ttp(Entity):
    role = m.Role.TTP

    def __init__(self, *args, deadline_ticks: int, regenerate_cap: int):
        super().__init__(*args)
        self.ledger = Ledger()
        self.trust: dict[str, TrustRecord] = {}
        self.txns: dict[str, _ArbiterTxn] = {}
        self.deadline_ticks = deadline_ticks
        self.regenerate_cap = regenerate_cap

    # -- bookkeeping helpers -------------------------------------------------

    def _log(self, st: _ArbiterTxn, tick: int, event: str,
             details: dict | None = None) -> None:
        self.ledger.append(LedgerEntry(
            txn=st.txn.name, tick=tick, actor=self.id.name, event=event,
            token_digest=st.token_digest, oi_digest=st.oi_digest,
            details=details or {}))

    def _record(self, st: _ArbiterTxn, disposition: Disposition) -> None:
        record = self.trust.setdefault(st.merchant.name, TrustRecord())
        record_outcome(record, disposition, st.txn.customer.name, st.product)

    def _ack(self, st: _ArbiterTxn, result) -> None:
        self._emit(result, st.merchant, st.txn,
                   m.TempPaymentAck(st.token_digest, st.amount))

    # -- named operations ----------------------------------------------------

    def hold_escrow(self, msg, st: _ArbiterTxn, now: int,
                    result: StepResult):
        """Accept a sealed token into escrow.  The arbiter cannot open the
        token; it checks the envelope shape, records digests, and acks any
        merchant query that raced ahead of the deposit."""
        order = msg.payload.order
        st.sealed = msg.payload.sealed
        st.amount = order.total_price
        st.product = order.product
        st.oi_digest = m.order_digest(order)
        st.token_digest = m.sealed_digest(msg.payload.sealed)
        self._log(st, now, "Deposit", {"amount": st.amount})
        if st.pending_query is not None:
            self._log(st, now, "TempAck", {"amount": st.amount})
            self._ack(st, result)
            st.pending_query = None
        return TP.HELD

    def disposition(self, msg, st: _ArbiterTxn, now: int,
                    result: StepResult):
        """Customer verdict: accept releases the token to the acquirer,
        reject sends the merchant back for a replacement."""
        if msg.kind == K.ACCEPT_GOODS:
            self._record(st, Disposition.ACCEPTED)
            self._log(st, now, "Accept", {})
            self._log(st, now, "Release", {"amount": st.amount})
            self._emit(result, MB0, st.txn,
                       m.TokenRelease(st.sealed, st.merchant))
            return TP.RELEASED
        self._record(st, Disposition.REJECTED)
        self._log(st, now, "Reject", {"reason": msg.payload.reason})
        self._emit(result, st.merchant, st.txn,
                   m.RejectGoods(msg.payload.order_number, msg.payload.reason))
        return TP.REPLACING

    def regenerate_flow(self, msg, st: _ArbiterTxn, now: int,
                        result: StepResult):
        """Tamper report on a released token: drop the escrowed copy, ask
        the customer for a fresh token, rewind to awaiting deposit.  Bounded
        by the regeneration cap, after which the transaction aborts."""
        self._log(st, now, "Tamper", {"reason": msg.payload.reason,
                                      "detail": msg.payload.detail})
        if st.regen_count >= self.regenerate_cap:
            return self._abort(st, now, "regeneration cap exhausted", result)
        st.regen_count += 1
        st.sealed = None
        self._log(st, now, "Regenerate", {"attempt": st.regen_count})
        self._emit(result, st.txn.customer, st.txn, m.RegenerateRequest())
        return TP.QUOTED

    def _abort(self, st: _ArbiterTxn, now: int, reason: str,
               result: StepResult):
        self._log(st, now, "Abort", {"reason": reason})
        self._emit(result, CB0, st.txn, m.EscrowCancel(reason))
        for target in (st.txn.customer, st.merchant):
            self._emit(result, target, st.txn,
                       m.CompletionNotice("aborted", reason))
        return TP.ABORTED

    # -- message handling ----------------------------------------------------

    def handle(self, msg, phase, now, result):
        kind = msg.kind
        txn_key = msg.txn.name
        st = self.txns.get(txn_key)

        if kind == K.TRUST_LOOKUP:
            st = _ArbiterTxn(msg.txn, msg.payload.merchant)
            self.txns[txn_key] = st
            record = self.trust.get(msg.payload.merchant.name)
            if record is None or record.total == 0:
                # No verdicts yet: the merchant is unrated, not perfect.
                reply = m.TrustReply(False)
            else:
                standing = merchant_standing(record)
                reply = m.TrustReply(True, standing["trust_factor"],
                                     standing["grade"])
            self._emit(result, msg.sender, msg.txn, reply)
            return TP.QUOTED

        if kind == K.ESCROW_DEPOSIT:
            return self.hold_escrow(msg, st, now, result)

        if kind == K.TEMP_PAYMENT_QUERY:
            if phase is TP.QUOTED:
                st.pending_query = msg.payload.order_number
                return phase
            self._log(st, now, "TempAck", {"amount": st.amount})
            self._ack(st, result)
            return phase

        if kind == K.ABORT_NOTICE:
            self._log(st, now, "Abort", {"reason": msg.payload.reason})
            self._emit(result, st.merchant, msg.txn,
                       m.CompletionNotice("aborted", msg.payload.reason))
            return TP.ABORTED

        if kind == K.GOODS_DISPATCH:
            self._log(st, now, "Dispatch",
                      {"replacement": msg.payload.replacement})
            return TP.DISPATCHED

        if kind in (K.ACCEPT_GOODS, K.REJECT_GOODS):
            return self.disposition(msg, st, now, result)

        if kind == K.TAMPER_REPORT:
            # A replay refusal means the token already settled; the bank's
            # duplicate settlement is in flight, so regenerating would fork
            # an extra payment.  Only genuine tamper restarts the token.
            if phase is TP.RELEASED and msg.payload.reason != "replay":
                return self.regenerate_flow(msg, st, now, result)
            self._log(st, now, "Tamper", {"reason": msg.payload.reason,
                                          "detail": msg.payload.detail})
            return phase

        if kind == K.COMPLETION_NOTICE:
            if phase is TP.EXPIRED:
                # A capture raced past expiry; the ledger records the truth.
                self._log(st, now, "Settled", {"amount": st.amount,
                                               "late": True})
                return phase
            self._log(st, now, "Settled", {"amount": st.amount})
            return TP.SETTLED

        raise AssertionError(f"unhandled {kind} in {phase}")

    # -- deadlines -----------------------------------------------------------

    def _due(self, key, now):
        return now + self.deadline_ticks

    def on_timer(self, txn_key, phase, now, result):
        """Deadline expiry: refund via escrow cancellation, notify the
        parties, and count the failure against the merchant if goods money
        was ever on the table."""
        st = self.txns[txn_key]
        self._log(st, now, "DeadlineExpired", {"phase": phase.value})
        if st.amount is not None:
            self._record(st, Disposition.REJECTED)
        self._emit(result, CB0, st.txn, m.EscrowCancel("deadline expired"))
        targets = [st.txn.customer, st.merchant]
        if phase is TP.RELEASED:
            targets.append(MB0)
        for target in targets:
            self._emit(result, target, st.txn,
                       m.CompletionNotice("aborted", "deadline expired"))
        return TP.EXPIRED
