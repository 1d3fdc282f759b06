"""Discrete-event message network with an active adversary.

Time is an integer tick (one tick is one millisecond of simulated time, and
token timestamps come from this clock).  One heap holds every event:
purchase starts and deliveries (each send lands ``latency`` ticks later) as
(tick, 0, sequence, entry), entity timers as (tick, 1, entity, key).  So at
one tick deliveries run first, in queue order, then timers in (entity name,
key) order, and a run is deterministic for a given scenario and seed.

An entity's ``timers`` table (transaction key to due tick, read through
``timer_due`` and written only by ``Entity._advance``, from the legality
tables' clocks) is the only record of its timers: after a delivery or
firing touches key k at an entity, the simulator queues the tick that
``timer_due(k)`` names unless that tick is already queued or not later
than now.  A popped timer entry whose tick no longer equals
``timer_due(k)`` is stale and dropped; it neither moves the clock nor
counts against the tick limit.  A timer its entity refuses to fire stays
due at the tick it was refused at, so it is not queued again: like a
refused message, it is dropped.  A run is quiescent when no event is
left at or before the tick limit.

Every delivery's hop signature is verified before its receiver acts on
it (messages.verify_message), exactly once, in one of two processes;
each certificate is verified inline, once per world, when it is first
presented (crypto.CertificateChecks).  Which process verifies a hop is
decided by this rule, which reads the simulator's queue alone:
- a delivery queued behind another queued delivery expects from the
  process's helper (crypto.helper) the check of its Ed25519 signature
  (the key its receiver knows the sender by, the signature and the
  signed part);
- a delivery queued with none ahead of it may be the next event, which
  would leave the helper nothing to overlap, so it is verified inline;
- before each event, the simulator writes every queued check to the
  helper in one batch.
Expected checks are owed in the receiver's CertificateChecks, and each
hop verification takes the check owed to its exact bytes (crypto's module
docstring).  So every owed check is sent before a delivery takes it,
with at least one event to run before its verdict is needed.  The
verdicts of deliveries the tick limit cuts off are waited for when the
run ends.  Where each signature is verified repeats on every run and on
any number of CPUs, and the verdicts, like every verification, are
deterministic, so where a signature is verified never changes a run's
outputs.

The adversary script is immutable input, shared by every world built
from one scenario.  A run keeps, for each message kind, the match counts
of the unfired actions that can want that kind, in script order; an
untargeted action's count is one entry shared by every kind's list.  A
send walks its kind's list once: every action that wants the message
counts it until one fires, and the message counts toward no action after
that one.  A fired action's entry leaves every list, so each action fires
at most once per run.

The adversary owns the wire but no keys.  It can flip bits in or rewrite
fields of the sealed token bytes it sees, replay token-carrying messages,
and drop or delay anything.  It cannot forge signatures, so header or
business-field rewrites are out of scope: mutations target the sealed
envelope, which is exactly the surface the issuing bank's tamper check
covers.

An invariant monitor audits the books after every delivery: total funds
(accounts + escrow + interbank in-flight) never change, no transaction
settles twice for value, and messages never carry data their receiver must
not see (bank secrets and account numbers stay out of commerce traffic,
order contents stay away from the issuing bank).  The payload's key set
depends only on its type (messages.PAYLOAD_KEYS).  The bytes of every
message not bound for the issuing bank are scanned for the two bank
secrets, and for the account numbers only when their common prefix occurs.
"""

from __future__ import annotations

import heapq
import os
import struct
from dataclasses import dataclass, field
from enum import Enum

from . import crypto, messages as m
from .entities import (TERMINAL, ArbiterPhase as TP, Customer, CustomerBank,
                       Entity, IssuerPhase as IP, MerchantBank, Ttp)
from .ledger import Ledger
from .messages import MsgKind, ProtocolMessage
from .tokens import SEALED_AMOUNT_OFFSET, SealedToken
from .trust import TrustRecord


class ActionKind(str, Enum):
    FLIP_BITS = "flip_bits"
    REPLACE_AMOUNT = "replace_amount"
    REPLAY_TOKEN = "replay_token"
    DROP = "drop"
    DELAY = "delay"


_TOKEN_ACTIONS = (ActionKind.FLIP_BITS, ActionKind.REPLACE_AMOUNT,
                  ActionKind.REPLAY_TOKEN)


@dataclass(frozen=True)
class AdversaryAction:
    """One-shot attack armed on the nth message matching the target."""

    kind: ActionKind
    target_kind: MsgKind | None = None
    target_edge: tuple[str, str] | None = None
    target_txn: str | None = None
    trigger: int = 1
    bit_offsets: tuple[int, ...] = (0,)
    amount: int | None = None
    delay: int = 5

    def __post_init__(self):
        if self.trigger < 1:
            raise ValueError("trigger counts from 1")
        if self.kind is ActionKind.REPLACE_AMOUNT and self.amount is None:
            raise ValueError("replace_amount needs an amount")
        if self.delay < 1:
            raise ValueError("delay must be at least one tick")

    def wants(self, msg: ProtocolMessage) -> bool:
        if self.kind in _TOKEN_ACTIONS and msg.sealed_token() is None:
            return False
        if self.target_kind is not None and msg.kind is not self.target_kind:
            return False
        if self.target_edge is not None and msg.edge() != tuple(self.target_edge):
            return False
        if self.target_txn is not None and msg.txn.name != self.target_txn:
            return False
        return True


def _kinds_of(action: AdversaryAction):
    """The message kinds ``action`` can want."""
    return MsgKind if action.target_kind is None else (action.target_kind,)


def _mutate_sealed(msg: ProtocolMessage, action: AdversaryAction) -> ProtocolMessage:
    env = bytearray(msg.sealed_token().envelope)
    if action.kind is ActionKind.FLIP_BITS:
        for off in action.bit_offsets:
            byte = (off // 8) % len(env)
            env[byte] ^= 1 << (off % 8)
    else:
        env[SEALED_AMOUNT_OFFSET:SEALED_AMOUNT_OFFSET + 8] = \
            struct.pack(">Q", action.amount)
    return msg.with_sealed(SealedToken(bytes(env)))


@dataclass
class TraceRecord:
    tick: int
    sender: str
    receiver: str
    kind: str
    txn: str
    flag: str
    digest: str

    def line(self) -> str:
        return "\t".join([str(self.tick), self.sender, self.receiver,
                          self.kind, self.txn, self.flag, self.digest])


TRACE_HEADER = "tick\tsender\treceiver\tkind\ttxn\tflag\tdigest"


def export_trace(records: list[TraceRecord]) -> str:
    return "\n".join([TRACE_HEADER] + [r.line() for r in records]) + "\n"


@dataclass
class World:
    """Everything a run needs: entities, purchase plan, adversary, params."""

    seed: int
    latency: int
    tick_limit: int
    entities: dict[str, Entity]
    customers: dict[str, Customer]
    cb: CustomerBank
    mb: MerchantBank
    ttp: Ttp
    plan: list  # (tick, customer_id, PurchaseIntent), sorted by tick
    adversary: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# Invariants

_FORBIDDEN_AT_COMMERCE = frozenset(
    {"account_number", "symmetric_key", "box_secret", "balance"})
_FORBIDDEN_AT_ISSUER = frozenset({"product", "quantity", "order_number"})


class InvariantMonitor:
    """Cross-entity checks the protocol itself cannot express."""

    def __init__(self, world: World):
        self.world = world
        self.failures: list[str] = []
        self.initial_total = (sum(world.cb.accounts.values())
                              + sum(world.mb.accounts.values()))
        self._secrets = (world.cb.keys.symmetric_key.hex().encode(),
                         world.cb.keys.box_secret.hex().encode())
        accounts = list(world.cb.account_numbers.values())
        self._accounts = tuple(a.encode() for a in accounts)
        # Every account number starts with it; empty when they share none,
        # and b"" occurs in every message, so then all are scanned.
        self._account_prefix = os.path.commonprefix(accounts).encode()
        self._settled_for_value: set[str] = set()

    def conserved_total(self) -> int:
        cb, mb = self.world.cb, self.world.mb
        in_flight = cb.settled_out_total - mb.credited_in_total
        return (sum(cb.accounts.values()) + cb.escrow_pool
                + sum(mb.accounts.values()) + in_flight)

    def after_delivery(self, msg: ProtocolMessage, now: int) -> None:
        total = self.conserved_total()
        if total != self.initial_total:
            self.failures.append(
                f"FundsConservation:tick={now}:total={total}"
                f":expected={self.initial_total}")

    def on_send(self, msg: ProtocolMessage, now: int) -> None:
        if (msg.kind is MsgKind.SETTLEMENT
                and msg.sender.role is m.Role.CUSTOMER_BANK
                and not msg.payload.duplicate):
            key = msg.txn.name
            if key in self._settled_for_value:
                self.failures.append(f"DoubleSettlement:{key}:tick={now}")
            self._settled_for_value.add(key)

    def check_privacy(self, msg: ProtocolMessage, now: int) -> None:
        role = msg.receiver.role
        keys = m.PAYLOAD_KEYS[type(msg.payload)]
        if role in (m.Role.MERCHANT, m.Role.MERCHANT_BANK):
            bad = keys & _FORBIDDEN_AT_COMMERCE
            if bad:
                self.failures.append(
                    f"PrivacyLeak:{msg.kind.value}->{msg.receiver}:"
                    f"{','.join(sorted(bad))}")
        if role is m.Role.CUSTOMER_BANK:
            bad = keys & _FORBIDDEN_AT_ISSUER
            if bad:
                self.failures.append(
                    f"OrderLeak:{msg.kind.value}->{msg.receiver}:"
                    f"{','.join(sorted(bad))}")
            return
        wire = msg.wire
        symmetric_key, box_secret = self._secrets
        if (symmetric_key in wire or box_secret in wire
                or (self._account_prefix in wire
                    and any(a in wire for a in self._accounts))):
            self.failures.append(
                f"SecretLeak:{msg.kind.value}->{msg.receiver}")


# ---------------------------------------------------------------------------
# The simulator

@dataclass
class RunResult:
    trace: list
    summary: dict
    violations: list
    invariant_failures: list
    ledger: Ledger
    trust: dict[str, TrustRecord]
    world: World
    quiescent: bool


class Simulation:
    def __init__(self, world: World):
        self.world = world
        self.monitor = InvariantMonitor(world)
        self.trace: list[TraceRecord] = []
        self.violations: list[str] = []
        # Message kind -> [action, matches still needed to fire] per unfired
        # action that targets that kind or none, in script order.
        self._unfired: dict[MsgKind, list] = {kind: [] for kind in MsgKind}
        for action in world.adversary:
            armed = [action, action.trigger]
            for kind in _kinds_of(action):
                self._unfired[kind].append(armed)
        self._heap: list = []
        self._queued_timers: set = set()
        self._seq = 0
        self._now = 0
        self._deliveries = 0        # deliveries in the heap
        self._helper: crypto.Helper | None = None
        for tick, customer_id, intent in world.plan:
            self._push(tick, ("begin", customer_id, intent))

    # -- scheduling ----------------------------------------------------------

    def _push(self, tick: int, entry) -> None:
        heapq.heappush(self._heap, (tick, 0, self._seq, entry))
        self._seq += 1

    def _arm(self, entity: Entity, key: str) -> None:
        timer = (entity.timer_due(key), 1, entity.id.name, key)
        if (timer[0] is not None and timer[0] > self._now
                and timer not in self._queued_timers):
            self._queued_timers.add(timer)
            heapq.heappush(self._heap, timer)

    def _queue(self, tick: int, msg: ProtocolMessage, flag: str) -> None:
        """Queue a delivery; with a delivery queued ahead of it, its
        receiver expects the helper's check of its hop signature under the
        key it knows the sender by (see the module docstring).  Sending
        every hop check to the helper instead ran ``tamper-sweep`` at a
        median of 113.3 worlds a second against 119.8, and ``mixed-load``
        at 369.3 purchases against 373.1 (bench/run.py, ten alternating
        pairs of 8 s runs each, on a 2-core x86-64 host).  Needing two
        deliveries ahead ran them at 132.7 against 130.3 and 391.6 against
        396.4, faster in 8 and in 3 of ten pairs of 10 s runs."""
        receiver = self.world.entities.get(msg.receiver.name)
        cert = (None if receiver is None
                else receiver.directory.get(msg.sender.name))
        if cert is not None and self._deliveries:
            receiver.certs.expect(self._helper, cert.public_key,
                                  msg.signature, msg.signed_part)
        self._deliveries += 1
        self._push(tick, ("deliver", msg, flag))

    def _record(self, tick: int, msg: ProtocolMessage, flag: str) -> None:
        self.trace.append(TraceRecord(tick, msg.sender.name,
                                      msg.receiver.name, msg.kind.value,
                                      msg.txn.name, flag, msg.digest()))

    def send(self, msg: ProtocolMessage, now: int) -> None:
        deliver_at = now + self.world.latency
        flag = "ok"
        self.monitor.on_send(msg, now)
        action = self._fired_by(msg)
        if action is not None:
            if action.kind is ActionKind.DROP:
                # Recorded at the tick it was destroyed, keeping the trace
                # monotone; the message never gets a delivery tick.
                self._record(now, msg, "dropped")
                return
            if action.kind is ActionKind.DELAY:
                deliver_at += action.delay
                flag = "delayed"
            elif action.kind is ActionKind.REPLAY_TOKEN:
                self._queue(deliver_at + action.delay, msg, "replayed")
            else:
                msg = _mutate_sealed(msg, action)
                flag = "mutated"
        self._queue(deliver_at, msg, flag)

    def _fired_by(self, msg: ProtocolMessage) -> AdversaryAction | None:
        """Counts ``msg`` toward the unfired actions that want it, in script
        order, up to the first one it fires, which leaves the run."""
        for armed in self._unfired[msg.kind]:
            if armed[0].wants(msg):
                armed[1] -= 1
                if not armed[1]:
                    # Every other entry still needs a match, so only this
                    # one equals [action, 0].
                    for kind in _kinds_of(armed[0]):
                        self._unfired[kind].remove(armed)
                    return armed[0]
        return None

    # -- delivery ------------------------------------------------------------

    def _apply_result(self, result, now: int) -> None:
        self.violations.extend(result.violations)
        for out in result.messages:
            self.send(out, now)

    def _deliver(self, msg: ProtocolMessage, flag: str, now: int) -> None:
        self._record(now, msg, flag)
        self.monitor.check_privacy(msg, now)
        receiver = self.world.entities.get(msg.receiver.name)
        if receiver is None:
            self.violations.append(f"NoSuchEntity:{msg.receiver}")
            return
        result = receiver.step(msg, now)
        self._apply_result(result, now)
        self._arm(receiver, msg.txn.name)
        self.monitor.after_delivery(msg, now)

    # -- main loop -------------------------------------------------------

    def run(self) -> RunResult:
        """Run the heap (the plan is queued by __init__, so a copy runs on)."""
        if self.world.plan:
            self._helper = crypto.helper()

        try:
            while self._heap:
                # Only a plan puts events in the heap, so the helper is
                # started.
                self._helper.top_up()
                entry = heapq.heappop(self._heap)
                tick, is_timer = entry[0], entry[1]
                if is_timer:
                    self._queued_timers.discard(entry)
                    entity, key = self.world.entities[entry[2]], entry[3]
                    if entity.timer_due(key) != tick:
                        continue                # re-armed or cleared: stale
                if tick > self.world.tick_limit:
                    return self._result(quiescent=False)
                self._now = tick
                if is_timer:
                    self._apply_result(entity.fire_timer(key, tick), tick)
                    self._arm(entity, key)
                    continue
                what, subject, detail = entry[3]
                if what == "deliver":
                    self._deliveries -= 1
                    self._deliver(subject, detail, tick)
                else:
                    customer = self.world.customers[subject]
                    self._apply_result(customer.begin_purchase(detail, tick),
                                       tick)
        finally:
            # Checks whose deliveries the tick limit cut off, among others.
            if self._helper is not None:
                self._helper.drain()

        return self._result(quiescent=True)

    # -- reporting ---------------------------------------------------------

    def _result(self, quiescent: bool) -> RunResult:
        world = self.world
        # A purchase the customer began is unresolved while some party holds
        # it in a non-terminal phase, else completed if the issuer settled it.
        begun = {txn for c in world.customers.values() for txn in c.phases}
        unresolved = begun & {txn for entity in world.entities.values()
                              for txn, phase in entity.phases.items()
                              if phase not in TERMINAL[entity.role]}
        ended = [world.cb.phases.get(txn) for txn in begun - unresolved]
        summary = {
            "seed": world.seed,
            "ticks": self._now,
            "quiescent": quiescent,
            "txns_attempted": len(begun),
            "txns_completed": ended.count(IP.SETTLED),
            "txns_aborted": len(ended) - ended.count(IP.SETTLED),
            "txns_unresolved": len(unresolved),
            "replay_refusals": world.cb.replay_refusals,
            "tamper_reports": world.cb.tamper_reports,
            # The arbiter logs Regenerate as it counts one, and DeadlineExpired
            # once per purchase, as it moves the purchase to Expired.
            "regenerations": sum(st.regen_count
                                 for st in world.ttp.txns.values()),
            "deadline_expiries": sum(1 for phase in world.ttp.phases.values()
                                     if phase is TP.EXPIRED),
            "protocol_violations": len(self.violations),
            "invariant_failures": len(self.monitor.failures),
            "initial_account_total": self.monitor.initial_total,
            "final_account_total": (sum(world.cb.accounts.values())
                                    + sum(world.mb.accounts.values())),
            "escrow_pool": world.cb.escrow_pool,
            "total_settled_minor_units": world.cb.settled_out_total,
        }
        return RunResult(
            trace=self.trace, summary=summary, violations=self.violations,
            invariant_failures=self.monitor.failures,
            ledger=world.ttp.ledger, trust=world.ttp.trust, world=world,
            quiescent=quiescent)


def render_summary(summary: dict) -> str:
    return "".join(f"{key}: {value}\n" for key, value in summary.items())
