"""Discrete-event message network with an active adversary.

Time is an integer tick (one tick is one millisecond of simulated time, and
token timestamps come from this clock).  One heap holds every event:
purchase starts and deliveries (each send lands ``latency`` ticks later) as
(tick, 0, sequence, entry), entity timers as (tick, 1, entity, key).  So at
one tick deliveries run first, in queue order, then timers in (entity name,
key) order, and a run is deterministic for a given scenario and seed.

An entity's ``timers`` table (transaction key to due tick, read through
``timer_due``) is the only record of its timers: after a delivery or
firing touches key k at an entity, the simulator queues the tick that
``timer_due(k)`` names unless that tick is already queued or not later
than now.  A popped timer entry whose tick no longer equals
``timer_due(k)`` is stale and dropped; it neither moves the clock nor
counts against the tick limit.  A timer its entity refuses to fire (no
``Timer`` row in its phase) stays due at the tick it was refused at, so it
is not queued again: like a refused message, it is dropped.  The run ends
quiescent, with no message in flight and no timer armed, unless the next
live event lies past the tick limit.

The adversary script is immutable input, shared by every world built
from one scenario.  A run keeps the match counts of the actions that have
not fired yet, keyed by the message kind they target (untargeted actions
share one bucket), each with its script position.  A send walks its kind's
bucket merged with the untargeted one in script order: every action that
wants the message counts it until one fires, and the message counts toward
no action after that one.  An action leaves its bucket when it fires, so
each fires at most once per run.

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
depends only on its type and is computed once per type.  The bytes of every
message not bound for the issuing bank are scanned for the two bank
secrets, and for the account numbers only when their common prefix occurs.
"""

from __future__ import annotations

import heapq
import os
import struct
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum

from . import messages as m
from .entities import (ArbiterPhase as TP, Customer, CustomerBank, Entity,
                       MerchantBank, Ttp)
from .ledger import Ledger
from .messages import MsgKind, ProtocolMessage
from .tokens import SealedToken
from .trust import TrustRecord

# Sealed envelope layout constants for field-targeted mutation: the amount
# occupies the first 8 plaintext bytes behind a 32-byte ephemeral key and a
# 12-byte nonce, and AES-GCM keeps byte positions aligned.
_AMOUNT_CT_OFFSET = 44


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
        if self.target_txn is not None and str(msg.txn) != self.target_txn:
            return False
        return True


def _mutate_sealed(msg: ProtocolMessage, action: AdversaryAction) -> ProtocolMessage:
    env = bytearray(msg.sealed_token().envelope)
    if action.kind is ActionKind.FLIP_BITS:
        for off in action.bit_offsets:
            byte = (off // 8) % len(env)
            env[byte] ^= 1 << (off % 8)
    else:
        env[_AMOUNT_CT_OFFSET:_AMOUNT_CT_OFFSET + 8] = \
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


def _payload_keys(obj) -> set:
    keys = set()
    if isinstance(obj, dict):
        for k, v in obj.items():
            keys.add(k)
            keys |= _payload_keys(v)
    return keys


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
        # Payload type -> every key of its JSON form, at any depth.  A type
        # fixes its keys, so the first message of each type computes them.
        self._keys_by_type: dict[type, frozenset] = {}

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
            key = str(msg.txn)
            if key in self._settled_for_value:
                self.failures.append(f"DoubleSettlement:{key}:tick={now}")
            self._settled_for_value.add(key)

    def check_privacy(self, msg: ProtocolMessage, now: int) -> None:
        role = msg.receiver.role
        keys = self._keys_by_type.get(type(msg.payload))
        if keys is None:
            keys = frozenset(_payload_keys(msg.plain_payload))
            self._keys_by_type[type(msg.payload)] = keys
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
        if role is not m.Role.CUSTOMER_BANK:
            wire = msg.wire
            if (any(secret in wire for secret in self._secrets)
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
    notes: list
    violations: list
    invariant_failures: list
    ledger: Ledger
    trust: dict[str, TrustRecord]
    world: World
    quiescent: bool
    ticks: int


class Simulation:
    def __init__(self, world: World):
        self.world = world
        self.monitor = InvariantMonitor(world)
        self.trace: list[TraceRecord] = []
        self.notes: list[str] = []
        self.violations: list[str] = []
        # Target kind (None: any kind) -> [script position, action,
        # matches still needed to fire] per unfired action, in script
        # order; an action is deleted when it fires.
        self._unfired: dict[MsgKind | None, list] = {}
        for position, action in enumerate(world.adversary):
            self._unfired.setdefault(action.target_kind, []).append(
                [position, action, action.trigger])
        self._heap: list = []
        self._queued_timers: set = set()
        self._seq = 0
        self._now = 0
        self._attempted = 0

    # -- scheduling ----------------------------------------------------------

    def _push(self, tick: int, entry) -> None:
        heapq.heappush(self._heap, (tick, 0, self._seq, entry))
        self._seq += 1

    def _arm(self, entity: Entity, key: str) -> None:
        timer = (entity.timer_due(key), 1, str(entity.id), key)
        if (timer[0] is not None and timer[0] > self._now
                and timer not in self._queued_timers):
            self._queued_timers.add(timer)
            heapq.heappush(self._heap, timer)

    def _record(self, tick: int, msg: ProtocolMessage, flag: str) -> None:
        self.trace.append(TraceRecord(tick, str(msg.sender),
                                      str(msg.receiver), msg.kind.value,
                                      str(msg.txn), flag, msg.digest()))

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
                self._push(deliver_at + action.delay, ("deliver", msg,
                                                       "replayed"))
            else:
                msg = _mutate_sealed(msg, action)
                flag = "mutated"
        self._push(deliver_at, ("deliver", msg, flag))

    def _fired_by(self, msg: ProtocolMessage) -> AdversaryAction | None:
        """Counts ``msg`` toward the unfired actions that want it, in script
        order, up to the first one it fires, which leaves the run."""
        kinded = self._unfired.get(msg.kind, ())
        untargeted = self._unfired.get(None, ())
        i = j = 0
        while i < len(kinded) or j < len(untargeted):
            if j == len(untargeted) or (i < len(kinded)
                                        and kinded[i][0] < untargeted[j][0]):
                bucket, at = kinded, i
                i += 1
            else:
                bucket, at = untargeted, j
                j += 1
            armed = bucket[at]
            if armed[1].wants(msg):
                armed[2] -= 1
                if not armed[2]:
                    del bucket[at]
                    return armed[1]
        return None

    # -- delivery ------------------------------------------------------------

    def _apply_result(self, result, now: int) -> None:
        self.notes.extend(result.notes)
        self.violations.extend(result.violations)
        for out in result.messages:
            self.send(out, now)

    def _deliver(self, msg: ProtocolMessage, flag: str, now: int) -> None:
        self._record(now, msg, flag)
        self.monitor.check_privacy(msg, now)
        receiver = self.world.entities.get(str(msg.receiver))
        if receiver is None:
            self.violations.append(f"NoSuchEntity:{msg.receiver}")
            return
        result = receiver.step(msg, now)
        self._apply_result(result, now)
        self._arm(receiver, str(msg.txn))
        self.monitor.after_delivery(msg, now)

    # -- main loop -------------------------------------------------------

    def run(self) -> RunResult:
        for tick, customer_id, intent in self.world.plan:
            self._push(tick, ("begin", customer_id, intent))
        tick_limit_exceeded = False

        while self._heap:
            entry = heapq.heappop(self._heap)
            tick, is_timer = entry[0], entry[1]
            if is_timer:
                self._queued_timers.discard(entry)
                entity, key = self.world.entities[entry[2]], entry[3]
                if entity.timer_due(key) != tick:
                    continue                    # re-armed or cleared: stale
            if tick > self.world.tick_limit:
                tick_limit_exceeded = True
                break
            self._now = tick
            if is_timer:
                self._apply_result(entity.fire_timer(key, tick), tick)
                self._arm(entity, key)
                continue
            what, subject, detail = entry[3]
            if what == "deliver":
                self._deliver(subject, detail, tick)
            else:
                self._attempted += 1
                customer = self.world.customers[subject]
                self._apply_result(customer.begin_purchase(detail), tick)

        return self._result(tick_limit_exceeded)

    # -- reporting ---------------------------------------------------------

    def _result(self, tick_limit_exceeded: bool) -> RunResult:
        world = self.world
        ttp_phases = [world.ttp.phases.get(key, TP.NEW)
                      for key in world.ttp.txns]
        aborted = sum(1 for p in ttp_phases if p is TP.ABORTED)
        expired = sum(1 for p in ttp_phases if p is TP.EXPIRED)
        completed = len(world.cb.settled_amounts)
        events = Counter(e.event for e in world.ttp.ledger)
        regenerations = events["Regenerate"]
        expiries = events["DeadlineExpired"]
        summary = {
            "seed": world.seed,
            "ticks": self._now,
            "quiescent": not tick_limit_exceeded,
            "tick_limit_exceeded": tick_limit_exceeded,
            "txns_attempted": self._attempted,
            "txns_completed": completed,
            "txns_aborted": aborted,
            "txns_expired": expired,
            "txns_unresolved": max(
                0, self._attempted - completed - aborted - expired),
            "settlements": completed,
            "replay_refusals": world.cb.replay_refusals,
            "tamper_reports": world.cb.tamper_reports,
            "regenerations": regenerations,
            "deadline_expiries": expiries,
            "protocol_violations": len(self.violations),
            "invariant_failures": len(self.monitor.failures),
            "initial_account_total": self.monitor.initial_total,
            "final_account_total": (sum(world.cb.accounts.values())
                                    + sum(world.mb.accounts.values())),
            "escrow_pool": world.cb.escrow_pool,
            "total_settled_minor_units": world.cb.settled_out_total,
        }
        return RunResult(
            trace=self.trace, summary=summary, notes=self.notes,
            violations=self.violations,
            invariant_failures=self.monitor.failures,
            ledger=world.ttp.ledger, trust=world.ttp.trust, world=world,
            quiescent=not tick_limit_exceeded, ticks=self._now)


def render_summary(summary: dict) -> str:
    return "".join(f"{key}: {value}\n" for key, value in summary.items())
