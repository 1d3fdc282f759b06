"""Acceptance gate: eleven criteria, one test and one pass/fail line each.

Heavy batches (the thousand-run tamper sweep, the thousand-transaction
mixed load) are built once on a module fixture and shared between the
criterion that owns them, the privacy scan, and the determinism rerun.
"""

import hashlib
import json
import random
import re
import time
from fractions import Fraction
from functools import cached_property

import pytest

from tset import messages as m
from tset.entities import (
    AcquirerPhase as AP,
    ArbiterPhase as TP,
    CustomerPhase as CP,
    IssuerPhase as IP,
    MerchantPhase as MP,
)
from tset.ledger import Ledger, LedgerIntegrityError, dispute_report
from tset.messages import MsgKind as K, ProtocolMessage, Role, TransactionId
from tset.scenario import ScenarioConfig, build_world
from tset.simnet import Simulation, export_trace
from tset.trust import (
    Grade,
    TrustRecord,
    format_pct,
    grade,
    merchant_standing,
    trust_factor,
    trust_value,
)

import reference_encoding as ref
from conftest import basic_scenario, stranded

SEALED_KINDS = ("EscrowDeposit", "TokenIssued", "TokenRelease",
                "PaymentRequest")
ENVELOPE_BITS = (32 + 12 + 256 + 16) * 8

# Golden digests (see test_golden.py): the sha256 over the thousand tamper
# traces of criterion 4, and of criterion 7's mixed trace.
TAMPER_SWEEP_DIGEST = ("1c030dfd95f5844674797d95a58ec6e5"
                       "a7a2d261fc31625a4842969516453874")
MIXED_TRACE_SHA256 = ("83e0fc235f1d5ebdd20135185671ad92"
                      "6fb267b41443053fb36edb00615213df")


def _passline(num: int, detail: str) -> None:
    print(f"criterion {num:>2} PASS  {detail}", flush=True)


# -- instrumented simulation ---------------------------------------------------

class PrivacyScan:
    """Independent delivery scan: forbidden field names per receiving role
    plus raw/hex secret bytes in anything the commerce side receives."""

    ACCOUNT_FIELDS = frozenset(
        {"account_number", "symmetric_key", "box_secret", "balance"})
    ORDER_FIELDS = frozenset({"product", "quantity", "order_number"})

    def __init__(self):
        self.deliveries = 0
        self.findings = []

    @staticmethod
    def context_for(world):
        keys = world.cb.keys
        secrets = [keys.symmetric_key, keys.box_secret,
                   keys.symmetric_key.hex().encode(),
                   keys.box_secret.hex().encode()]
        secrets += [acct.encode()
                    for acct in world.cb.account_numbers.values()]
        products = sorted({product
                           for ent in world.entities.values()
                           for product in getattr(ent, "catalog", ())})
        return tuple(secrets), tuple(products)

    @staticmethod
    def _field_names(obj) -> set:
        names = set()
        if isinstance(obj, dict):
            for key, value in obj.items():
                names.add(key)
                names |= PrivacyScan._field_names(value)
        elif isinstance(obj, list):
            for value in obj:
                names |= PrivacyScan._field_names(value)
        return names

    def scan(self, msg: ProtocolMessage, context) -> None:
        self.deliveries += 1
        secrets, products = context
        role = msg.receiver.role
        if role in (Role.MERCHANT, Role.MERCHANT_BANK):
            leaked = self._field_names(ref.payload_dict(msg)) \
                & self.ACCOUNT_FIELDS
            if leaked:
                self.findings.append(
                    f"{msg.kind.value}->{msg.receiver}: fields {leaked}")
            blob = ref.whole(msg)
            for secret in secrets:
                if secret in blob:
                    self.findings.append(
                        f"{msg.kind.value}->{msg.receiver}: secret bytes")
        elif role is Role.CUSTOMER_BANK:
            leaked = self._field_names(ref.payload_dict(msg)) \
                & self.ORDER_FIELDS
            if leaked:
                self.findings.append(
                    f"{msg.kind.value}->{msg.receiver}: fields {leaked}")
            text = json.dumps(ref.payload_dict(msg))
            if "ORD-" in text or any(p in text for p in products):
                self.findings.append(
                    f"{msg.kind.value}->{msg.receiver}: order text")


class _Capture(Simulation):
    def __init__(self, world, scanner: PrivacyScan | None = None):
        super().__init__(world)
        self._scanner = scanner
        self._context = (PrivacyScan.context_for(world)
                         if scanner is not None else None)

    def _deliver(self, msg, flag, now, check):
        if self._scanner is not None:
            self._scanner.scan(msg, self._context)
        super()._deliver(msg, flag, now, check)


def run_world(data: dict, scanner: PrivacyScan | None = None):
    world = build_world(ScenarioConfig.from_dict(data))
    return _Capture(world, scanner).run()


# -- deterministic batch generators -------------------------------------------

def tamper_case(rnd: random.Random) -> dict:
    """One random single-bit or single-field mutation on a random sealed
    edge; the action dict doubles as the case's description."""
    kind = SEALED_KINDS[rnd.randrange(len(SEALED_KINDS))]
    if rnd.random() < 0.5:
        return {"action": "flip_bits", "bits": [rnd.randrange(ENVELOPE_BITS)],
                "trigger": 1, "target": {"kind": kind}}
    amount = 15000
    while amount == 15000:
        amount = rnd.randrange(1, 1_000_000)
    return {"action": "replace_amount", "amount": amount, "trigger": 1,
            "target": {"kind": kind}}


def run_tamper_batch(scanner: PrivacyScan | None):
    rnd = random.Random(0xACCE55)
    digest = hashlib.sha256()
    totals = {"tamper_reports": 0, "regenerations": 0}
    for i in range(1000):
        action = tamper_case(rnd)
        result = run_world(basic_scenario(seed=1000 + i,
                                          adversary=[action]), scanner)
        s = result.summary
        label = f"run {i} {action}"
        assert s["invariant_failures"] == 0, label
        assert s["txns_completed"] == 1, label
        assert s["tamper_reports"] >= 1, label
        assert s["total_settled_minor_units"] == 15000, label
        assert result.world.mb.accounts == {"M0": 15000}, label
        assert s["final_account_total"] == 100000, label
        assert s["quiescent"], label
        totals["tamper_reports"] += s["tamper_reports"]
        totals["regenerations"] += s["regenerations"]
        digest.update(export_trace(result.trace).encode())
    return {"totals": totals, "digest": digest.hexdigest()}


def mixed_config() -> dict:
    """Forty customers, a thousand purchases, random rejections, thirty
    token mutations and twenty message drops, all from one fixed seed."""
    rnd = random.Random(0x7E57)
    merchants = [{"catalog": {"widget": 12000, "gadget": 7500}},
                 {"catalog": {"doohickey": 9900, "sprocket": 4400}}]
    products = [(0, "widget"), (0, "gadget"), (1, "doohickey"),
                (1, "sprocket")]
    customers = []
    for _ in range(40):
        purchases = []
        for _ in range(25):
            midx, product = products[rnd.randrange(4)]
            purchases.append({"merchant": midx, "product": product,
                              "quantity": 1 + rnd.randrange(3),
                              "start": rnd.randrange(4000)})
        customers.append({"balance": 2_000_000, "purchases": purchases,
                          "reject_probability": 0.15})
    adversary = []
    for _ in range(30):
        kind = SEALED_KINDS[rnd.randrange(len(SEALED_KINDS))]
        if rnd.random() < 0.5:
            adversary.append({"action": "flip_bits",
                              "bits": [rnd.randrange(ENVELOPE_BITS)],
                              "trigger": 1 + rnd.randrange(900),
                              "target": {"kind": kind}})
        else:
            adversary.append({"action": "replace_amount",
                              "amount": rnd.randrange(1, 500_000),
                              "trigger": 1 + rnd.randrange(900),
                              "target": {"kind": kind}})
    for _ in range(20):
        adversary.append({"action": "drop",
                          "trigger": 1 + rnd.randrange(900)})
    return {"seed": 20260815, "stagger": 4, "tick_limit": 50000,
            "customers": customers, "merchants": merchants,
            "adversary": adversary}


class _Suite:
    @cached_property
    def happy(self):
        scanner = PrivacyScan()
        start = time.perf_counter()
        result = run_world(basic_scenario(), scanner)
        return {"elapsed": time.perf_counter() - start, "result": result,
                "scan": scanner, "trace": export_trace(result.trace)}

    @cached_property
    def tamper(self):
        scanner = PrivacyScan()
        start = time.perf_counter()
        batch = run_tamper_batch(scanner)
        batch["elapsed"] = time.perf_counter() - start
        batch["scan"] = scanner
        return batch

    @cached_property
    def replay(self):
        scanner = PrivacyScan()
        start = time.perf_counter()
        result = run_world(basic_scenario(seed=55, adversary=[
            {"action": "replay_token", "delay": 6, "trigger": 1,
             "target": {"kind": "PaymentRequest"}}]), scanner)
        trials = _second_presentation_trials(100)
        return {"elapsed": time.perf_counter() - start, "result": result,
                "scan": scanner, "trials": trials}

    @cached_property
    def mixed(self):
        scanner = PrivacyScan()
        start = time.perf_counter()
        result = run_world(mixed_config(), scanner)
        return {"elapsed": time.perf_counter() - start, "result": result,
                "scan": scanner, "trace": export_trace(result.trace)}


@pytest.fixture(scope="module")
def suite() -> _Suite:
    return _Suite()


def _second_presentation_trials(count: int) -> dict:
    """Issue, settle, and re-present `count` distinct tokens against a live
    issuing bank; every second presentation must refuse and move nothing."""
    world = build_world(ScenarioConfig.from_dict(basic_scenario(
        customers=[{"balance": 15000 * (count + 1),
                    "purchases": [{"merchant": 0, "product": "widget",
                                   "quantity": 1}]}])))
    cb = world.cb
    customer = world.customers["C0"]
    mb_id = world.entities["MB0"].id

    def signed(sender, kind, receiver, txn, payload):
        ent = world.entities[sender]
        msg = ProtocolMessage(kind, ent.id, world.entities[receiver].id,
                              txn, payload)
        return m.sign_message(msg, ent._key)

    refused = 0
    for serial in range(1, count + 1):
        txn = TransactionId(customer.id, serial)
        issue = cb.step(signed("C0", K.TOKEN_REQUEST, "CB0", txn,
                               m.TokenRequest(15000, customer.certificate,
                                              world.entities["M0"].certificate)),
                        now=serial * 10)
        sealed = issue.messages[0].payload.sealed
        present = m.PaymentRequest(sealed, world.entities["M0"].id)
        first = cb.step(signed("MB0", K.PAYMENT_REQUEST, "CB0", txn,
                               present), now=serial * 10 + 2)
        assert [out.kind for out in first.messages] \
            == [K.SETTLEMENT, K.COMPLETION_NOTICE], serial

        funds_before = (sum(cb.accounts.values()), cb.escrow_pool,
                        cb.settled_out_total)
        refusals_before = cb.replay_refusals
        again = cb.step(signed("MB0", K.PAYMENT_REQUEST, "CB0", txn,
                               present), now=serial * 10 + 4)
        funds_after = (sum(cb.accounts.values()), cb.escrow_pool,
            cb.settled_out_total)
        assert funds_after == funds_before, serial
        assert [out.kind for out in again.messages] \
            == [K.TAMPER_REPORT, K.SETTLEMENT], serial
        assert again.messages[0].payload.reason == "replay", serial
        assert again.messages[1].payload.duplicate, serial
        assert cb.replay_refusals == refusals_before + 1, serial
        assert cb.phase_of(txn) is IP.SETTLED, serial
        refused += 1
    return {"count": count, "refused": refused,
            "refusals_counted": cb.replay_refusals}


# -- criteria -------------------------------------------------------------------

def test_criterion_01_trust_arithmetic_worked_examples():
    start = time.perf_counter()
    low = TrustRecord(total=1000, rejected=25)
    tv_low = trust_value(low)
    tf_low = trust_factor(tv_low)
    high = TrustRecord(total=1000, rejected=300)
    tv_high = trust_value(high)
    tf_high = trust_factor(tv_high)
    elapsed = time.perf_counter() - start

    assert tv_low == Fraction(5, 2)
    assert tf_low == Fraction(195, 2)
    assert grade(tf_low) is Grade.A1
    assert (format_pct(tv_low), format_pct(tf_low)) == ("2.50", "97.50")
    assert tv_high == Fraction(30)
    assert tf_high == Fraction(70)
    assert grade(tf_high) is Grade.B1
    assert (format_pct(tv_high), format_pct(tf_high)) == ("30.00", "70.00")
    assert elapsed < 0.001, f"{elapsed * 1000:.3f} ms"
    _passline(1, f"25/1000 -> 2.50/97.50/A1, 300/1000 -> 30.00/70.00/B1, "
                 f"exact [{elapsed * 1000:.3f} ms < 1 ms]")


def test_criterion_02_grade_bands_exhaustive():
    # independent oracle: the ten decade intervals written out long-hand,
    # boundary belonging to the higher grade, 100 included in the top band
    bands = [(Fraction(lo), Fraction(lo + 10), g) for lo, g in
             ((0, Grade.E2), (10, Grade.E1), (20, Grade.D2), (30, Grade.D1),
              (40, Grade.C2), (50, Grade.C1), (60, Grade.B2), (70, Grade.B1),
              (80, Grade.A2), (90, Grade.A1))]

    def oracle(tf: Fraction) -> Grade:
        for lo, hi, g in bands:
            if lo <= tf < hi or (g is Grade.A1 and tf == 100):
                return g
        raise AssertionError(f"no band for {tf}")

    cases = [Fraction(i) for i in range(101)]
    cases += [Fraction(999, 100), Fraction(10), Fraction(8999, 100),
              Fraction(90)]
    start = time.perf_counter()
    got = [grade(tf) for tf in cases]
    elapsed = time.perf_counter() - start

    for tf, actual in zip(cases, got):
        assert actual is oracle(tf), f"TF {tf}"
    assert got[-4:] == [Grade.E2, Grade.E1, Grade.A2, Grade.A1]
    assert len(cases) == 105
    assert elapsed < 0.001, f"{elapsed * 1000:.3f} ms"
    _passline(2, f"105 checks (101 integers + 4 boundary values) "
                 f"[{elapsed * 1000:.3f} ms < 1 ms]")


def test_criterion_03_happy_path_end_to_end(suite):
    batch = suite.happy
    result, s = batch["result"], batch["result"].summary
    world = result.world
    assert s["txns_attempted"] == s["txns_completed"] == 1
    # exactly one settlement between the banks, for the order's total price
    wires = [r for r in result.trace
             if r.kind == "Settlement" and (r.sender, r.receiver)
             == ("CB0", "MB0")]
    assert len(wires) == 1
    assert world.cb.settled_amounts == {"C0-1": 15000}
    assert world.mb.accounts == {"M0": 15000}
    assert [e.event for e in result.ledger.entries] \
        == ["Deposit", "TempAck", "Dispatch", "Accept", "Release", "Settled"]
    terminal = {
        "C0": (world.customers["C0"], CP.DONE),
        "M0": (world.entities["M0"], MP.DONE),
        "CB0": (world.cb, IP.SETTLED),
        "MB0": (world.mb, AP.SETTLED),
        "TTP0": (world.ttp, TP.SETTLED),
    }
    for name, (entity, phase) in terminal.items():
        assert entity.phases["C0-1"] is phase, name
    assert s["protocol_violations"] == 0 and s["invariant_failures"] == 0
    assert batch["elapsed"] < 1.0
    _passline(3, f"one settlement of 15000, full ledger chain, all phases "
                 f"terminal [{batch['elapsed']:.3f} s < 1 s]")


def test_criterion_04_tamper_always_detected_then_recovers(suite):
    batch = suite.tamper
    assert batch["totals"]["tamper_reports"] == 1000
    assert batch["totals"]["regenerations"] >= 1000
    assert batch["elapsed"] < 30.0
    _passline(4, f"1000/1000 mutations detected, 0 mutated settlements, "
                 f"every run settled clean "
                 f"[{batch['elapsed']:.1f} s < 30 s]")


def test_criterion_05_replay_refused_every_time(suite):
    batch = suite.replay
    trials = batch["trials"]
    assert trials["refused"] == trials["count"] == 100
    assert trials["refusals_counted"] == 100
    s = batch["result"].summary
    assert s["replay_refusals"] == 1
    assert s["txns_completed"] == 1
    assert s["total_settled_minor_units"] == 15000
    assert batch["result"].world.mb.accounts == {"M0": 15000}
    assert batch["elapsed"] < 1.0
    _passline(5, f"100/100 second presentations refused with zero funds "
                 f"moved, plus one full replayed-network run "
                 f"[{batch['elapsed']:.3f} s < 1 s]")


def test_criterion_06_token_ids_never_collide():
    world = build_world(ScenarioConfig.from_dict(basic_scenario()))
    mint = world.cb.mint
    cert_c = world.entities["C0"].certificate
    cert_m = world.entities["M0"].certificate
    start = time.perf_counter()
    ids = {mint.generate_token(100 + (i % 900), cert_c, cert_m, i).token_id
           for i in range(100_000)}
    elapsed = time.perf_counter() - start
    assert len(ids) == 100_000
    assert mint.issued_count == 100_000
    assert elapsed < 10.0
    _passline(6, f"100000 tokens, 100000 distinct ids "
                 f"[{elapsed:.2f} s < 10 s]")


def test_criterion_07_funds_conserved_under_mixed_adversaries(suite):
    batch = suite.mixed
    result, s = batch["result"], batch["result"].summary
    world = result.world
    assert s["txns_attempted"] == 1000
    assert s["invariant_failures"] == 0
    assert s["quiescent"]
    # Quiescent, yet the liveness faults of ROADMAP item 1 strand some.
    assert s["txns_unresolved"] == len(stranded(world))
    assert (s["txns_completed"] + s["txns_aborted"] + s["txns_unresolved"]
            == s["txns_attempted"])
    initial = 40 * 2_000_000
    assert s["initial_account_total"] == initial
    assert s["final_account_total"] == initial
    assert s["escrow_pool"] == 0
    # per-merchant credits equal the settled token amounts routed to them
    expected: dict = {}
    for key, amount in world.cb.settled_amounts.items():
        merchant = str(world.ttp.txns[key].merchant)
        expected[merchant] = expected.get(merchant, 0) + amount
    assert world.mb.accounts == expected
    assert sum(expected.values()) == s["total_settled_minor_units"]
    assert world.mb.credited_in_total == world.cb.settled_out_total
    # the only tolerated violations: a dropped dispatch copy leaves the
    # arbiter behind the customer's verdict; the deadline refund resolves it
    race = re.compile(
        r"ProtocolViolation:TTP0:(Held|Replacing)x(Accept|Reject)Goods$")
    for violation in result.violations:
        assert race.match(violation), violation
    assert batch["elapsed"] < 60.0
    _passline(7, f"1000 txns ({s['txns_completed']} completed, "
                 f"{s['txns_aborted']} aborted, "
                 f"{s['txns_unresolved']} unresolved), account sum exact, "
                 f"per-merchant credits exact "
                 f"[{batch['elapsed']:.1f} s < 60 s]")


def test_criterion_08_privacy_visibility_matrix(suite):
    scanned = 0
    for batch in (suite.happy, suite.tamper, suite.replay, suite.mixed):
        scan = batch["scan"]
        assert scan.findings == []
        scanned += scan.deliveries
    assert scanned > 50_000
    _passline(8, f"{scanned} deliveries scanned, no account fields at "
                 f"merchant side, no order fields at issuer (token "
                 f"generation alone sends no traffic)")


def test_criterion_09_repeat_rejection_squares_trust_value():
    result = run_world({
        "seed": 99,
        "customers": [
            {"balance": 100000, "reject_script": [True, True, False],
             "purchases": [{"merchant": 0, "product": "widget",
                            "quantity": 1}]},
            {"balance": 100000, "reject_script": [True, True, False],
             "purchases": [{"merchant": 1, "product": "gadget",
                            "quantity": 1}]},
        ],
        "merchants": [
            {"catalog": {"widget": 15000}},
            {"catalog": {"gadget": 9000},
             "history": {"total": 997, "rejected": 23}},
        ]})
    assert result.summary["txns_completed"] == 2

    # both merchants latched the repeat penalty on the second rejection
    heavy = result.trust["M0"]
    assert heavy.repeats == {("C0", "widget"): 2}
    assert (heavy.total, heavy.rejected) == (3, 2)
    raw = Fraction(heavy.rejected, heavy.total) * 100
    assert raw * raw > 100                      # cap engages
    assert trust_value(heavy) == Fraction(100)  # min(TV^2, 100)
    assert trust_factor(trust_value(heavy)) == 0  # floor at zero
    standing = merchant_standing(heavy)
    assert (standing["trust_value"], standing["trust_factor"],
            standing["grade"]) == ("100.00", "0.00", "E2")

    light = result.trust["M1"]
    assert light.repeats == {("C1", "gadget"): 2}
    assert (light.total, light.rejected) == (1000, 25)
    assert trust_value(light) == Fraction(25, 4)       # 2.5 squared
    assert trust_factor(trust_value(light)) == Fraction(375, 4)
    standing = merchant_standing(light)
    assert (standing["trust_value"], standing["trust_factor"],
            standing["grade"]) == ("6.25", "93.75", "A1")
    _passline(9, "double rejection squares TV (6.25 for 2.5, capped 100.00 "
                 "for 66.67) and TF floors at 0.00/E2")


def test_criterion_10_ledger_byte_flips_always_detected(suite):
    blob = suite.happy["result"].ledger.to_bytes()
    assert len(blob) >= 256
    positions = sorted({i * len(blob) // 256 for i in range(256)})
    assert len(positions) == 256
    start = time.perf_counter()
    detected = 0
    for pos in positions:
        corrupt = blob[:pos] + bytes([blob[pos] ^ 0xFF]) + blob[pos + 1:]
        try:
            ledger = Ledger.from_bytes(corrupt)
            dispute_report(ledger, "C0-1")
        except LedgerIntegrityError:
            detected += 1
    elapsed = time.perf_counter() - start
    assert detected == 256
    assert elapsed < 5.0
    _passline(10, f"256/256 single-byte flips over {len(blob)} bytes "
                  f"rejected [{elapsed:.2f} s < 5 s]")


def test_criterion_11_reruns_are_byte_identical(suite):
    again_happy = run_world(basic_scenario())
    assert export_trace(again_happy.trace) == suite.happy["trace"]

    again_tamper = run_tamper_batch(scanner=None)
    assert again_tamper["digest"] == suite.tamper["digest"]
    assert suite.tamper["digest"] == TAMPER_SWEEP_DIGEST

    again_mixed = run_world(mixed_config())
    assert export_trace(again_mixed.trace) == suite.mixed["trace"]
    assert hashlib.sha256(suite.mixed["trace"].encode()).hexdigest() \
        == MIXED_TRACE_SHA256
    _passline(11, "criteria 3, 4, and 7 reran byte-identical "
                  "(1002 trace files compared)")
