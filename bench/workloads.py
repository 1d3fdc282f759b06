"""Seeded inputs, correctness checks and timed loops for the three workloads.

Each workload builds its inputs from one integer seed, hands the program
only those inputs, times the part a user waits for, and then checks the
program's outputs against the inputs or against a property of the
protocol, never against a stored copy of an earlier output.

    tamper-sweep   one-purchase worlds, each with one seeded mutation of a
                   sealed token; one operation is build_world + run
    mixed-load     forty customers with twenty-five purchases each under
                   rejections, token mutations and drops; one operation is
                   one purchase, and one round runs all of them
    dispute-audit  the ledger's read path over the artifacts of one
                   mixed-size run; one operation is one dispute report
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import random
import struct
import time
from dataclasses import dataclass, field
from pathlib import Path

import yaml

import tset.cli
import tset.ledger
import tset.scenario
import tset.trust
from tset.entities import (AcquirerPhase, ArbiterPhase, CustomerPhase,
                           IssuerPhase, MerchantPhase)
from tset.simnet import Simulation, export_trace

# dispute-audit's artifacts and the spans of traced runs
OUT = Path(__file__).resolve().parent / "out"

# With these seeds the generators rebuild the inputs of acceptance
# criteria 4 and 7 in tests/test_acceptance.py (see README for the one
# difference in the mixed load).
DEFAULT_SEEDS = {"tamper-sweep": 0xACCE55, "mixed-load": 0x7E57,
                 "dispute-audit": 0x7E57}

SEALED_KINDS = ("EscrowDeposit", "TokenIssued", "TokenRelease",
                "PaymentRequest")
ENVELOPE_BITS = (32 + 12 + 256 + 16) * 8

TAMPER_PRICE = 15000
TAMPER_BALANCE = 100000
TAMPER_CASES = 1000
TAMPER_ROUND = 100          # cases per round; rounds run in case order

MIXED_CUSTOMERS = 40
MIXED_PURCHASES = 25
MIXED_MUTATIONS = 30
MIXED_DROPS = 20
# Message kinds whose loss the protocol always recovers from: the arbiter's
# deadline ends a purchase whose TrustReply is lost, and the merchant
# bank's retry or the issuer's duplicate settlement ends one whose
# PaymentRequest or Settlement is lost.  Seeded drops pick from these only.
# The two liveness faults of the protocol strand purchases too, but how
# many a seeded drop strands depends on the seed; so each fault gets fixed
# actions below instead, which strand the same purchases on every seed.
RECOVERABLE_DROP_KINDS = ("TrustReply", "PaymentRequest", "Settlement")
# Losing a Browse, an Offer or a TrustLookup strands the purchase: no
# deadline covers the phases before the arbiter learns of it.  These are
# the drops that strand purchases in the acceptance test's mixed load.
STRANDING_DROPS = (("Browse", "C9-1"), ("Browse", "C16-1"),
                   ("TrustLookup", "C2-2"), ("TrustLookup", "C22-4"),
                   ("TrustLookup", "C29-2"))
# Losing the second TokenRequest of a purchase whose first token was
# tampered with lets the arbiter expire it before release; the merchant
# bank is never told and waits in AwaitPayment for good.  One more customer
# makes two such purchases after every seeded action has fired, so that
# they neither shift nor meet the seeded actions.
STALE_TOKEN_CUSTOMER = {"balance": 2_000_000, "purchases": [
    {"merchant": 0, "product": "widget", "quantity": 1, "start": 4500},
    {"merchant": 1, "product": "doohickey", "quantity": 2, "start": 4520}]}
STALE_TOKEN_TXNS = ("C40-1", "C40-2")
STALE_TOKEN_BIT = 40 * 8    # a nonce bit: the token no longer opens
SEEDED_DROPS = MIXED_DROPS - len(STRANDING_DROPS)

DISPUTE_SAMPLE = 40         # transactions reported on per round

# Set-up samples per run (mixed-load) or per round (tamper-sweep); setup_s
# is their median.
MIXED_SETUP_REPEATS = 15
TAMPER_SETUP_REPEATS = 5

TERMINAL = {
    CustomerPhase: {CustomerPhase.DONE, CustomerPhase.ABORTED},
    MerchantPhase: {MerchantPhase.DONE, MerchantPhase.ABORTED},
    IssuerPhase: {IssuerPhase.SETTLED, IssuerPhase.CANCELLED},
    AcquirerPhase: {AcquirerPhase.SETTLED, AcquirerPhase.ABORTED},
    ArbiterPhase: {ArbiterPhase.SETTLED, ArbiterPhase.ABORTED,
                   ArbiterPhase.EXPIRED},
}


# ---------------------------------------------------------------------------
# Input generators

def tamper_action(rnd: random.Random) -> dict:
    """One single-bit or single-field mutation on a random sealed edge."""
    kind = SEALED_KINDS[rnd.randrange(len(SEALED_KINDS))]
    if rnd.random() < 0.5:
        return {"action": "flip_bits", "bits": [rnd.randrange(ENVELOPE_BITS)],
                "trigger": 1, "target": {"kind": kind}}
    amount = TAMPER_PRICE
    while amount == TAMPER_PRICE:
        amount = rnd.randrange(1, 1_000_000)
    return {"action": "replace_amount", "amount": amount, "trigger": 1,
            "target": {"kind": kind}}


def tamper_inputs(seed: int, start: int = 0,
                  stop: int = TAMPER_CASES) -> list[dict]:
    """Scenario dicts of cases ``start .. stop-1`` of the sweep: case i is
    world seed 1000 + i with the i-th seeded mutation, one customer buying
    one 15000 widget.  All mutations are drawn whatever the slice, so that
    every slice costs the same to make."""
    rnd = random.Random(seed)
    actions = [tamper_action(rnd) for _ in range(TAMPER_CASES)]
    return [{"seed": 1000 + i,
             "customers": [{"balance": TAMPER_BALANCE,
                            "purchases": [{"merchant": 0, "product": "widget",
                                           "quantity": 1}]}],
             "merchants": [{"catalog": {"widget": TAMPER_PRICE}}],
             "adversary": [actions[i]]}
            for i in range(start, stop)]


def mixed_input(seed: int) -> dict:
    """The criterion-7 load: purchases, verdict behaviour and thirty token
    mutations drawn as the acceptance test draws them, then fifteen seeded
    drops of recoverable kinds, the five fixed stranding drops, and one
    more customer whose two late purchases lose their regenerated token."""
    rnd = random.Random(seed)
    merchants = [{"catalog": {"widget": 12000, "gadget": 7500}},
                 {"catalog": {"doohickey": 9900, "sprocket": 4400}}]
    products = [(0, "widget"), (0, "gadget"), (1, "doohickey"),
                (1, "sprocket")]
    customers = []
    for _ in range(MIXED_CUSTOMERS):
        purchases = []
        for _ in range(MIXED_PURCHASES):
            midx, product = products[rnd.randrange(4)]
            purchases.append({"merchant": midx, "product": product,
                              "quantity": 1 + rnd.randrange(3),
                              "start": rnd.randrange(4000)})
        customers.append({"balance": 2_000_000, "purchases": purchases,
                          "reject_probability": 0.15})
    customers.append(STALE_TOKEN_CUSTOMER)
    adversary = []
    for _ in range(MIXED_MUTATIONS):
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
    for _ in range(SEEDED_DROPS):
        kind = RECOVERABLE_DROP_KINDS[rnd.randrange(
            len(RECOVERABLE_DROP_KINDS))]
        adversary.append({"action": "drop", "trigger": 1 + rnd.randrange(900),
                          "target": {"kind": kind}})
    for kind, txn in STRANDING_DROPS:
        adversary.append({"action": "drop", "trigger": 1,
                          "target": {"kind": kind, "txn": txn}})
    for txn in STALE_TOKEN_TXNS:
        adversary.append({"action": "flip_bits", "bits": [STALE_TOKEN_BIT],
                          "trigger": 1,
                          "target": {"kind": "TokenIssued", "txn": txn}})
        adversary.append({"action": "drop", "trigger": 2,
                          "target": {"kind": "TokenRequest", "txn": txn}})
    return {"seed": 20260815, "stagger": 4, "tick_limit": 50000,
            "customers": customers, "merchants": merchants,
            "adversary": adversary}


def expected_purchases(data: dict) -> dict[str, tuple[str, int]]:
    """Transaction id -> (merchant, price x quantity), from the input alone.

    A customer numbers its purchases 1, 2, ... in the order it begins them:
    by start tick, ties in list order, each unset start being the purchase's
    list position times the stagger."""
    stagger = data.get("stagger", tset.scenario.DEFAULT_STAGGER)
    out = {}
    for i, customer in enumerate(data["customers"]):
        purchases = customer.get("purchases", [])
        order = sorted(range(len(purchases)), key=lambda j: purchases[j].get(
            "start", j * stagger))
        for serial, j in enumerate(order, start=1):
            p = purchases[j]
            price = data["merchants"][p["merchant"]]["catalog"][p["product"]]
            out[f"C{i}-{serial}"] = (f"M{p['merchant']}",
                                     price * p.get("quantity", 1))
    return out


# ---------------------------------------------------------------------------
# Correctness checks.  Each returns a list of problems; empty means correct.

def _balances(data: dict) -> int:
    return sum(c["balance"] for c in data["customers"])


def _funds(world) -> int:
    return (sum(world.cb.accounts.values()) + sum(world.mb.accounts.values())
            + world.cb.escrow_pool)


def check_tamper_case(data: dict, result) -> list[str]:
    world = result.world
    (purchase,) = data["customers"][0]["purchases"]
    price = (data["merchants"][0]["catalog"][purchase["product"]]
             * purchase["quantity"])
    problems = []
    if not any(r.kind == "TamperReport" and r.flag != "dropped"
               for r in result.trace):
        problems.append("no tamper report delivered")
    if world.cb.settled_amounts != {"C0-1": price}:
        problems.append(f"settlements {world.cb.settled_amounts}, "
                        f"expected one of {price}")
    if world.mb.accounts != {"M0": price}:
        problems.append(f"merchant credits {world.mb.accounts}, "
                        f"expected M0 {price}")
    total = sum(world.cb.accounts.values()) + sum(world.mb.accounts.values())
    if total != _balances(data):
        problems.append(f"account total {total} != input {_balances(data)}")
    if not result.quiescent:
        problems.append("run not quiescent")
    if result.invariant_failures:
        problems.append(f"invariant failures {result.invariant_failures}")
    return problems


def unfinished(world) -> list[str]:
    """Purchases some entity holds in a non-terminal phase."""
    return sorted({txn for entity in world.entities.values()
                   for txn, phase in entity.phases.items()
                   if phase not in TERMINAL[type(phase)]})


def check_mixed(data: dict, result) -> list[str]:
    world = result.world
    expected = expected_purchases(data)
    problems = []
    if _funds(world) != _balances(data):
        problems.append(f"accounts + escrow {_funds(world)} != input "
                        f"{_balances(data)}")
    credits: dict[str, int] = {}
    for txn, amount in world.cb.settled_amounts.items():
        if txn not in expected:
            problems.append(f"{txn} settled but was never generated")
            continue
        merchant, price = expected[txn]
        if amount != price:
            problems.append(f"{txn} settled {amount}, input says {price}")
        credits[merchant] = credits.get(merchant, 0) + price
    actual = {m: v for m, v in world.mb.accounts.items() if v}
    if actual != credits:
        problems.append(f"merchant credits {actual}, settled purchases "
                        f"sum to {credits}")
    payouts: dict[str, int] = {}
    for r in result.trace:
        if (r.kind == "Settlement" and r.sender == "MB0"
                and r.flag != "dropped"):
            payouts[r.txn] = payouts.get(r.txn, 0) + 1
    twice = sorted(t for t, n in payouts.items() if n > 1)
    if twice:
        problems.append(f"settled twice: {twice}")
    if result.invariant_failures:
        problems.append(f"invariant failures {result.invariant_failures}")
    if result.summary["txns_attempted"] != len(expected):
        problems.append(f"attempted {result.summary['txns_attempted']} of "
                        f"{len(expected)} generated purchases")
    return problems


def chain_from_file(blob: bytes) -> tuple[bytes, int, list[str]]:
    """Recompute the ledger chain from its file bytes, independently of
    tset.ledger: [4-byte big-endian length][entry][32-byte sha256 link],
    link_i = sha256(link_{i-1} || entry_i) from 32 zero bytes."""
    head, count, pos, problems = b"\x00" * 32, 0, 0, []
    while pos < len(blob):
        (length,) = struct.unpack_from(">I", blob, pos)
        entry = blob[pos + 4:pos + 4 + length]
        stored = blob[pos + 4 + length:pos + 36 + length]
        head = hashlib.sha256(head + entry).digest()
        if stored != head:
            problems.append(f"stored link {count} does not match")
        pos += 36 + length
        count += 1
    return head, count, problems


def check_reports(reports: list[dict], entries, blob: bytes) -> list[str]:
    """Each report against the chain recomputed from the file and against
    the set-up run's in-memory ledger entries."""
    head, count, problems = chain_from_file(blob)
    rows: dict[str, list] = {}
    for i, e in enumerate(entries):
        rows.setdefault(e.txn, []).append(
            {"index": i, "tick": e.tick, "actor": e.actor, "event": e.event,
             "token_digest": e.token_digest, "oi_digest": e.oi_digest,
             "details": e.details})
    for report in reports:
        txn = report["txn"]
        if report["chain_head"] != head.hex():
            problems.append(f"{txn}: chain head {report['chain_head']} != "
                            f"recomputed {head.hex()}")
        if report["chain_length"] != count:
            problems.append(f"{txn}: chain length {report['chain_length']} "
                            f"!= {count}")
        if report["entries"] != rows.get(txn):
            problems.append(f"{txn}: entries differ from the run's ledger")
    return problems


def check_flip_detected(blob: bytes, pos: int, path: Path) -> list[str]:
    path.write_bytes(blob[:pos] + bytes([blob[pos] ^ 0xFF]) + blob[pos + 1:])
    try:
        tset.ledger.Ledger.load(path)
    except tset.ledger.LedgerIntegrityError:
        return []
    return [f"flipped byte {pos} of {len(blob)} loaded without error"]


# ---------------------------------------------------------------------------
# Workload runs.  Times are recorded as (start, end) spans of
# time.perf_counter; run.py turns them into host and reference seconds.

@dataclass
class Outcome:
    """What a run measured and found; run.py turns it into metrics."""

    setup: list = field(default_factory=list)    # one span per set-up
    timed: list = field(default_factory=list)    # spans of the timed section
    ops: list = field(default_factory=list)      # per operation, if timed
    attempted: int = 0
    failed: int = 0
    deliveries: int = 0
    deliveries_in: str = "timed"                 # spans they were made in
    problems: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    @property
    def timed_s(self) -> float:
        return sum(end - start for start, end in self.timed)


def _another_round(rounds: int, out: Outcome, seconds: float,
                   one_round: bool) -> bool:
    """Whole rounds: exactly one when traced, else at least one and then
    more until the timed section has lasted ``seconds``."""
    if one_round:
        return rounds < 1
    return rounds == 0 or out.timed_s < seconds


def _digest(texts) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t)
    return h.hexdigest()


def _timed(spans: list, make, calibrate=None):
    """Call ``make()``, append its span to ``spans`` and return its value.
    With ``calibrate``, a set-up sample: it starts after a garbage
    collection that the span leaves out, so that collections owed by
    earlier work do not land in it, and ``calibrate()`` samples the host's
    speed right before and right after it."""
    if calibrate:
        gc.collect()
        calibrate()
    start = time.perf_counter()
    made = make()
    spans.append((start, time.perf_counter()))
    if calibrate:
        calibrate()
    return made


def run_tamper(seed: int, seconds: float, one_round: bool,
               untraced=contextlib.nullcontext,
               calibrate=lambda: None) -> Outcome:
    out = Outcome()
    out.timed = out.ops         # the timed section is the cases
    traces, ledgers = [], []
    rounds = 0

    def setup(base):
        cases = tamper_inputs(seed, base, base + TAMPER_ROUND)
        return cases, [tset.scenario.ScenarioConfig.from_dict(d)
                       for d in cases]

    while _another_round(rounds, out, seconds, one_round):
        # Each round sets up its own cases, so that the set-up samples span
        # the run as the timed section does.
        base = (rounds * TAMPER_ROUND) % TAMPER_CASES
        for _ in range(TAMPER_SETUP_REPEATS):
            cases, configs = _timed(out.setup, lambda: setup(base),
                                    calibrate)
        for i, (data, config) in enumerate(zip(cases, configs)):
            result = _timed(out.ops, lambda: Simulation(
                tset.scenario.build_world(config)).run())
            out.attempted += 1
            out.deliveries += len(result.trace)
            with untraced():
                out.problems += [f"case {base + i}: {p}" for p in
                                 check_tamper_case(data, result)]
                if rounds == 0:
                    traces.append(export_trace(result.trace).encode())
                    ledgers.append(result.ledger.to_bytes())
        rounds += 1
    out.digests = {"trace": _digest(traces), "ledger": _digest(ledgers)}
    out.notes.append(f"{rounds} rounds of {TAMPER_ROUND} cases")
    return out


def run_mixed(seed: int, seconds: float, one_round: bool,
              untraced=contextlib.nullcontext,
              calibrate=lambda: None) -> Outcome:
    out = Outcome()

    def setup():
        data = mixed_input(seed)
        config = tset.scenario.ScenarioConfig.from_dict(data)
        return data, config, tset.scenario.build_world(config)

    for _ in range(MIXED_SETUP_REPEATS):
        data, config, world = _timed(out.setup, setup, calibrate)
    rounds = 0
    while _another_round(rounds, out, seconds, one_round):
        if world is None:
            world = tset.scenario.build_world(config)
        result = _timed(out.timed, Simulation(world).run)
        out.attempted += result.summary["txns_attempted"]
        out.deliveries += len(result.trace)
        with untraced():
            stuck = unfinished(result.world)
            out.problems += check_mixed(data, result)
            digests = {"trace": _digest([export_trace(result.trace).encode()]),
                       "ledger": _digest([result.ledger.to_bytes()])}
        out.failed += len(stuck)
        if rounds == 0:
            out.digests = digests
            out.notes.append(f"unfinished: {' '.join(stuck)}")
        elif digests != out.digests:
            out.problems.append(f"round {rounds} digests differ from round 0")
        # Free this round's world before the next is built, so that peak
        # memory does not depend on how many rounds fit in the run.
        world = result = None
        rounds += 1
    out.notes.append(f"{rounds} rounds of {out.attempted // rounds} "
                     f"purchases")
    return out


def run_dispute(seed: int, seconds: float, one_round: bool,
                untraced=contextlib.nullcontext,
                calibrate=lambda: None) -> Outcome:
    out = Outcome()
    run_dir = OUT / "dispute-audit"
    run_dir.mkdir(parents=True, exist_ok=True)
    scenario = run_dir / "scenario.yaml"

    def setup():
        scenario.write_text(yaml.safe_dump(mixed_input(seed)))
        return tset.cli.run_scenario(scenario, out_dir=run_dir)[0]

    result = _timed(out.setup, setup, calibrate)
    # The only simulation here is the set-up run.
    out.deliveries = len(result.trace)
    out.deliveries_in = "setup"

    ledger_path = run_dir / "ledger.bin"
    blob = ledger_path.read_bytes()
    rnd = random.Random(seed)
    txns = sorted({e.txn for e in result.ledger.entries})
    sample = rnd.sample(txns, min(DISPUTE_SAMPLE, len(txns)))
    with untraced():
        expected_table = tset.trust.render_table(result.trust)

    def audit():
        ledger = tset.ledger.Ledger.load(ledger_path)
        reports = [_timed(out.ops, lambda: tset.ledger.dispute_report(
            ledger, txn)) for txn in sample]
        return reports, tset.cli.trust_table(run_dir)

    rounds = 0
    while _another_round(rounds, out, seconds, one_round):
        reports, table = _timed(out.timed, audit)
        out.attempted += len(reports)
        with untraced():
            out.problems += check_reports(reports, result.ledger.entries, blob)
        if table != expected_table:
            out.problems.append("trust table differs from the run's records")
        rounds += 1

    with untraced():
        out.problems += check_flip_detected(blob, rnd.randrange(len(blob)),
                                            run_dir / "ledger-flipped.bin")
    out.digests = {
        "trace": _digest([(run_dir / "trace.log").read_bytes()]),
        "ledger": _digest([blob])}
    out.notes.append(f"{rounds} rounds of load + {len(sample)} reports + "
                     f"trust table on a {len(result.ledger)}-entry ledger")
    return out


RUNNERS = {"tamper-sweep": run_tamper, "mixed-load": run_mixed,
           "dispute-audit": run_dispute}
