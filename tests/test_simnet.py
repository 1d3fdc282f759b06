"""End-to-end simulation runs and the network's adversary hooks."""

import copy
import dataclasses
import functools
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from tset import crypto, messages as m, simnet
from tset.entities import (
    AcquirerPhase as AP,
    ArbiterPhase as TP,
    CustomerPhase as CP,
    IssuerPhase as IP,
    MerchantPhase as MP,
    StepResult,
)
from tset.cli import run_scenario as run_scenario_file
from tset.ledger import Ledger, LedgerEntry
from tset.messages import EntityId, MsgKind as K, ProtocolMessage, TransactionId
from tset.scenario import ScenarioConfig, build_world, load_scenario
from tset.simnet import (
    ActionKind,
    AdversaryAction,
    InvariantMonitor,
    Simulation,
    TRACE_HEADER,
    export_trace,
    render_summary,
)

import reference_encoding as ref
from conftest import basic_scenario, run_dict, stranded


SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

HAPPY_LEDGER = ["Deposit", "TempAck", "Dispatch", "Accept", "Release",
                "Settled"]


def run_scenario(**overrides):
    return run_dict(basic_scenario(**overrides))


# -- clean run --------------------------------------------------------------

def test_happy_path_settles_one_transaction():
    result = run_scenario()
    s = result.summary
    assert s["txns_attempted"] == 1
    assert s["txns_completed"] == 1
    assert s["total_settled_minor_units"] == 15000
    assert s["protocol_violations"] == 0
    assert s["invariant_failures"] == 0
    assert s["quiescent"]
    assert [e.event for e in result.ledger.entries] == HAPPY_LEDGER


def test_happy_path_terminal_phases():
    result = run_scenario()
    world = result.world
    txn = "C0-1"
    assert world.customers["C0"].phases[txn] is CP.DONE
    assert world.entities["M0"].phases[txn] is MP.DONE
    assert world.cb.phases[txn] is IP.SETTLED
    assert world.mb.phases[txn] is AP.SETTLED
    assert world.ttp.phases[txn] is TP.SETTLED


def test_happy_path_money_movement():
    result = run_scenario()
    world = result.world
    assert world.cb.accounts == {"C0": 85000}
    assert world.mb.accounts == {"M0": 15000}
    assert world.cb.escrow_pool == 0
    assert result.summary["final_account_total"] == 100000
    assert result.summary["initial_account_total"] == 100000


def _counting(monkeypatch, owner, name: str, counts: list) -> None:
    real = getattr(owner, name)

    def counted(*args):
        counts.append(args[0])
        return real(*args)

    monkeypatch.setattr(owner, name, counted)


def test_each_message_is_encoded_once_for_signing_and_once_whole(
        monkeypatch):
    signing, whole = [], []
    _counting(monkeypatch, ProtocolMessage, "signing_bytes", signing)
    _counting(monkeypatch, ProtocolMessage, "canonical_bytes", whole)
    # One mutation: the tampered copy keeps the signed part of the original.
    result = run_scenario(adversary=[{"action": "flip_bits", "bits": [9],
                                      "target": {"kind": "EscrowDeposit"}}])
    assert result.summary["tamper_reports"] == 1
    assert len(signing) == len(result.trace)
    assert len(set(map(id, signing))) == len(signing)
    # The whole bytes are derived from the signed part, kept as ``wire``;
    # no delivery asks for canonical_bytes().
    assert whole == []


class _Recording(Simulation):
    """Keeps every message it delivers, tampered and replayed ones too."""

    def __init__(self, world):
        super().__init__(world)
        self.delivered = []

    def _deliver(self, msg, flag, now):
        self.delivered.append((flag, msg))
        super()._deliver(msg, flag, now)


def test_every_delivered_message_has_the_reference_bytes():
    data = basic_scenario(adversary=[
        {"action": "delay", "delay": 3, "target": {"kind": "Offer"}},
        {"action": "flip_bits", "bits": [5, 300],
         "target": {"kind": "TokenIssued"}},
        {"action": "replace_amount", "amount": 95000,
         "target": {"kind": "EscrowDeposit"}},
        {"action": "replay_token", "target": {"kind": "PaymentRequest"}}])
    sim = _Recording(build_world(ScenarioConfig.from_dict(data)))
    result = sim.run()
    assert result.summary["txns_completed"] == 1
    flags = [flag for flag, _ in sim.delivered]
    assert flags.count("mutated") == 2
    assert {"delayed", "replayed"} <= set(flags)
    for flag, msg in sim.delivered:
        assert msg.wire == ref.whole(msg), (flag, msg.kind)


def _queued(monkeypatch) -> tuple[list, list]:
    """The certificate checks and the hop checks queued for the helper from
    now on, as (public key, signature, signed bytes).  A certificate's
    signed bytes start with its domain tag; a hop's signed part is a JSON
    object.  Certificates are verified inline, so the first list stays
    empty."""
    certs, hops = [], []
    real = crypto.Helper.queue

    def recorded(self, *item):
        (certs if item[2].startswith(b"tset/cert") else hops).append(item)
        return real(self, *item)

    monkeypatch.setattr(crypto.Helper, "queue", recorded)
    return certs, hops


def test_each_certificate_is_checked_once_per_world(monkeypatch):
    checked = []
    _counting(monkeypatch, crypto, "verify_certificate", checked)
    by_helper, hops = _queued(monkeypatch)
    for _ in range(2):
        result = run_scenario()
        assert result.summary["txns_completed"] == 1
    senders = {record.sender for record in result.trace}
    assert len(senders) == 5
    # Checked inline, once per world, and never queued for the helper,
    # which verified hops only.
    assert sorted(cert.subject for cert in checked) \
        == sorted(2 * list(senders))
    assert by_helper == [] and hops


def _verifications(monkeypatch, sim):
    """Runs ``sim``; returns the result, the deliveries made, the hop
    signatures verified inline, those the helper verified, and those
    queued for it.  Certificate checks are counted apart, and the test
    fails unless every certificate in the world's directory was checked
    inline exactly once and none was queued for the helper."""
    verified, checked = [], []
    _counting(monkeypatch, crypto, "verify", verified)
    _counting(monkeypatch, crypto, "verify_certificate", checked)
    certs, hops = _queued(monkeypatch)
    helper = crypto.helper()
    before = helper.verified
    result = sim.run()
    flags = [record.flag for record in result.trace]
    assert sorted(cert.subject for cert in checked) \
        == sorted(sim.world.cb.directory)
    assert certs == []
    # Each certificate check is one crypto.verify call; every other call
    # is one delivery's hop signature.
    return (result, len(flags) - flags.count("dropped"),
            len(verified) - len(checked), helper.verified - before,
            len(hops))


def mixed_simulation():
    return Simulation(build_world(load_scenario(SCENARIOS / "mixed.yaml")))


def tamper_simulation():
    return Simulation(build_world(load_scenario(SCENARIOS / "tamper.yaml")))


def test_every_delivery_verifies_its_signature_a_replayed_one_too(
        monkeypatch):
    # Overlapping purchases: most deliveries are queued behind others, so
    # many of their signatures go to the helper process.
    result, deliveries, inline, by_helper, _ = _verifications(
        monkeypatch, mixed_simulation())
    assert "replayed" in [record.flag for record in result.trace]
    # The replay's signature is verified too.
    assert inline > 0 and by_helper > 0
    assert inline + by_helper == deliveries


class _Placed(Simulation):
    """Notes, per delivery made, the deliveries queued ahead of it when it
    was queued, and fails unless each check owed by then was sent to the
    helper."""

    def __init__(self, world):
        super().__init__(world)
        self.ahead = {}
        self.delivered_ahead = []

    def _queue(self, tick, msg, flag):
        # A replay queues the same message again under its own flag.
        self.ahead[id(msg), flag] = self._deliveries
        super()._queue(tick, msg, flag)

    def _deliver(self, msg, flag, now):
        assert all(check.sent for owed in self.world.cb.certs._owed.values()
                   for check in owed)
        self.delivered_ahead.append(self.ahead.pop((id(msg), flag)))
        super()._deliver(msg, flag, now)


def test_a_check_the_helper_cannot_answer_in_time_is_verified_inline(
        monkeypatch):
    # A delivery with none queued ahead of it may be the next event, and
    # leave the helper nothing to overlap: only those are verified inline,
    # and every other check is sent before its delivery is made.
    sim = _Placed(build_world(load_scenario(SCENARIOS / "mixed.yaml")))
    result, deliveries, inline, by_helper, queued = _verifications(
        monkeypatch, sim)
    assert result.summary["txns_completed"] == 4
    alone = sim.delivered_ahead.count(0)
    assert 0 < alone < deliveries
    assert inline == alone
    assert by_helper == queued == deliveries - alone


def _all_inline(monkeypatch):
    monkeypatch.setattr(crypto.CertificateChecks, "expect",
                        lambda self, *check: None)


def _old_rule(monkeypatch):
    """Every check goes to the helper before the next event, that of a
    delivery with none queued ahead of it too."""
    real = Simulation._queue

    def as_if_behind_another(self, tick, msg, flag):
        self._deliveries += 1
        real(self, tick, msg, flag)
        self._deliveries -= 1

    monkeypatch.setattr(Simulation, "_queue", as_if_behind_another)


@pytest.mark.parametrize("rule", [None, _all_inline, _old_rule])
def test_where_a_signature_is_verified_changes_no_output(monkeypatch, rule):
    reference = mixed_simulation().run()
    if rule is not None:
        rule(monkeypatch)
    helper = crypto.helper()
    before = helper.verified
    result, deliveries, inline, by_helper, _ = _verifications(
        monkeypatch, mixed_simulation())
    assert inline + by_helper == deliveries
    if rule is _all_inline:
        assert helper.verified == before
    elif rule is _old_rule:
        assert inline == 0
    else:
        assert by_helper > 0
    assert export_trace(result.trace) == export_trace(reference.trace)
    assert result.ledger.to_bytes() == reference.ledger.to_bytes()
    assert result.summary == reference.summary


def _idle_helper(monkeypatch):
    """Every answer owed is read before ``top_up`` sends the next batch,
    which so finds the helper idle."""
    real = crypto.Helper.top_up

    def idle_first(self):
        while self._sent:
            self._collect()
        real(self)

    monkeypatch.setattr(crypto.Helper, "top_up", idle_first)


@pytest.mark.parametrize("rule", [None, _idle_helper])
def test_answers_owed_beyond_the_room_are_sent_in_chunks(monkeypatch, rule):
    reference = mixed_simulation().run()
    if rule is not None:
        rule(monkeypatch)
    # mixed.yaml's batches hold one or two hop checks.
    monkeypatch.setattr(crypto, "_ANSWER_ROOM", 1)
    # Per batch: the answers owed before it, those owed if it went in one
    # write, and those owed once it is sent.
    owed = []
    real = crypto.Helper._send

    def recorded(self, batch):
        before = len(self._sent)
        real(self, batch)
        owed.append((before, before + len(batch), len(self._sent)))

    monkeypatch.setattr(crypto.Helper, "_send", recorded)
    sim = mixed_simulation()
    result, deliveries, inline, by_helper, _ = _verifications(monkeypatch, sim)
    assert inline + by_helper == deliveries
    # Some hop batches alone are more than the helper may owe.  Under the
    # program's rule some batches also find answers owed before them; an
    # idle helper owes none before any.  Yet no batch leaves more than
    # that owed.
    assert any(asked - before > 1 for before, asked, _ in owed)
    if rule is _idle_helper:
        assert all(before == 0 for before, _, _ in owed)
    else:
        assert any(before > 0 for before, _, _ in owed)
    assert max(after for _, _, after in owed) <= 1
    assert export_trace(result.trace) == export_trace(reference.trace)
    assert result.ledger.to_bytes() == reference.ledger.to_bytes()
    assert result.summary == reference.summary


# Hop signatures verified inline and by the helper in a run of each
# committed scenario: the split depends on the queue alone.
SPLIT = {"tamper.yaml": (22, 10), "mixed.yaml": (5, 80)}
# Certificates verified in the same runs, each inline and once.
CERTIFICATES = {"tamper.yaml": 5, "mixed.yaml": 8}


@pytest.mark.parametrize("scenario", sorted(SPLIT))
def test_a_world_splits_its_verifications_the_same_each_run(
        monkeypatch, scenario):
    for _ in range(2):
        sim = _Placed(build_world(load_scenario(SCENARIOS / scenario)))
        with monkeypatch.context() as patch:
            _, deliveries, inline, by_helper, _ = _verifications(patch, sim)
        alone = sim.delivered_ahead.count(0)
        assert (inline, by_helper) == (alone, deliveries - alone)
        assert (inline, by_helper) == SPLIT[scenario]
        # _verifications checked each of them inline, once.
        assert len(sim.world.cb.directory) == CERTIFICATES[scenario]


def test_a_quiescent_run_takes_every_check_its_world_is_owed():
    result = mixed_simulation().run()
    assert result.quiescent and result.summary["txns_completed"] == 4
    assert result.world.cb.certs._owed == {}


# -- a one-purchase world ---------------------------------------------------

def test_a_one_purchase_world_verifies_every_hop_once_some_by_the_helper(
        monkeypatch):
    result, deliveries, inline, by_helper, queued = _verifications(
        monkeypatch, tamper_simulation())
    assert result.summary["tamper_reports"] == 1
    assert by_helper == queued > 0
    assert inline + by_helper == deliveries


def test_an_empty_plan_starts_no_helper(monkeypatch):
    started = []
    monkeypatch.setattr(crypto, "helper", lambda: started.append(1))
    data = basic_scenario()
    data["customers"][0]["purchases"] = []
    result = run_dict(data)
    assert result.summary["txns_attempted"] == 0 and result.trace == []
    assert started == []


class _FlippedCertificate(Simulation):
    """Runs with one bit of the signature of ``subject``'s directory
    certificate flipped."""

    def __init__(self, world, subject: str):
        cert = world.cb.directory[subject]
        flipped = bytearray(cert.signature)
        flipped[0] ^= 0x01
        world.cb.directory[subject] = dataclasses.replace(
            cert, signature=bytes(flipped))
        self.flipped = world.cb.directory[subject]
        super().__init__(world)


SUBJECTS = ["C0", "M0", "CB0", "MB0", "TTP0"]


@pytest.mark.parametrize("subject", SUBJECTS)
def test_a_flipped_directory_certificate_is_refused_as_inline(
        monkeypatch, subject):
    checked = []
    _counting(monkeypatch, crypto, "verify_certificate", checked)
    certs, _ = _queued(monkeypatch)
    offloaded = _FlippedCertificate(
        build_world(load_scenario(SCENARIOS / "tamper.yaml")), subject)
    result = offloaded.run()
    # Verified here, once, when first presented, and never by the helper.
    assert checked.count(offloaded.flipped) == 1
    assert certs == []
    assert any(v.startswith("BadSignature:") and f":{subject}->" in v
               for v in result.violations)

    _all_inline(monkeypatch)
    reference = _FlippedCertificate(
        build_world(load_scenario(SCENARIOS / "tamper.yaml")), subject)
    expected = reference.run()
    # Once in each world: the flipped certificates are equal values.
    assert checked.count(reference.flipped) == 2
    assert export_trace(result.trace) == export_trace(expected.trace)
    assert result.violations == expected.violations
    assert result.summary == expected.summary


@pytest.mark.parametrize("subject", SUBJECTS)
def test_a_refused_certificate_leaves_no_check_owed(subject):
    # A hop whose sender's certificate is refused still takes the check
    # owed to it.
    sim = _FlippedCertificate(
        build_world(load_scenario(SCENARIOS / "tamper.yaml")), subject)
    result = sim.run()
    assert result.quiescent
    assert result.world.cb.certs._owed == {}


def test_a_one_purchase_world_writes_the_same_artifacts_all_inline(
        monkeypatch, tmp_path):
    run_scenario_file(SCENARIOS / "tamper.yaml", out_dir=tmp_path / "split")
    _all_inline(monkeypatch)
    helper = crypto.helper()
    before = helper.verified
    run_scenario_file(SCENARIOS / "tamper.yaml", out_dir=tmp_path / "inline")
    assert helper.verified == before
    for name in ("trace.log", "summary.txt", "trust_table.txt",
                 "ledger.bin", "state.json"):
        assert (tmp_path / "split" / name).read_bytes() \
            == (tmp_path / "inline" / name).read_bytes(), name


def test_a_flipped_signature_is_refused_after_the_key_is_loaded(
        monkeypatch):
    world = build_world(ScenarioConfig.from_dict(basic_scenario()))
    customer, merchant = world.customers["C0"], world.entities["M0"]
    browse = m.sign_message(
        ProtocolMessage(K.BROWSE, customer.id, merchant.id,
                        TransactionId(customer.id, 1), m.Browse("widget", 1)),
        customer._key)
    assert merchant.step(browse, 0).violations == []
    key = merchant.certs.key(customer.certificate)
    assert key is not None
    flipped = bytearray(browse.signature)
    flipped[0] ^= 0x01
    forged = dataclasses.replace(browse, signature=bytes(flipped))
    verified = []
    _counting(monkeypatch, crypto, "verify", verified)
    assert merchant.step(forged, 1).violations \
        == ["BadSignature:Browse:C0->M0"]
    assert verified == [key]


def test_trace_is_monotone_and_well_formed():
    result = run_scenario()
    ticks = [r.tick for r in result.trace]
    assert ticks == sorted(ticks)
    text = export_trace(result.trace)
    lines = text.splitlines()
    assert lines[0] == TRACE_HEADER
    assert all(len(line.split("\t")) == 7 for line in lines[1:])


def test_summary_key_order_is_stable():
    result = run_scenario()
    assert list(result.summary) == [
        "seed", "ticks", "quiescent", "txns_attempted", "txns_completed",
        "txns_aborted", "txns_unresolved", "replay_refusals",
        "tamper_reports", "regenerations", "deadline_expiries",
        "protocol_violations", "invariant_failures",
        "initial_account_total", "final_account_total", "escrow_pool",
        "total_settled_minor_units"]
    rendered = render_summary(result.summary)
    assert rendered.startswith("seed: 7\n")
    assert "txns_completed: 1\n" in rendered


def _sample(name: str, *adversary) -> dict:
    data = yaml.safe_load((SCENARIOS / name).read_text())
    data["adversary"] = data.get("adversary", []) + list(adversary)
    return data


# The lost MB0->M0 Settlement lets the arbiter's deadline expire a purchase
# it already released.
_LOST_PAYOUT = {"action": "drop",
                "target": {"kind": "Settlement", "edge": ["MB0", "M0"]}}


@pytest.mark.parametrize("data", [
    _sample("happy_path.yaml"), _sample("mixed.yaml"),
    _sample("tamper.yaml"), _sample("happy_path.yaml", _LOST_PAYOUT)],
    ids=["happy_path", "mixed", "tamper", "lost_payout"])
def test_summary_counts_regenerations_and_expiries_as_the_ledger(data):
    result = run_dict(data)
    events = [e.event for e in result.ledger.entries]
    s = result.summary
    assert (s["regenerations"], s["deadline_expiries"]) \
        == (events.count("Regenerate"), events.count("DeadlineExpired"))


def _happy_with(customer=None, **params) -> dict:
    data = {**_sample("happy_path.yaml"), **params}
    data["customers"] = [{**data["customers"][0], **(customer or {})}]
    return data


# The lost CB0->C0 CompletionNotice leaves the customer awaiting it (fault
# c); a rejection every time leaves the customer awaiting goods (fault e).
@pytest.mark.parametrize("data, outcomes, expiries", [
    (_sample("happy_path.yaml"), (1, 0, 0), 0),
    (_sample("mixed.yaml"), (4, 0, 0), 0),
    (_sample("tamper.yaml"), (1, 0, 0), 0),
    (_sample("happy_path.yaml", {
        "action": "drop", "target": {"kind": "CompletionNotice",
                                     "edge": ["CB0", "C0"]}}), (0, 0, 1), 0),
    (_sample("happy_path.yaml", _LOST_PAYOUT), (1, 0, 0), 1),
    (_happy_with(customer={"reject_probability": 1.0}), (0, 0, 1), 0),
    (_happy_with(tick_limit=3), (0, 0, 1), 0)],
    ids=["happy_path", "mixed", "tamper", "lost_completion", "lost_payout",
         "always_rejected", "tick_limit_3"])
def test_summary_counts_each_purchase_in_one_outcome(data, outcomes,
                                                     expiries):
    result = run_dict(data)
    s = result.summary
    assert (s["txns_completed"], s["txns_aborted"],
            s["txns_unresolved"]) == outcomes
    assert s["deadline_expiries"] == expiries
    assert (s["txns_completed"] + s["txns_aborted"] + s["txns_unresolved"]
            == s["txns_attempted"])
    assert s["txns_unresolved"] == len(stranded(result.world))
    # A stranded purchase is counted, not reported as a broken invariant.
    assert s["invariant_failures"] == 0


def test_a_run_decodes_no_ledger_entry(monkeypatch):
    decoded = []
    _counting(monkeypatch, LedgerEntry, "from_bytes", decoded)
    result = Simulation(build_world(
        load_scenario(SCENARIOS / "tamper.yaml"))).run()
    assert result.summary["regenerations"] == 1
    assert decoded == []


# -- determinism --------------------------------------------------------------

def test_same_seed_reproduces_trace_and_ledger():
    first = run_scenario(seed=123)
    second = run_scenario(seed=123)
    assert export_trace(first.trace) == export_trace(second.trace)
    assert first.ledger.to_bytes() == second.ledger.to_bytes()
    assert first.summary == second.summary


def test_different_seed_changes_crypto_but_not_outcome():
    first = run_scenario(seed=1)
    second = run_scenario(seed=2)
    assert first.summary["txns_completed"] == 1
    assert second.summary["txns_completed"] == 1
    assert export_trace(first.trace) != export_trace(second.trace)


# -- tampering ------------------------------------------------------------------

def tamper_scenario(**adversary):
    base = {"action": "flip_bits", "trigger": 1,
            "target": {"kind": "EscrowDeposit"}}
    base.update(adversary)
    return run_scenario(adversary=[base])


def test_bit_flip_detected_and_regenerated():
    result = tamper_scenario()
    s = result.summary
    assert s["txns_completed"] == 1
    assert s["tamper_reports"] == 1
    assert s["regenerations"] == 1
    assert s["invariant_failures"] == 0
    events = [e.event for e in result.ledger.entries]
    assert "Tamper" in events and "Regenerate" in events
    assert events[-1] == "Settled"
    assert any(r.flag == "mutated" for r in result.trace)


def test_amount_rewrite_detected():
    result = run_scenario(adversary=[{
        "action": "replace_amount", "amount": 95000, "trigger": 1,
        "target": {"kind": "EscrowDeposit"}}])
    assert result.summary["txns_completed"] == 1
    assert result.summary["tamper_reports"] == 1
    assert result.summary["total_settled_minor_units"] == 15000
    assert result.world.mb.accounts == {"M0": 15000}


def test_mutation_on_each_sealed_edge_recovers():
    for kind in ("EscrowDeposit", "TokenIssued", "TokenRelease",
                 "PaymentRequest"):
        result = run_scenario(adversary=[{
            "action": "flip_bits", "bits": [300], "trigger": 1,
            "target": {"kind": kind}}])
        s = result.summary
        assert s["txns_completed"] == 1, kind
        assert s["tamper_reports"] >= 1, kind
        assert s["invariant_failures"] == 0, kind
        assert s["final_account_total"] == 100000, kind


def test_replay_refused_once_settled():
    result = run_scenario(adversary=[{
        "action": "replay_token", "trigger": 1,
        "target": {"kind": "PaymentRequest"}}])
    s = result.summary
    assert s["txns_completed"] == 1
    assert s["replay_refusals"] == 1
    assert s["total_settled_minor_units"] == 15000
    assert result.world.mb.accounts == {"M0": 15000}
    assert any(r.flag == "replayed" for r in result.trace)
    tamper_entries = [e for e in result.ledger.entries if e.event == "Tamper"]
    assert len(tamper_entries) == 1
    assert tamper_entries[0].details["reason"] == "replay"


def test_dropped_settlement_recovered_by_retry():
    result = run_scenario(adversary=[{
        "action": "drop", "trigger": 1,
        "target": {"kind": "Settlement", "edge": ["CB0", "MB0"]}}])
    s = result.summary
    assert s["txns_completed"] == 1
    assert s["replay_refusals"] == 1       # retry hits the settled token
    assert s["invariant_failures"] == 0
    assert result.world.mb.accounts == {"M0": 15000}
    assert any(r.flag == "dropped" for r in result.trace)
    # The first presentment and the retry that replaces the lost Settlement.
    assert [r.flag for r in result.trace if r.kind == "PaymentRequest"] \
        == ["ok", "ok"]


def test_delay_flag_appears_and_run_completes():
    result = run_scenario(adversary=[{
        "action": "delay", "delay": 7, "trigger": 1,
        "target": {"kind": "Offer"}}])
    assert result.summary["txns_completed"] == 1
    assert any(r.flag == "delayed" for r in result.trace)


def test_dropped_verdict_expires_at_deadline():
    result = run_scenario(deadline=40, adversary=[{
        "action": "drop", "trigger": 1,
        "target": {"kind": "AcceptGoods"}}])
    s = result.summary
    assert s["txns_completed"] == 0
    assert s["txns_aborted"] == 1
    assert s["deadline_expiries"] == 1
    assert s["final_account_total"] == 100000    # refund restored the hold
    assert s["escrow_pool"] == 0
    assert result.world.ttp.phases["C0-1"] is TP.EXPIRED
    assert result.ledger.entries[-1].event == "DeadlineExpired"


def test_regenerate_cap_exhaustion_aborts_with_refund():
    # each one-shot action catches one presentation; trigger 1 on all of
    # them means every successive PaymentRequest gets mangled
    actions = [{"action": "flip_bits", "trigger": 1,
                "target": {"kind": "PaymentRequest"}} for _ in range(10)]
    result = run_scenario(regenerate_cap=2, adversary=actions)
    s = result.summary
    assert s["txns_completed"] == 0
    assert result.world.ttp.phases["C0-1"] is TP.ABORTED
    # The arbiter's abort never reaches the merchant bank, which stays in
    # AwaitPayment (ROADMAP item 1, fault (b)), so the purchase is unresolved.
    assert result.world.mb.phases["C0-1"] is AP.AWAIT_PAYMENT
    assert (s["txns_aborted"], s["txns_unresolved"]) == (0, 1)
    assert s["regenerations"] == 2
    assert s["final_account_total"] == 100000
    assert s["escrow_pool"] == 0
    events = [e.event for e in result.ledger.entries]
    assert events.count("Regenerate") == 2
    # Abort may be trailed by Tamper noise from an in-flight retry hitting
    # the already-cancelled token; the refund above is what matters.
    assert "Abort" in events and "Settled" not in events


# -- trust gating ------------------------------------------------------------------

def test_low_grade_merchant_is_refused():
    result = run_scenario(
        customers=[{"balance": 100000,
                    "policy": {"min_grade": "B1"},
                    "purchases": [{"merchant": 0, "product": "widget",
                                   "quantity": 1}]}],
        merchants=[{"catalog": {"widget": 15000},
                    "history": {"total": 10, "rejected": 4}}])
    s = result.summary
    assert s["txns_completed"] == 0
    assert s["txns_aborted"] == 1
    assert s["total_settled_minor_units"] == 0
    assert result.world.customers["C0"].phases["C0-1"] is CP.ABORTED


def test_good_history_passes_the_gate():
    result = run_scenario(
        customers=[{"balance": 100000,
                    "policy": {"min_grade": "B1"},
                    "purchases": [{"merchant": 0, "product": "widget",
                                   "quantity": 1}]}],
        merchants=[{"catalog": {"widget": 15000},
                    "history": {"total": 100, "rejected": 10}}])
    assert result.summary["txns_completed"] == 1


def test_insufficient_funds_aborts_cleanly():
    result = run_scenario(
        customers=[{"balance": 1000,
                    "purchases": [{"merchant": 0, "product": "widget",
                                   "quantity": 1}]}])
    s = result.summary
    assert s["txns_completed"] == 0
    assert s["txns_aborted"] == 1
    assert s["deadline_expiries"] == 0     # closed promptly, not by timeout
    assert s["final_account_total"] == 1000
    assert s["escrow_pool"] == 0
    assert result.ledger.entries[-1].event == "Abort"


def test_rejection_loop_replaces_goods():
    result = run_scenario(
        customers=[{"balance": 100000, "reject_script": [True, False],
                    "purchases": [{"merchant": 0, "product": "widget",
                                   "quantity": 1}]}])
    s = result.summary
    assert s["txns_completed"] == 1
    record = result.trust["M0"]
    # one rejection verdict plus one acceptance of the replacement
    assert (record.total, record.rejected) == (2, 1)
    events = [e.event for e in result.ledger.entries]
    assert "Reject" in events and events[-1] == "Settled"


# -- limits -------------------------------------------------------------------------

def test_tick_limit_stops_the_run():
    result = run_scenario(tick_limit=5)
    s = result.summary
    assert not s["quiescent"]
    assert s["txns_completed"] == 0


# -- the event queue ------------------------------------------------------------------

def _happy_world():
    return build_world(ScenarioConfig.from_dict(basic_scenario()))


def _fixed_timer(monkeypatch, sim, name: str, due: int, fired: list) -> None:
    """Replace an entity's timers with one on C0-1, due at ``due`` until it
    fires; firing logs (name, tick, deliveries traced so far)."""
    entity = sim.world.entities[name]
    done = []

    def timer_due(key):
        return due if key == "C0-1" and not done else None

    def fire_timer(key, now):
        done.append(key)
        fired.append((name, now, len(sim.trace)))
        return StepResult()

    monkeypatch.setattr(entity, "timer_due", timer_due)
    monkeypatch.setattr(entity, "fire_timer", fire_timer)


def test_delivery_runs_before_a_timer_due_at_the_same_tick(monkeypatch):
    last = Simulation(_happy_world()).run().trace[-1].tick
    sim = Simulation(_happy_world())
    fired = []
    # Armed when the TrustLookup arrives, long before the last delivery is
    # queued, so only the tie rule puts the delivery first.
    _fixed_timer(monkeypatch, sim, "TTP0", last, fired)
    result = sim.run()
    assert result.summary["txns_completed"] == 1
    # It fired at that tick, after every delivery had been traced.
    assert fired == [("TTP0", last, len(result.trace))]
    assert result.trace[-1].tick == last


def test_timers_due_at_the_same_tick_fire_in_entity_name_order(
        monkeypatch):
    after = Simulation(_happy_world()).run().trace[-1].tick + 5
    sim = Simulation(_happy_world())
    fired = []
    # TTP0's timer is queued first (TrustLookup), MB0's last (TokenRelease).
    _fixed_timer(monkeypatch, sim, "TTP0", after, fired)
    _fixed_timer(monkeypatch, sim, "MB0", after, fired)
    result = sim.run()
    assert [(name, tick) for name, tick, _ in fired] == [("MB0", after),
                                                         ("TTP0", after)]
    assert result.summary["ticks"] == after


def test_stale_deadline_past_the_tick_limit_leaves_the_run_quiescent():
    free = run_scenario()
    end = free.summary["ticks"]
    release = next(e.tick for e in free.ledger.entries
                   if e.event == "Release")
    # The deadline armed at Release was cleared by Settled; its queue entry
    # is stale and lies beyond the limit.
    assert end + 1 < release + free.world.ttp.deadline_ticks
    limited = run_scenario(tick_limit=end + 1)
    s = limited.summary
    assert s["quiescent"]
    assert s["ticks"] == end
    assert s == free.summary
    assert export_trace(limited.trace) == export_trace(free.trace)


def test_refused_timer_is_dropped_not_queued_again(monkeypatch):
    sim = Simulation(_happy_world())
    ttp = sim.world.ttp
    step, fire_timer = ttp.step, ttp.fire_timer
    fired = []

    def rearm_after_settling(msg, now):
        result = step(msg, now)
        if ttp.phase_of(msg.txn) is TP.SETTLED:
            ttp.timers[str(msg.txn)] = now + 5
        return result

    def fire_at_most_twice(key, now):
        fired.append(now)
        if len(fired) > 2:
            raise RuntimeError("refused timer queued again")
        return fire_timer(key, now)

    monkeypatch.setattr(ttp, "step", rearm_after_settling)
    monkeypatch.setattr(ttp, "fire_timer", fire_at_most_twice)
    result = sim.run()
    end = result.trace[-1].tick
    assert fired == [end + 5]
    assert result.violations == ["ProtocolViolation:TTP0:SettledxTimer"]
    s = result.summary
    assert s["quiescent"] and s["ticks"] == end + 5
    assert s["txns_completed"] == 1 and s["deadline_expiries"] == 0


def test_multi_customer_staggered_plan():
    result = run_dict({
        "seed": 9, "stagger": 3,
        "customers": [
            {"balance": 50000, "purchases": [
                {"merchant": 0, "product": "widget", "quantity": 1}]},
            {"balance": 50000, "purchases": [
                {"merchant": 0, "product": "widget", "quantity": 2}]},
        ],
        "merchants": [{"catalog": {"widget": 10000}}]})
    s = result.summary
    assert s["txns_attempted"] == 2
    assert s["txns_completed"] == 2
    assert s["total_settled_minor_units"] == 30000
    assert result.world.mb.accounts == {"M0": 30000}
    assert result.summary["final_account_total"] == 100000


# -- adversary action plumbing -----------------------------------------------------

def test_action_validation():
    with pytest.raises(ValueError):
        AdversaryAction(ActionKind.FLIP_BITS, trigger=0)
    with pytest.raises(ValueError):
        AdversaryAction(ActionKind.REPLACE_AMOUNT)
    with pytest.raises(ValueError):
        AdversaryAction(ActionKind.DELAY, delay=0)


def test_action_is_one_shot():
    result = run_scenario(adversary=[{
        "action": "flip_bits", "trigger": 1,
        "target": {"kind": "EscrowDeposit"}}])
    # the regenerated deposit went through untouched
    deposits = [r for r in result.trace if r.kind == "EscrowDeposit"]
    assert [r.flag for r in deposits] == ["mutated", "ok"]
    assert [r.flag for r in result.trace].count("mutated") == 1


def test_trigger_counts_matching_messages():
    result = run_scenario(adversary=[{
        "action": "flip_bits", "trigger": 2,
        "target": {"kind": "EscrowDeposit"}}])
    # only one EscrowDeposit in a clean run, so nothing ever fires
    assert {r.flag for r in result.trace} == {"ok"}
    assert result.summary["tamper_reports"] == 0
    assert result.summary["txns_completed"] == 1


def test_edge_and_txn_filters():
    token_edges = {"EscrowDeposit", "TokenIssued", "TokenRelease",
                   "PaymentRequest"}
    result = run_scenario(adversary=[{
        "action": "drop", "trigger": 1, "target": {"txn": "C0-9"}}])
    # no such transaction, so nothing is dropped
    assert {r.flag for r in result.trace} == {"ok"}
    result = run_scenario(adversary=[{
        "action": "flip_bits", "trigger": 1,
        "target": {"edge": ["CB0", "C0"]}}])
    mutated = [r for r in result.trace if r.flag == "mutated"]
    assert len(mutated) == 1
    assert mutated[0].kind in token_edges
    assert (mutated[0].sender, mutated[0].receiver) == ("CB0", "C0")


def test_edge_filter_matches_only_its_directed_edge():
    result = run_scenario(adversary=[{
        "action": "delay", "trigger": 1, "delay": 7,
        "target": {"edge": ["C0", "TTP0"]}}])
    flags = {r.kind: r.flag for r in result.trace}
    # The Browse goes first but on C0->M0, so the first C0->TTP0 message,
    # the TrustLookup, is the one delayed.
    assert flags["Browse"] == "ok"
    assert flags["TrustLookup"] == "delayed"
    assert [r.flag for r in result.trace].count("delayed") == 1
    assert result.summary["txns_completed"] == 1


def test_build_world_keeps_actions_isolated():
    data = basic_scenario(adversary=[{
        "action": "flip_bits", "trigger": 1,
        "target": {"kind": "EscrowDeposit"}}])
    config = ScenarioConfig.from_dict(data)
    first = Simulation(build_world(config)).run()
    second = Simulation(build_world(config)).run()
    # The script is shared, not spent: the second world fires it again.
    assert first.world.adversary[0] is config.adversary[0]
    assert second.world.adversary[0] is config.adversary[0]
    for result in (first, second):
        assert [r.flag for r in result.trace].count("mutated") == 1
    assert export_trace(first.trace) == export_trace(second.trace)


class _LinearMatching(Simulation):
    """The reference matcher: one pass over every unfired action, in
    script order, with no index."""

    def __init__(self, world):
        super().__init__(world)
        self._script = [[a, a.trigger] for a in world.adversary]

    def _fired_by(self, msg):
        for i, armed in enumerate(self._script):
            if armed[0].wants(msg):
                armed[1] -= 1
                if not armed[1]:
                    del self._script[i]
                    return armed[0]
        return None


def _two_customer_world(merchants: int, purchases: int, script: list):
    world = build_world(ScenarioConfig.from_dict({
        "seed": 5, "stagger": 2,
        "customers": [
            {"balance": 200000, "purchases": [
                {"merchant": (c + p) % merchants, "product": "widget",
                 "quantity": 1} for p in range(purchases)]}
            for c in range(2)],
        "merchants": [{"catalog": {"widget": 15000}}] * merchants}))
    world.adversary = script
    return world


def _same_run(merchants: int, purchases: int, script: list):
    indexed = Simulation(_two_customer_world(merchants, purchases, script))
    linear = _LinearMatching(_two_customer_world(merchants, purchases,
                                                 script))
    first, reference = indexed.run(), linear.run()
    assert export_trace(first.trace) == export_trace(reference.trace)
    assert first.summary == reference.summary
    return first


@functools.cache
def _clean_trace(merchants: int, purchases: int) -> list:
    return _same_run(merchants, purchases, []).trace


@st.composite
def _scripts(draw, records: list) -> list:
    """Actions aimed at messages of the clean run: each takes the kind,
    edge and txn of one traced message, or leaves any of them open."""
    script = []
    for _ in range(draw(st.integers(0, 8))):
        r = draw(st.sampled_from(records))
        script.append(AdversaryAction(
            kind=draw(st.sampled_from(ActionKind)),
            target_kind=draw(st.sampled_from([None, K(r.kind)])),
            target_edge=draw(st.sampled_from([None, (r.sender,
                                                     r.receiver)])),
            target_txn=draw(st.sampled_from([None, r.txn])),
            trigger=draw(st.integers(1, 4)),
            bit_offsets=(draw(st.integers(0, 2527)),),
            amount=draw(st.integers(1, 200000)),
            delay=draw(st.integers(1, 9))))
    return script


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(merchants=st.integers(1, 2), purchases=st.integers(1, 2),
       data=st.data())
def test_indexed_matching_equals_the_linear_reference(merchants, purchases,
                                                      data):
    script = data.draw(_scripts(_clean_trace(merchants, purchases)))
    _same_run(merchants, purchases, script)


def test_an_earlier_untargeted_action_wins_and_keeps_the_message():
    script = [AdversaryAction(ActionKind.DELAY, target_edge=("C0", "M0")),
              AdversaryAction(ActionKind.DROP, target_kind=K.BROWSE,
                              trigger=2)]
    result = _same_run(1, 2, script)
    flags = [(r.sender, r.flag) for r in result.trace if r.kind == "Browse"]
    # Sent by C0, C1, C0, C1.  C0's first Browse fires the delay and does
    # not count toward the drop, so the drop fires on the third Browse
    # sent.  The trace lists each at its delivery (or drop) tick.
    assert flags == [("C1", "ok"), ("C0", "dropped"), ("C1", "ok"),
                     ("C0", "delayed")]


# -- invariant monitor failure paths ------------------------------------------------

def _message(kind, sender: str, receiver: str, payload) -> ProtocolMessage:
    """An unsigned message of txn C0-1; the monitor reads, never verifies."""
    return ProtocolMessage(kind, EntityId.parse(sender),
                           EntityId.parse(receiver),
                           TransactionId.parse("C0-1"), payload)


def _confirm_to(world, receiver: str) -> ProtocolMessage:
    order = m.OrderInfo("ORD-M0-1", "widget", 1, 15000, 15000,
                        EntityId.parse("M0"))
    return _message(K.PURCHASE_CONFIRM, "C0", receiver,
                    m.PurchaseConfirm(order,
                                      world.customers["C0"].certificate))


def test_monitor_reports_funds_that_vanish():
    world = _happy_world()
    monitor = InvariantMonitor(world)
    msg = _message(K.BROWSE, "C0", "M0", m.Browse("widget", 1))
    world.cb.accounts["C0"] -= 500      # into escrow: still conserved
    world.cb.escrow_pool += 500
    monitor.after_delivery(msg, 3)
    assert monitor.failures == []
    world.cb.escrow_pool -= 500         # gone
    monitor.after_delivery(msg, 4)
    assert monitor.failures == [
        "FundsConservation:tick=4:total=99500:expected=100000"]


def test_monitor_reports_a_second_settlement_for_value():
    monitor = InvariantMonitor(_happy_world())
    monitor.on_send(_message(K.SETTLEMENT, "CB0", "MB0",
                             m.Settlement(15000)), 10)
    monitor.on_send(_message(K.SETTLEMENT, "CB0", "MB0",
                             m.Settlement(15000, duplicate=True)), 11)
    assert monitor.failures == []
    monitor.on_send(_message(K.SETTLEMENT, "CB0", "MB0",
                             m.Settlement(15000)), 12)
    assert monitor.failures == ["DoubleSettlement:C0-1:tick=12"]


def test_monitor_reports_a_forbidden_key_at_commerce(monkeypatch):
    # No payload type carries a forbidden commerce key, so plant one.
    world = _happy_world()
    monitor = InvariantMonitor(world)
    monitor.check_privacy(_confirm_to(world, "M0"), 5)
    assert monitor.failures == []
    monkeypatch.setattr(simnet, "_FORBIDDEN_AT_COMMERCE",
                        frozenset({"order_number", "customer_cert"}))
    monitor.check_privacy(_confirm_to(world, "M0"), 5)
    assert monitor.failures == [
        "PrivacyLeak:PurchaseConfirm->M0:customer_cert,order_number"]


def test_monitor_reports_order_contents_at_the_issuer():
    world = _happy_world()
    monitor = InvariantMonitor(world)
    monitor.check_privacy(_confirm_to(world, "CB0"), 5)
    assert monitor.failures == [
        "OrderLeak:PurchaseConfirm->CB0:order_number,product,quantity"]


def _abort_to_merchant(reason: str) -> ProtocolMessage:
    return _message(K.ABORT_NOTICE, "C0", "M0", m.AbortNotice(reason))


def test_monitor_scans_for_account_numbers_that_share_no_prefix():
    world = _happy_world()
    world.cb.account_numbers = {"C0": "7731-0042", "C1": "QX-9"}
    monitor = InvariantMonitor(world)
    monitor.check_privacy(_abort_to_merchant("refund 7731-0041"), 5)
    assert monitor.failures == []
    monitor.check_privacy(_abort_to_merchant("refund to QX-9 please"), 5)
    assert monitor.failures == ["SecretLeak:AbortNotice->M0"]


def test_monitor_finds_an_account_number_mid_string():
    world = _two_customer_world(1, 1, [])
    monitor = InvariantMonitor(world)
    account = world.cb.account_numbers["C1"]
    monitor.check_privacy(_abort_to_merchant(f"ref{account}x"), 5)
    assert monitor.failures == ["SecretLeak:AbortNotice->M0"]


def test_monitor_finds_a_bank_secret_without_any_account_text():
    world = _happy_world()
    monitor = InvariantMonitor(world)
    for secret in (world.cb.keys.symmetric_key, world.cb.keys.box_secret):
        msg = _abort_to_merchant(f"key {secret.hex()}")
        assert b"ACCT-" not in msg.wire
        monitor.check_privacy(msg, 5)
    assert monitor.failures == ["SecretLeak:AbortNotice->M0"] * 2


def test_monitor_reports_an_account_number_on_the_wire():
    world = _happy_world()
    monitor = InvariantMonitor(world)
    account = world.cb.account_numbers["C0"]
    monitor.check_privacy(_message(K.ABORT_NOTICE, "C0", "M0",
                                   m.AbortNotice("changed my mind")), 5)
    assert monitor.failures == []
    monitor.check_privacy(_message(K.ABORT_NOTICE, "C0", "M0",
                                   m.AbortNotice(f"refund {account}")), 5)
    assert monitor.failures == ["SecretLeak:AbortNotice->M0"]


# -- conservation under stress -----------------------------------------------------

def test_conservation_across_mixed_adversaries():
    data = {
        "seed": 31, "stagger": 5,
        "customers": [
            {"balance": 80000, "purchases": [
                {"merchant": 0, "product": "widget", "quantity": 1},
                {"merchant": 1, "product": "gadget", "quantity": 1}]},
            {"balance": 80000, "reject_script": [True],
             "purchases": [
                 {"merchant": 1, "product": "gadget", "quantity": 2}]},
        ],
        "merchants": [
            {"catalog": {"widget": 12000}},
            {"catalog": {"gadget": 9000}},
        ],
        "adversary": [
            {"action": "flip_bits", "trigger": 1,
             "target": {"kind": "TokenRelease"}},
            {"action": "replay_token", "trigger": 2,
             "target": {"kind": "PaymentRequest"}},
            {"action": "drop", "trigger": 3,
             "target": {"kind": "Settlement"}},
        ],
    }
    result = run_dict(data)
    s = result.summary
    assert s["invariant_failures"] == 0
    assert s["txns_attempted"] == 3
    assert s["txns_completed"] + s["txns_aborted"] == 3
    assert s["final_account_total"] + s["escrow_pool"] == 160000
    # credits at the acquirer equal what the issuer paid out
    assert sum(result.world.mb.accounts.values()) \
        == s["total_settled_minor_units"] \
        - (s["total_settled_minor_units"]
           - result.world.mb.credited_in_total)
    assert result.world.mb.credited_in_total \
        <= result.world.cb.settled_out_total


def test_ledger_export_is_loadable():
    result = run_scenario()
    blob = result.ledger.to_bytes()
    loaded = Ledger.from_bytes(blob)
    assert [e.event for e in loaded.entries] == HAPPY_LEDGER
    assert loaded.head == result.ledger.head
