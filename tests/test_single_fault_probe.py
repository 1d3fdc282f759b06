"""The single-fault probe: the clean one-purchase world of
``scenarios/happy_path.yaml``, rerun once per delivery with that one
message dropped, and once with a customer who rejects every dispatch.

Each row pins what the run leaves behind today: the (party, phase) pairs
still in a non-terminal phase, ``txns_completed`` and the arbiter's final
phase for C0-1.  The fault column names the liveness fault that explains a
row (ROADMAP item 1):

- (a) no deadline covers the phases before the arbiter sees the purchase;
- (c) a lost customer CompletionNotice leaves the customer waiting;
- (d) the arbiter expires a purchase it already released;
- (e) rejections re-arm the arbiter's deadline without end.

A change that mends a fault changes the rows it mends, here, in the same
change.
"""

from pathlib import Path

import pytest
import yaml

from tset.entities import TERMINAL

from conftest import run_dict

HAPPY_PATH = (Path(__file__).resolve().parents[1] / "scenarios"
              / "happy_path.yaml")

# (kind, [sender, receiver], trigger): the deliveries of the clean run in
# order, each the trigger-th message of its kind on its edge;
# then (stranded pairs, txns_completed, arbiter phase, fault).
PROBE = [
    (("Browse", ["C0", "M0"], 1),
     ([("C0", "AwaitOffer")], 0, "New", "a")),
    (("Offer", ["M0", "C0"], 1),
     ([("C0", "AwaitOffer"), ("M0", "AwaitConfirm")], 0, "New", "a")),
    (("TrustLookup", ["C0", "TTP0"], 1),
     ([("C0", "AwaitTrust"), ("M0", "AwaitConfirm")], 0, "New", "a")),
    (("TrustReply", ["TTP0", "C0"], 1), ([], 0, "Expired", None)),
    (("TokenRequest", ["C0", "CB0"], 1), ([], 0, "Expired", None)),
    (("TokenIssued", ["CB0", "C0"], 1), ([], 0, "Expired", None)),
    (("PurchaseConfirm", ["C0", "M0"], 1), ([], 0, "Expired", None)),
    (("EscrowDeposit", ["C0", "TTP0"], 1), ([], 0, "Expired", None)),
    (("TempPaymentQuery", ["M0", "TTP0"], 1), ([], 0, "Expired", None)),
    (("TempPaymentAck", ["TTP0", "M0"], 1), ([], 0, "Expired", None)),
    (("GoodsDispatch", ["M0", "C0"], 1), ([], 0, "Expired", None)),
    (("GoodsDispatch", ["M0", "TTP0"], 1), ([], 0, "Expired", None)),
    (("AcceptGoods", ["C0", "TTP0"], 1), ([], 0, "Expired", None)),
    (("TokenRelease", ["TTP0", "MB0"], 1), ([], 0, "Expired", None)),
    (("PaymentRequest", ["MB0", "CB0"], 1), ([], 1, "Settled", None)),
    (("Settlement", ["CB0", "MB0"], 1), ([], 1, "Settled", None)),
    (("CompletionNotice", ["CB0", "C0"], 1),
     ([("C0", "AwaitCompletion")], 0, "Settled", "c")),
    (("Settlement", ["MB0", "M0"], 1), ([], 1, "Expired", "d")),
    (("CompletionNotice", ["M0", "TTP0"], 1), ([], 1, "Expired", "d")),
]

# The always-reject world: the arbiter's deadline re-arms on every
# replacement, so the run goes on to the tick limit.
ALWAYS_REJECT = ([("C0", "AwaitGoods"), ("CB0", "Issued"),
                  ("M0", "AwaitCapture"), ("TTP0", "Dispatched")],
                 0, "Dispatched", "e")


def happy_path() -> dict:
    return yaml.safe_load(HAPPY_PATH.read_text())


def outcome(result) -> tuple:
    world = result.world
    stranded = sorted((name, phase.value)
                      for name, entity in world.entities.items()
                      for phase in entity.phases.values()
                      if phase not in TERMINAL[entity.role])
    return (stranded, result.summary["txns_completed"],
            world.ttp.phase_of("C0-1").value)


def test_probe_drops_each_delivery_of_the_clean_run_once():
    seen = {}
    deliveries = []
    for record in run_dict(happy_path()).trace:
        key = (record.kind, record.sender, record.receiver)
        seen[key] = seen.get(key, 0) + 1
        deliveries.append((record.kind, [record.sender, record.receiver],
                           seen[key]))
    assert deliveries == [target for target, _ in PROBE]


@pytest.mark.parametrize(
    "target, expected", PROBE,
    ids=[f"{n}-{kind}-{'-'.join(edge)}"
         for n, ((kind, edge, _), _) in enumerate(PROBE, 1)])
def test_single_drop(target, expected):
    kind, edge, trigger = target
    data = dict(happy_path(), adversary=[
        {"action": "drop", "target": {"kind": kind, "edge": edge},
         "trigger": trigger}])
    assert outcome(run_dict(data)) == expected[:3]


def test_always_reject():
    data = happy_path()
    data["customers"] = [dict(data["customers"][0], reject_probability=1.0)]
    assert outcome(run_dict(data)) == ALWAYS_REJECT[:3]
