"""Scenario parsing: strict validation, defaults, and world wiring."""

import pytest

from tset.entities import AcceptancePolicy
from tset.messages import MsgKind
from tset.scenario import (
    ScenarioConfig,
    ScenarioError,
    build_world,
    load_scenario,
)
from tset.simnet import ActionKind
from tset.trust import Grade

from conftest import basic_scenario


def parse(**overrides) -> ScenarioConfig:
    return ScenarioConfig.from_dict(basic_scenario(**overrides))


def rejects(match: str, **overrides):
    with pytest.raises(ScenarioError, match=match):
        parse(**overrides)


# -- defaults and happy parsing ------------------------------------------------

def test_defaults_fill_in():
    config = parse()
    assert config.seed == 7
    assert config.latency == 1
    assert config.stagger == 3
    assert config.adversary == []
    customer = config.customers[0]
    assert customer.policy == AcceptancePolicy()
    assert customer.reject_script == []
    assert customer.reject_probability == 0.0
    purchase = customer.purchases[0]
    assert (purchase.merchant, purchase.product, purchase.quantity,
            purchase.start) == (0, "widget", 1, None)


def test_full_document_parses():
    config = parse(
        seed=99, latency=2, tick_limit=500, deadline=80, regenerate_cap=5,
        settle_retry_ticks=10, settle_retry_cap=2, stagger=7,
        customers=[{
            "balance": 50000,
            "policy": {"min_grade": "B1", "accept_unrated": True},
            "reject_script": [True, False],
            "reject_probability": 0.25,
            "purchases": [{"merchant": 0, "product": "widget",
                           "quantity": 2, "start": 12}],
        }],
        merchants=[{"catalog": {"widget": 15000},
                    "history": {"total": 40, "rejected": 3}}],
        adversary=[{"action": "flip_bits", "bits": [5, 17], "trigger": 2,
                    "target": {"kind": "EscrowDeposit",
                               "edge": ["C0", "TTP0"], "txn": "C0-1"}}])
    assert config.deadline == 80
    customer = config.customers[0]
    assert customer.policy == AcceptancePolicy(Grade.B1, True)
    assert customer.purchases[0].start == 12
    assert config.merchants[0].history == (40, 3)
    action = config.adversary[0]
    assert action.kind is ActionKind.FLIP_BITS
    assert action.bit_offsets == (5, 17)
    assert action.trigger == 2
    assert action.target_kind is MsgKind.ESCROW_DEPOSIT
    assert action.target_edge == ("C0", "TTP0")
    assert action.target_txn == "C0-1"


# -- rejection paths, each naming the offending field ---------------------------

def test_top_level_must_be_mapping():
    with pytest.raises(ScenarioError, match="top level"):
        ScenarioConfig.from_dict(["not", "a", "mapping"])


def test_unknown_top_level_key():
    rejects(r"scenario\.colour: unknown field", colour="red")


def test_bad_scalar_types():
    rejects(r"scenario\.seed: must be an integer", seed="seven")
    rejects(r"scenario\.latency: must be at least 1", latency=0)
    rejects(r"scenario\.tick_limit: must be an integer", tick_limit=2.5)
    rejects(r"scenario\.stagger: must be at least 1", stagger=0)


def test_customers_required_nonempty():
    rejects("customers: must be a non-empty list", customers=[])
    rejects("customers: must be a non-empty list", customers="alice")


def test_customer_field_validation():
    rejects(r"customers\[0\]\.balance: required",
            customers=[{"purchases": []}])
    rejects(r"customers\[0\]\.balance: must be at least 0",
            customers=[{"balance": -1, "purchases": []}])
    rejects(r"customers\[0\]\.mood: unknown field",
            customers=[{"balance": 1, "purchases": [], "mood": "happy"}])
    rejects(r"customers\[0\]\.reject_script: must be a list of booleans",
            customers=[{"balance": 1, "purchases": [],
                        "reject_script": [1, 0]}])
    rejects(r"customers\[0\]\.reject_probability: must be in \[0, 1\]",
            customers=[{"balance": 1, "purchases": [],
                        "reject_probability": 1.5}])


def test_policy_validation():
    rejects(r"customers\[0\]\.policy\.min_grade: must be one of",
            customers=[{"balance": 1, "purchases": [],
                        "policy": {"min_grade": "Z9"}}])
    rejects(r"customers\[0\]\.policy\.reject_rate: unknown field",
            customers=[{"balance": 1, "purchases": [],
                        "policy": {"reject_rate": 1.0}}])
    rejects(r"customers\[0\]\.policy\.accept_unrated: must be a boolean",
            customers=[{"balance": 1, "purchases": [],
                        "policy": {"accept_unrated": "yes"}}])


def test_purchase_validation():
    rejects(r"customers\[0\]\.purchases\[0\]\.merchant: no merchant with "
            r"index 3",
            customers=[{"balance": 1,
                        "purchases": [{"merchant": 3, "product": "widget"}]}])
    rejects(r"customers\[0\]\.purchases\[0\]\.product: merchant 0 does not "
            r"sell 'anvil'",
            customers=[{"balance": 1,
                        "purchases": [{"merchant": 0, "product": "anvil"}]}])
    rejects(r"customers\[0\]\.purchases\[0\]\.quantity: must be at least 1",
            customers=[{"balance": 1,
                        "purchases": [{"merchant": 0, "product": "widget",
                                       "quantity": 0}]}])
    rejects(r"customers\[0\]\.purchases\[0\]\.colour: unknown field",
            customers=[{"balance": 1,
                        "purchases": [{"merchant": 0, "product": "widget",
                                       "colour": "red"}]}])


def test_merchant_validation():
    rejects("merchants: must be a non-empty list", merchants=[])
    rejects(r"merchants\[0\]\.catalog: must be a non-empty mapping",
            merchants=[{"catalog": {}}],
            customers=[{"balance": 1, "purchases": []}])
    rejects(r"merchants\[0\]\.catalog\.widget: price must be a positive",
            merchants=[{"catalog": {"widget": 0}}],
            customers=[{"balance": 1, "purchases": []}])
    rejects(r"merchants\[0\]\.history\.rejected: cannot exceed total",
            merchants=[{"catalog": {"widget": 1},
                        "history": {"total": 2, "rejected": 3}}],
            customers=[{"balance": 1, "purchases": []}])
    rejects(r"merchants\[0\]\.history\.lost: unknown field",
            merchants=[{"catalog": {"widget": 1},
                        "history": {"total": 2, "rejected": 1, "lost": 0}}],
            customers=[{"balance": 1, "purchases": []}])


def test_adversary_validation():
    rejects(r"adversary\[0\]\.action: unknown action 'steal'",
            adversary=[{"action": "steal"}])
    rejects(r"adversary\[0\]\.amount: required",
            adversary=[{"action": "replace_amount"}])
    rejects(r"adversary\[0\]\.bits: must be a list of bit offsets",
            adversary=[{"action": "flip_bits", "bits": "many"}])
    rejects(r"adversary\[0\]\.target\.kind: unknown message kind 'Gossip'",
            adversary=[{"action": "drop", "target": {"kind": "Gossip"}}])
    rejects(r"adversary\[0\]\.target\.edge: no such entity 'C9'",
            adversary=[{"action": "drop",
                        "target": {"edge": ["C9", "TTP0"]}}])
    rejects(r"adversary\[0\]\.target\.edge: must be \[sender, receiver\]",
            adversary=[{"action": "drop", "target": {"edge": ["C0"]}}])
    rejects(r"adversary\[0\]\.trigger: must be at least 1",
            adversary=[{"action": "drop", "trigger": 0}])
    # option belonging to a different action is refused
    rejects(r"adversary\[0\]\.amount: unknown field",
            adversary=[{"action": "drop", "amount": 5}])
    rejects(r"adversary\[0\]\.delay: unknown field",
            adversary=[{"action": "flip_bits", "delay": 5}])


# -- file loading ----------------------------------------------------------------

def test_load_scenario_roundtrip(tmp_path):
    path = tmp_path / "s.yaml"
    path.write_text(
        "seed: 3\n"
        "customers:\n"
        "  - balance: 20000\n"
        "    purchases:\n"
        "      - {merchant: 0, product: widget}\n"
        "merchants:\n"
        "  - catalog: {widget: 500}\n")
    config = load_scenario(path)
    assert config.seed == 3
    assert config.customers[0].purchases[0].product == "widget"


def test_load_scenario_missing_file(tmp_path):
    with pytest.raises(ScenarioError, match="cannot read scenario file"):
        load_scenario(tmp_path / "absent.yaml")


def test_load_scenario_bad_yaml(tmp_path):
    path = tmp_path / "s.yaml"
    path.write_text("customers: [unclosed\n")
    with pytest.raises(ScenarioError, match="not valid YAML"):
        load_scenario(path)


def test_load_scenario_not_utf8(tmp_path):
    path = tmp_path / "s.yaml"
    path.write_bytes(b"seed: 1\n\xff\n")
    with pytest.raises(ScenarioError, match="not valid UTF-8"):
        load_scenario(path)


def test_bundled_scenarios_parse():
    import pathlib
    root = pathlib.Path(__file__).resolve().parents[1] / "scenarios"
    names = sorted(p.name for p in root.glob("*.yaml"))
    assert names == ["happy_path.yaml", "mixed.yaml", "tamper.yaml"]
    for p in root.glob("*.yaml"):
        load_scenario(p)


# -- world construction --------------------------------------------------------

def test_build_world_entities_and_plan():
    config = ScenarioConfig.from_dict({
        "seed": 5, "stagger": 4,
        "customers": [
            {"balance": 10000, "purchases": [
                {"merchant": 0, "product": "widget", "quantity": 1},
                {"merchant": 0, "product": "widget", "quantity": 2}]},
            {"balance": 9000, "purchases": [
                {"merchant": 0, "product": "widget", "quantity": 1,
                 "start": 1}]},
        ],
        "merchants": [{"catalog": {"widget": 100}}]})
    world = build_world(config)
    assert set(world.entities) == {"C0", "C1", "M0", "CB0", "MB0", "TTP0"}
    assert world.cb.accounts == {"C0": 10000, "C1": 9000}
    # plan: explicit start wins; otherwise j*stagger per customer
    assert [(t, c) for t, c, _ in world.plan] \
        == [(0, "C0"), (1, "C1"), (4, "C0")]


def test_build_world_account_numbers_and_history():
    config = ScenarioConfig.from_dict(basic_scenario(
        merchants=[{"catalog": {"widget": 15000},
                    "history": {"total": 12, "rejected": 2}}]))
    world = build_world(config)
    acct = world.cb.account_numbers["C0"]
    assert acct.startswith("ACCT-") and len(acct) == 21
    record = world.ttp.trust["M0"]
    assert (record.total, record.rejected) == (12, 2)


def test_build_world_empty_history_stays_unrated():
    config = ScenarioConfig.from_dict(basic_scenario(
        merchants=[{"catalog": {"widget": 15000},
                    "history": {"total": 0, "rejected": 0}}]))
    world = build_world(config)
    assert "M0" not in world.ttp.trust


def test_keys_are_distinct_and_deterministic():
    config = ScenarioConfig.from_dict(basic_scenario())
    one = build_world(config)
    two = build_world(config)
    assert one.cb.certs.root_public == two.cb.certs.root_public
    pubs = {name: ent.certificate.public_key
            for name, ent in one.entities.items()}
    assert len(set(pubs.values())) == len(pubs)
    assert {n: e.certificate.public_key for n, e in two.entities.items()} \
        == pubs


# -- run parameters: documented default and minimum ----------------------------

# Each top-level run parameter's documented default and least accepted value
# (None: any integer).  Written out here, not read from the schema, so that
# a changed default or minimum fails a test.
RUN_PARAMETERS = {
    "seed": (0, None),
    "latency": (1, 1),
    "tick_limit": (10_000, 1),
    "deadline": (100, 1),
    "regenerate_cap": (3, 0),
    "settle_retry_ticks": (25, 1),
    "settle_retry_cap": (5, 0),
    "stagger": (3, 1),
}


@pytest.mark.parametrize("name", RUN_PARAMETERS)
def test_run_parameter_absent_means_its_default(name):
    data = basic_scenario()
    data.pop(name, None)
    assert getattr(ScenarioConfig.from_dict(data), name) \
        == RUN_PARAMETERS[name][0]


@pytest.mark.parametrize("name", RUN_PARAMETERS)
def test_run_parameter_minimum_is_accepted(name):
    minimum = RUN_PARAMETERS[name][1]
    value = -(2 ** 70) if minimum is None else minimum
    assert getattr(parse(**{name: value}), name) == value


@pytest.mark.parametrize(
    "name", [n for n, (_, least) in RUN_PARAMETERS.items()
             if least is not None])
def test_run_parameter_below_its_minimum_is_refused(name):
    minimum = RUN_PARAMETERS[name][1]
    rejects(rf"^scenario\.{name}: must be at least {minimum}$",
            **{name: minimum - 1})


def test_built_world_carries_each_run_parameter():
    config = parse(seed=11, latency=2, tick_limit=700, deadline=40,
                   regenerate_cap=1, settle_retry_ticks=9,
                   settle_retry_cap=4, stagger=6,
                   customers=[{"balance": 100000, "purchases": [
                       {"merchant": 0, "product": "widget"},
                       {"merchant": 0, "product": "widget"},
                       {"merchant": 0, "product": "widget"}]}])
    world = build_world(config)
    assert (world.seed, world.latency, world.tick_limit) == (11, 2, 700)
    assert (world.ttp.deadline_ticks, world.ttp.regenerate_cap) == (40, 1)
    assert (world.mb.retry_ticks, world.mb.retry_cap) == (9, 4)
    assert [tick for tick, _, _ in world.plan] == [0, 6, 12]


def test_built_world_carries_each_default():
    data = basic_scenario()
    data.pop("seed")
    customer = data["customers"][0]
    customer["purchases"] = customer["purchases"] * 2
    world = build_world(ScenarioConfig.from_dict(data))
    defaults = {name: default
                for name, (default, _) in RUN_PARAMETERS.items()}
    assert (world.seed, world.latency, world.tick_limit) \
        == (defaults["seed"], defaults["latency"], defaults["tick_limit"])
    assert (world.ttp.deadline_ticks, world.ttp.regenerate_cap) \
        == (defaults["deadline"], defaults["regenerate_cap"])
    assert (world.mb.retry_ticks, world.mb.retry_cap) \
        == (defaults["settle_retry_ticks"], defaults["settle_retry_cap"])
    assert [tick for tick, _, _ in world.plan] == [0, defaults["stagger"]]


# -- adversary targets -----------------------------------------------------------

@pytest.mark.parametrize("txn, problem", [
    ("c0-1", "must be a string like C0-1"),
    ("C0-01", "must be a string like C0-1"),
    ("C0-0", "must be a string like C0-1"),
    ("C0", "must be a string like C0-1"),
    (5, "must be a string like C0-1"),
    ("C7-1", "no such customer 'C7'"),
    ("M0-1", "no such customer 'M0'"),
])
def test_target_txn_must_name_a_transaction_that_can_exist(txn, problem):
    rejects(rf"^adversary\[0\]\.target\.txn: {problem}$",
            adversary=[{"action": "drop", "target": {"txn": txn}}])


def test_target_txn_of_a_later_purchase_is_accepted():
    action = parse(adversary=[{"action": "drop",
                               "target": {"txn": "C0-9"}}]).adversary[0]
    assert action.target_txn == "C0-9"


def test_target_edge_entry_must_be_a_name():
    rejects(r"^adversary\[0\]\.target\.edge: no such entity \['C0'\]$",
            adversary=[{"action": "drop",
                        "target": {"edge": [["C0"], "TTP0"]}}])


def test_absent_action_options_keep_the_action_defaults():
    parsed = parse(adversary=[{"action": "flip_bits"},
                              {"action": "delay"},
                              {"action": "replay_token"}]).adversary
    assert [(a.trigger, a.bit_offsets, a.delay) for a in parsed] \
        == [(1, (0,), 5)] * 3
