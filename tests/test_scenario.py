"""Scenario parsing: strict validation, defaults, and world wiring."""

import copy
import gc
import itertools
import pathlib
import random
import re

import pytest
import yaml
from hypothesis import given, settings, strategies as st

import reference_scenario
import tset.scenario
from tset.entities import AcceptancePolicy
from tset.messages import MsgKind
from tset.scenario import (
    ScenarioConfig,
    ScenarioError,
    build_world,
    load_scenario,
)
from tset.simnet import ActionKind
from tset.tokens import AMOUNT_MAX
from tset.trust import Grade

from conftest import basic_scenario

SCENARIOS = pathlib.Path(__file__).resolve().parents[1] / "scenarios"


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


def test_load_scenario_not_utf8_names_the_offset_in_the_file(tmp_path):
    # Far past the first read chunk of a text-mode file, whose decoder would
    # count from the start of the chunk.
    body = b"seed: 1\n" + b"# a comment line that pads the file\n" * 4000
    path = tmp_path / "s.yaml"
    path.write_bytes(body + b"\xff\n")
    assert len(body) > 140_000
    with pytest.raises(ScenarioError,
                       match=f"byte 0xff in position {len(body)}:"):
        load_scenario(path)


@pytest.mark.parametrize("enabled", [True, False], ids=["gc on", "gc off"])
@pytest.mark.parametrize("valid", [True, False], ids=["valid", "not YAML"])
def test_load_scenario_parses_with_the_collector_paused(
        enabled, valid, tmp_path, monkeypatch):
    path = tmp_path / "s.yaml"
    path.write_text(yaml.safe_dump(basic_scenario()) if valid
                    else "customers: [unclosed\n")
    parse, collecting = yaml.load, []

    def spy(*args, **kwargs):
        collecting.append(gc.isenabled())
        return parse(*args, **kwargs)

    monkeypatch.setattr(yaml, "load", spy)
    (gc.enable if enabled else gc.disable)()
    try:
        if valid:
            assert load_scenario(path).seed == basic_scenario()["seed"]
        else:
            with pytest.raises(ScenarioError, match="not valid YAML"):
                load_scenario(path)
        assert (collecting, gc.isenabled()) == ([False], enabled)
    finally:
        gc.enable()


def test_bundled_scenarios_parse():
    names = sorted(p.name for p in SCENARIOS.glob("*.yaml"))
    assert names == ["happy_path.yaml", "mixed.yaml", "tamper.yaml"]
    for p in SCENARIOS.glob("*.yaml"):
        load_scenario(p)


def _thousand_purchases() -> dict:
    """A scenario of forty customers with twenty-five purchases each,
    under rejections, mutations and drops, as the mixed load is shaped."""
    rnd = random.Random(20260815)
    merchants = [{"catalog": {"widget": 12000, "gadget": 7500}},
                 {"catalog": {"doohickey": 9900, "sprocket": 4400},
                  "history": {"total": 40, "rejected": 3}}]
    products = [(0, "widget"), (0, "gadget"), (1, "doohickey"),
                (1, "sprocket")]
    customers = [{"balance": 2_000_000, "reject_probability": 0.15,
                  "policy": {"min_grade": "B1", "accept_unrated": True},
                  "purchases": [{"merchant": midx, "product": product,
                                 "quantity": 1 + rnd.randrange(3),
                                 "start": rnd.randrange(4000)}
                                for midx, product in (
                                    rnd.choice(products) for _ in range(25))]}
                 for _ in range(40)]
    adversary = ([{"action": "flip_bits", "bits": [rnd.randrange(2528)],
                   "trigger": 1 + rnd.randrange(900),
                   "target": {"kind": "EscrowDeposit"}} for _ in range(15)]
                 + [{"action": "replace_amount", "amount": 1 + i,
                     "target": {"kind": "TokenIssued", "txn": f"C{i}-1"}}
                    for i in range(15)]
                 + [{"action": "drop", "trigger": 2,
                     "target": {"kind": "TrustReply",
                                "edge": ["TTP0", f"C{i}"]}}
                    for i in range(20)])
    return {"seed": 20260815, "stagger": 4, "tick_limit": 50000,
            "customers": customers, "merchants": merchants,
            "adversary": adversary}


@pytest.mark.parametrize("name", ["happy_path.yaml", "mixed.yaml",
                                  "tamper.yaml", "1k purchases"])
def test_load_scenario_parses_as_the_pure_python_loader(name, tmp_path):
    """libyaml's parse, where PyYAML has it, builds the config that the
    pure-Python SafeLoader's parse does."""
    if name == "1k purchases":
        path = tmp_path / "thousand.yaml"
        path.write_text(yaml.safe_dump(_thousand_purchases()))
    else:
        path = SCENARIOS / name
    with open(path, encoding="utf-8") as fh:
        reference = yaml.load(fh, Loader=yaml.SafeLoader)
    config = load_scenario(path)
    assert config == ScenarioConfig.from_dict(reference)
    if name == "1k purchases":
        assert sum(len(c.purchases) for c in config.customers) == 1000


def test_load_scenario_uses_libyaml_where_pyyaml_has_it():
    expected = yaml.CSafeLoader if yaml.__with_libyaml__ \
        else yaml.SafeLoader
    assert tset.scenario._YAML_LOADER is expected


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


# -- the parser against the reference ------------------------------------------

PRODUCTS = ("widget", "gadget", "sprocket")


def valid_scenario(rnd: random.Random) -> dict:
    """A scenario every check passes, with every optional field present
    and one action of each kind: a mutation that removes a field makes the
    scenario that lacks it."""
    merchants = []
    for _ in range(rnd.randint(1, 2)):
        total = rnd.randint(0, 50)
        merchants.append({
            "catalog": {name: rnd.randint(1, 20000)
                        for name in rnd.sample(PRODUCTS, rnd.randint(1, 2))},
            "history": {"total": total, "rejected": rnd.randint(0, total)}})
    customers = []
    for _ in range(rnd.randint(1, 2)):
        purchases = []
        for _ in range(rnd.randint(1, 2)):
            midx = rnd.randrange(len(merchants))
            purchases.append({
                "merchant": midx,
                "product": rnd.choice(sorted(merchants[midx]["catalog"])),
                "quantity": rnd.randint(1, 3), "start": rnd.randint(0, 500)})
        customers.append({
            "balance": rnd.randint(0, 10 ** 6), "purchases": purchases,
            "policy": {"min_grade": rnd.choice([None, *Grade.__members__]),
                       "accept_unrated": rnd.choice([None, True, False])},
            "reject_script": [rnd.random() < 0.5
                              for _ in range(rnd.randint(0, 2))],
            "reject_probability": rnd.choice([0, 1, 0.0, 0.15, 1.0])})
    names = ([f"C{i}" for i in range(len(customers))]
             + [f"M{i}" for i in range(len(merchants))]
             + ["CB0", "MB0", "TTP0"])
    adversary = []
    for kind in rnd.sample(list(ActionKind), len(ActionKind)):
        action = {"action": kind.value,
                  "target": {"kind": rnd.choice(list(MsgKind)).value,
                             "edge": [rnd.choice(names), rnd.choice(names)],
                             "txn": f"C{rnd.randrange(len(customers))}"
                                    f"-{rnd.randint(1, 4)}"},
                  "trigger": rnd.randint(1, 9)}
        if kind is ActionKind.FLIP_BITS:
            action["bits"] = [rnd.randint(0, 999)
                              for _ in range(rnd.randint(1, 2))]
        if kind is ActionKind.REPLACE_AMOUNT:
            action["amount"] = rnd.randint(0, 10 ** 6)
        if kind in (ActionKind.DELAY, ActionKind.REPLAY_TOKEN):
            action["delay"] = rnd.randint(1, 9)
        adversary.append(action)
    data = {"customers": customers, "merchants": merchants,
            "adversary": adversary}
    for name, (_, least) in RUN_PARAMETERS.items():
        data[name] = rnd.randint(least or 0, (least or 0) + 50)
    return data


# What a mutation puts in place of any field or list entry: None, a bool
# for an int, a negative, the wrong type.
ANY_FIELD = (None, True, -1, "x", [], {})
# What it may also put in place of one field: a value of the right type
# that some check refuses there.  A field is its path with the indexes
# left out.
ONE_FIELD = {
    ".latency": (0,),
    ".merchants[].catalog": ({"widget": 1, "": 2},),
    ".merchants[].history.rejected": (10 ** 6,),
    ".customers[].purchases[].merchant": (7,),
    ".customers[].purchases[].product": ("", "anvil"),
    ".customers[].purchases[].quantity": (0, AMOUNT_MAX),
    ".customers[].policy.min_grade": ("Z9",),
    ".customers[].policy.accept_unrated": ("yes",),
    ".customers[].reject_script": ([True, 1],),
    ".customers[].reject_probability": (1.5, float("nan")),
    ".adversary[].action": ("steal",),
    ".adversary[].target.kind": ("Gossip",),
    ".adversary[].target.edge": (["C0", "X9"], ["C0"], [["C0"], "TTP0"]),
    ".adversary[].target.txn": ("C9-1", "M0-1", "c0-1", "C0-01", "C0-0"),
    ".adversary[].trigger": (0,),
    ".adversary[].bits": ([0, True],),
    ".adversary[].amount": (AMOUNT_MAX + 1,),
    ".adversary[].delay": (0,),
}
# Keys a mutation adds to a mapping, and entries it adds to a list: fields
# of the schema, in the wrong place or the right one, and names that are
# fields nowhere.
EXTRA_KEYS = ("colour", "amount", "delay", "bits", "history", "start",
              "edge", "seed", "", 1)


def _places(value, field: str = "", out: dict | None = None) -> dict:
    """Field -> each place of it below ``value``, (container, key or
    index)."""
    out = {} if out is None else out
    if isinstance(value, dict):
        items = [(f"{field}.{key}", key) for key in value]
    elif isinstance(value, list):
        items = [(f"{field}[]", index) for index in range(len(value))]
    else:
        return out
    for below, key in items:
        out.setdefault(below, []).append((value, key))
        _places(value[key], below, out)
    return out


def _changes(field: str) -> list:
    """Each mutation of one place of ``field``: (how, value or key)."""
    return ([("replace", v) for v in (*ANY_FIELD, *ONE_FIELD.get(field, ()))]
            + [("remove", None)] + [("add", k) for k in EXTRA_KEYS])


def _mutate(container, key, how: str, item) -> None:
    """Replace ``container[key]`` by ``item``, remove it, or add ``item``
    as a key or entry to it, or to ``container`` if it holds neither."""
    if how == "replace":
        container[key] = copy.deepcopy(item)
    elif how == "remove":
        del container[key]
    else:
        target = container[key]
        if not isinstance(target, (dict, list)):
            target = container
        if isinstance(target, dict):
            target[item] = 0
        else:
            target.insert(0, item)


def one_mutation_away(data: dict):
    """Every scenario that one mutation of one field makes from ``data``:
    each field at its first place, with each of its changes."""
    for field in sorted(_places(data)):
        for how, item in _changes(field):
            mutant = copy.deepcopy(data)
            _mutate(*_places(mutant)[field][0], how, item)
            yield mutant


def _refused_changes(data: dict) -> list:
    """(field, how, value or key) of the first replacement and the first
    addition at each field that the reference refuses."""
    refused = []
    for field in sorted(_places(data)):
        for kind in ("replace", "add"):
            for how, item in _changes(field):
                if how != kind:
                    continue
                mutant = copy.deepcopy(data)
                _mutate(*_places(mutant)[field][0], how, item)
                if isinstance(_outcome(reference_scenario.from_dict, mutant),
                              tuple):
                    refused.append((field, how, item))
                    break
    return refused


def two_mutations_away(data: dict):
    """Every scenario that two refused changes of two fields make from
    ``data``, where the second field is still there after the first."""
    for first, second in itertools.combinations(_refused_changes(data), 2):
        mutant = copy.deepcopy(data)
        _mutate(*_places(mutant)[first[0]][0], *first[1:])
        places = _places(mutant).get(second[0])
        if places:
            _mutate(*places[0], *second[1:])
            yield mutant


def mutated_scenario(rnd: random.Random) -> dict:
    """A valid scenario with two or three mutations, each of a field, a
    place of it and a change chosen evenly."""
    data = valid_scenario(rnd)
    for _ in range(rnd.randint(2, 3)):
        places = _places(data)
        field = rnd.choice(sorted(places))
        _mutate(*rnd.choice(places[field]), *rnd.choice(_changes(field)))
    return data


# Hypothesis draws the seed of each case; the choices within it are made
# by that Random, evenly, so that every field and mutation is as likely.
valid_scenarios = st.randoms(use_true_random=True).map(valid_scenario)
mutated_scenarios = st.randoms(use_true_random=True).map(mutated_scenario)


def _outcome(parse, data):
    try:
        return parse(data)
    except Exception as exc:    # the error's type and text are the outcome
        return (type(exc), str(exc))


def _check_name(where: str, problem: str) -> tuple:
    """A failure's field, without indexes, and the words of its message
    before the first that holds a value.  The field of an unknown key or of
    a price ends in ``*``."""
    field = ".".join(part.split("[")[0] for part in where.split("."))
    if problem == "unknown field" or field.startswith("merchants.catalog."):
        field = field.rsplit(".", 1)[0] + ".*"
    words = itertools.takewhile(re.compile("[a-z-]+").fullmatch,
                                problem.split())
    return (field, " ".join(words))


_INT = ("required", "must be an integer")
_LEAST = (*_INT, "must be at least")
# The (field, message) of each check of the reference, bar the top level's
# mapping check; see _check_name.
REFERENCE_CHECKS = {(field, problem) for field, problems in {
    "scenario.*": ("unknown field",),
    "scenario.seed": _INT,
    "scenario.latency": _LEAST,
    "merchants": ("must be a non-empty list", "must be a mapping"),
    "merchants.*": ("unknown field",),
    "merchants.catalog": ("must be a non-empty mapping of product to price",
                          "product names must be strings"),
    "merchants.catalog.*": ("price must be a positive integer in minor "
                            "units",),
    "merchants.history": ("must be a mapping with total and rejected",),
    "merchants.history.*": ("unknown field",),
    "merchants.history.total": _LEAST,
    "merchants.history.rejected": (*_LEAST, "cannot exceed total"),
    "customers": ("must be a non-empty list", "must be a mapping"),
    "customers.*": ("unknown field",),
    "customers.balance": _LEAST,
    "customers.purchases": ("must be a list", "must be a mapping"),
    "customers.purchases.*": ("unknown field",),
    "customers.purchases.merchant": (*_LEAST, "no merchant with index"),
    "customers.purchases.product": ("must be a non-empty string",
                                    "merchant"),
    "customers.purchases.quantity": (*_LEAST, "total price"),
    "customers.purchases.start": _LEAST,
    "customers.reject_script": ("must be a list of booleans",),
    "customers.reject_probability": ("must be in",),
    "customers.policy": ("must be a mapping",),
    "customers.policy.*": ("unknown field",),
    "customers.policy.min_grade": ("must be one of",),
    "customers.policy.accept_unrated": ("must be a boolean",),
    "adversary": ("must be a list", "must be a mapping"),
    "adversary.*": ("unknown field",),
    "adversary.action": ("unknown action",),
    "adversary.target": ("must be a mapping",),
    "adversary.target.*": ("unknown field",),
    "adversary.target.kind": ("unknown message kind",),
    "adversary.target.edge": ("must be", "no such entity"),
    "adversary.target.txn": ("must be a string like", "no such customer"),
    "adversary.trigger": _LEAST,
    "adversary.bits": ("must be a list of bit offsets",),
    "adversary.amount": (*_LEAST, "must be at most"),
    "adversary.delay": _LEAST,
}.items() for problem in problems}


def test_one_mutation_away_parses_as_the_reference_parses_it():
    """Each scenario one mutation from a valid one gives the reference's
    config or the reference's error text, and each check of the reference
    but the top level's mapping check is the first to fail on some."""
    seen = set()
    for seed in range(3):
        for data in one_mutation_away(valid_scenario(random.Random(seed))):
            expected = _outcome(reference_scenario.from_dict,
                                copy.deepcopy(data))
            assert _outcome(ScenarioConfig.from_dict, data) == expected
            if isinstance(expected, tuple):
                assert expected[0] is ScenarioError
                seen.add(_check_name(*expected[1].split(": ", 1)))
    assert REFERENCE_CHECKS - seen == set()


def test_two_mutations_away_parse_as_the_reference_parses_them():
    """Where two checks fail, the first to fail is the reference's first:
    the checks run in the reference's order."""
    for data in two_mutations_away(valid_scenario(random.Random(0))):
        expected = _outcome(reference_scenario.from_dict, copy.deepcopy(data))
        assert _outcome(ScenarioConfig.from_dict, data) == expected


@settings(derandomize=True, database=None, deadline=None, max_examples=1000)
@given(data=mutated_scenarios)
def test_mutated_scenarios_parse_as_the_reference_parses_them(data):
    """With two or three mutations, two checks can fail at once: the first
    to fail must be the reference's first, with its wording."""
    expected = _outcome(reference_scenario.from_dict, copy.deepcopy(data))
    assert _outcome(ScenarioConfig.from_dict, data) == expected


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(data=valid_scenarios)
def test_valid_scenarios_parse_as_the_reference_parses_them(data):
    config = ScenarioConfig.from_dict(data)
    assert type(config) is ScenarioConfig
    assert config == reference_scenario.from_dict(data)
