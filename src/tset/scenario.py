"""Scenario files: validated configuration and world construction.

A scenario is a YAML document naming customers (balances, purchase lists,
verdict behavior, trust policy), merchants (catalogs, optional pre-seeded
trust history), simulation parameters, and adversary actions.  Validation
is strict and error messages name the offending field, because a silently
mis-typed scenario produces a confidently wrong simulation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import yaml

from . import crypto
from .entities import (AcceptancePolicy, Customer, CustomerBank, MerchantBank,
                       Merchant, PurchaseIntent, Ttp, WellKnown,
                       DEFAULT_DEADLINE_TICKS, DEFAULT_REGENERATE_CAP,
                       DEFAULT_SETTLE_RETRY_CAP, DEFAULT_SETTLE_RETRY_TICKS)
from .messages import EntityId, MsgKind, Role
from .rng import ByteStream
from .simnet import (ActionKind, AdversaryAction, World, DEFAULT_LATENCY,
                     DEFAULT_TICK_LIMIT)
from .tokens import TokenMint, new_key_material
from .trust import Grade, TrustRecord

DEFAULT_STAGGER = 3


class ScenarioError(Exception):
    """Configuration rejected; the message names the offending field."""


def _require(cond: bool, where: str, problem: str) -> None:
    if not cond:
        raise ScenarioError(f"{where}: {problem}")


def _reject_unknown(entry: dict, known: set, where: str) -> None:
    for key in entry:
        _require(key in known, f"{where}.{key}", "unknown field")


def _get_int(data: dict, key: str, where: str, default=None,
             minimum=None) -> int:
    value = data.get(key, default)
    _require(value is not None, f"{where}.{key}", "required")
    _require(isinstance(value, int) and not isinstance(value, bool),
             f"{where}.{key}", "must be an integer")
    if minimum is not None:
        _require(value >= minimum, f"{where}.{key}",
                 f"must be at least {minimum}")
    return value


@dataclass(frozen=True)
class PurchaseSpec:
    merchant: int
    product: str
    quantity: int
    start: int | None = None


@dataclass
class CustomerSpec:
    balance: int
    purchases: list
    policy: AcceptancePolicy = AcceptancePolicy()
    reject_script: list = field(default_factory=list)
    reject_probability: float = 0.0


@dataclass
class MerchantSpec:
    catalog: dict
    history: tuple | None = None  # (total, rejected)


@dataclass
class ScenarioConfig:
    seed: int
    customers: list
    merchants: list
    adversary: list = field(default_factory=list)
    latency: int = DEFAULT_LATENCY
    tick_limit: int = DEFAULT_TICK_LIMIT
    deadline: int = DEFAULT_DEADLINE_TICKS
    regenerate_cap: int = DEFAULT_REGENERATE_CAP
    settle_retry_ticks: int = DEFAULT_SETTLE_RETRY_TICKS
    settle_retry_cap: int = DEFAULT_SETTLE_RETRY_CAP
    stagger: int = DEFAULT_STAGGER

    @staticmethod
    def from_dict(data) -> "ScenarioConfig":
        _require(isinstance(data, dict), "scenario",
                 "top level must be a mapping")
        _reject_unknown(data, {
            "seed", "customers", "merchants", "adversary", "latency",
            "tick_limit", "deadline", "regenerate_cap",
            "settle_retry_ticks", "settle_retry_cap", "stagger"}, "scenario")

        seed = _get_int(data, "seed", "scenario", default=0)
        latency = _get_int(data, "latency", "scenario",
                           default=DEFAULT_LATENCY, minimum=1)
        tick_limit = _get_int(data, "tick_limit", "scenario",
                              default=DEFAULT_TICK_LIMIT, minimum=1)
        deadline = _get_int(data, "deadline", "scenario",
                            default=DEFAULT_DEADLINE_TICKS, minimum=1)
        regenerate_cap = _get_int(data, "regenerate_cap", "scenario",
                                  default=DEFAULT_REGENERATE_CAP, minimum=0)
        retry_ticks = _get_int(data, "settle_retry_ticks", "scenario",
                               default=DEFAULT_SETTLE_RETRY_TICKS, minimum=1)
        retry_cap = _get_int(data, "settle_retry_cap", "scenario",
                             default=DEFAULT_SETTLE_RETRY_CAP, minimum=0)
        stagger = _get_int(data, "stagger", "scenario",
                           default=DEFAULT_STAGGER, minimum=1)

        merchants = _parse_merchants(data.get("merchants"))
        customers = _parse_customers(data.get("customers"), merchants)
        adversary = _parse_adversary(data.get("adversary", []),
                                     len(customers), len(merchants))
        return ScenarioConfig(
            seed=seed, customers=customers, merchants=merchants,
            adversary=adversary, latency=latency, tick_limit=tick_limit,
            deadline=deadline, regenerate_cap=regenerate_cap,
            settle_retry_ticks=retry_ticks, settle_retry_cap=retry_cap,
            stagger=stagger)


def _parse_merchants(raw) -> list:
    _require(isinstance(raw, list) and raw, "merchants",
             "must be a non-empty list")
    merchants = []
    for i, entry in enumerate(raw):
        where = f"merchants[{i}]"
        _require(isinstance(entry, dict), where, "must be a mapping")
        _reject_unknown(entry, {"catalog", "history"}, where)
        catalog = entry.get("catalog")
        _require(isinstance(catalog, dict) and catalog, f"{where}.catalog",
                 "must be a non-empty mapping of product to price")
        for product, price in catalog.items():
            _require(isinstance(product, str) and product,
                     f"{where}.catalog", "product names must be strings")
            _require(isinstance(price, int) and not isinstance(price, bool)
                     and price > 0, f"{where}.catalog.{product}",
                     "price must be a positive integer in minor units")
        history = None
        if "history" in entry:
            h = entry["history"]
            _require(isinstance(h, dict), f"{where}.history",
                     "must be a mapping with total and rejected")
            _reject_unknown(h, {"total", "rejected"}, f"{where}.history")
            total = _get_int(h, "total", f"{where}.history", minimum=0)
            rejected = _get_int(h, "rejected", f"{where}.history", minimum=0)
            _require(rejected <= total, f"{where}.history.rejected",
                     "cannot exceed total")
            history = (total, rejected)
        merchants.append(MerchantSpec(catalog=dict(catalog), history=history))
    return merchants


def _parse_policy(raw, where: str) -> AcceptancePolicy:
    if raw is None:
        return AcceptancePolicy()
    _require(isinstance(raw, dict), where, "must be a mapping")
    _reject_unknown(raw, {"min_grade", "accept_unrated"}, where)
    min_grade = None
    if raw.get("min_grade") is not None:
        name = raw["min_grade"]
        _require(isinstance(name, str) and name in Grade.__members__,
                 f"{where}.min_grade",
                 f"must be one of {', '.join(Grade.__members__)}")
        min_grade = Grade[name]
    accept_unrated = raw.get("accept_unrated")
    _require(accept_unrated is None or isinstance(accept_unrated, bool),
             f"{where}.accept_unrated", "must be a boolean")
    return AcceptancePolicy(min_grade, accept_unrated)


def _parse_customers(raw, merchants: list) -> list:
    _require(isinstance(raw, list) and raw, "customers",
             "must be a non-empty list")
    customers = []
    for i, entry in enumerate(raw):
        where = f"customers[{i}]"
        _require(isinstance(entry, dict), where, "must be a mapping")
        _reject_unknown(entry, {"balance", "purchases", "policy",
                                "reject_script", "reject_probability"}, where)
        balance = _get_int(entry, "balance", where, minimum=0)
        purchases_raw = entry.get("purchases", [])
        _require(isinstance(purchases_raw, list), f"{where}.purchases",
                 "must be a list")
        purchases = []
        for j, p in enumerate(purchases_raw):
            pwhere = f"{where}.purchases[{j}]"
            _require(isinstance(p, dict), pwhere, "must be a mapping")
            _reject_unknown(p, {"merchant", "product", "quantity", "start"},
                            pwhere)
            midx = _get_int(p, "merchant", pwhere, minimum=0)
            _require(midx < len(merchants), f"{pwhere}.merchant",
                     f"no merchant with index {midx}")
            product = p.get("product")
            _require(isinstance(product, str) and product,
                     f"{pwhere}.product", "must be a non-empty string")
            _require(product in merchants[midx].catalog,
                     f"{pwhere}.product",
                     f"merchant {midx} does not sell {product!r}")
            quantity = _get_int(p, "quantity", pwhere, default=1, minimum=1)
            start = None
            if "start" in p:
                start = _get_int(p, "start", pwhere, minimum=0)
            purchases.append(PurchaseSpec(midx, product, quantity, start))
        script = entry.get("reject_script", [])
        _require(isinstance(script, list)
                 and all(isinstance(v, bool) for v in script),
                 f"{where}.reject_script", "must be a list of booleans")
        prob = entry.get("reject_probability", 0.0)
        _require(isinstance(prob, (int, float))
                 and not isinstance(prob, bool) and 0.0 <= prob <= 1.0,
                 f"{where}.reject_probability", "must be in [0, 1]")
        customers.append(CustomerSpec(
            balance=balance, purchases=purchases,
            policy=_parse_policy(entry.get("policy"), f"{where}.policy"),
            reject_script=list(script), reject_probability=float(prob)))
    return customers


def _parse_adversary(raw, n_customers: int, n_merchants: int) -> list:
    _require(isinstance(raw, list), "adversary", "must be a list")
    valid_ids = {f"C{i}" for i in range(n_customers)}
    valid_ids |= {f"M{i}" for i in range(n_merchants)}
    valid_ids |= {"CB0", "MB0", "TTP0"}
    actions = []
    for i, entry in enumerate(raw):
        where = f"adversary[{i}]"
        _require(isinstance(entry, dict), where, "must be a mapping")
        name = entry.get("action")
        try:
            kind = ActionKind(name)
        except ValueError:
            raise ScenarioError(
                f"{where}.action: unknown action {name!r}; expected one of "
                f"{', '.join(a.value for a in ActionKind)}") from None
        allowed = {"action", "target", "trigger"}
        if kind is ActionKind.FLIP_BITS:
            allowed.add("bits")
        if kind is ActionKind.REPLACE_AMOUNT:
            allowed.add("amount")
        if kind in (ActionKind.DELAY, ActionKind.REPLAY_TOKEN):
            allowed.add("delay")
        _reject_unknown(entry, allowed, where)
        target = entry.get("target", {}) or {}
        _require(isinstance(target, dict), f"{where}.target",
                 "must be a mapping")
        _reject_unknown(target, {"kind", "edge", "txn"}, f"{where}.target")
        target_kind = None
        if target.get("kind") is not None:
            try:
                target_kind = MsgKind(target["kind"])
            except ValueError:
                raise ScenarioError(
                    f"{where}.target.kind: unknown message kind "
                    f"{target['kind']!r}") from None
        target_edge = None
        if target.get("edge") is not None:
            edge = target["edge"]
            _require(isinstance(edge, list) and len(edge) == 2,
                     f"{where}.target.edge", "must be [sender, receiver]")
            for eid in edge:
                _require(eid in valid_ids, f"{where}.target.edge",
                         f"no such entity {eid!r}")
            target_edge = (edge[0], edge[1])
        target_txn = target.get("txn")
        _require(target_txn is None or isinstance(target_txn, str),
                 f"{where}.target.txn", "must be a string like C0-1")
        trigger = _get_int(entry, "trigger", where, default=1, minimum=1)
        kwargs = {}
        if kind is ActionKind.FLIP_BITS:
            bits = entry.get("bits", [0])
            _require(isinstance(bits, list) and bits
                     and all(isinstance(b, int) and not isinstance(b, bool)
                             and b >= 0 for b in bits),
                     f"{where}.bits", "must be a list of bit offsets")
            kwargs["bit_offsets"] = tuple(bits)
        if kind is ActionKind.REPLACE_AMOUNT:
            kwargs["amount"] = _get_int(entry, "amount", where, minimum=0)
        if kind in (ActionKind.DELAY, ActionKind.REPLAY_TOKEN):
            kwargs["delay"] = _get_int(entry, "delay", where, default=5,
                                       minimum=1)
        actions.append(AdversaryAction(
            kind=kind, target_kind=target_kind, target_edge=target_edge,
            target_txn=target_txn, trigger=trigger, **kwargs))
    return actions


def load_scenario(path) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ScenarioError(f"scenario is not valid YAML: {exc}") from exc
    return ScenarioConfig.from_dict(data)


# ---------------------------------------------------------------------------
# World construction

def build_world(config: ScenarioConfig) -> World:
    """Instantiate entities with deterministic key material and wire the
    purchase plan."""
    root_rng = ByteStream(config.seed)
    root_key = crypto.new_signing_key(root_rng.fork("root"))
    root_public = root_key.public_key().public_bytes_raw()
    # One memo of certificate checks for the whole world, filled on use.
    certs = crypto.CertificateChecks(root_public)

    ids = ([EntityId(Role.CUSTOMER, i) for i in range(len(config.customers))]
           + [EntityId(Role.MERCHANT, i) for i in range(len(config.merchants))]
           + [EntityId(Role.CUSTOMER_BANK, 0),
              EntityId(Role.MERCHANT_BANK, 0),
              EntityId(Role.TTP, 0)])
    signing_keys = {}
    directory = {}
    for eid in ids:
        key = crypto.new_signing_key(root_rng.fork(f"key/{eid}"))
        signing_keys[str(eid)] = key
        directory[str(eid)] = crypto.issue_certificate(
            root_key, str(eid), key.public_key().public_bytes_raw())

    wk = WellKnown(ttp=EntityId(Role.TTP, 0),
                   customer_bank=EntityId(Role.CUSTOMER_BANK, 0),
                   merchant_bank=EntityId(Role.MERCHANT_BANK, 0))

    def base_args(eid: EntityId):
        return (eid, signing_keys[str(eid)], directory[str(eid)],
                directory, certs, wk)

    accounts = {f"C{i}": spec.balance
                for i, spec in enumerate(config.customers)}
    acct_rng = root_rng.fork("cb/account-numbers")
    account_numbers = {f"C{i}": f"ACCT-{acct_rng.take(8).hex()}"
                       for i in range(len(config.customers))}
    keys = new_key_material(root_rng.fork("cb/material"))
    mint = TokenMint(root_rng.fork("cb/mint"), certs)
    cb = CustomerBank(*base_args(wk.customer_bank), keys=keys, mint=mint,
                      accounts=accounts, crypto_rng=root_rng.fork("cb/seal"),
                      account_numbers=account_numbers)
    mb = MerchantBank(*base_args(wk.merchant_bank),
                      retry_ticks=config.settle_retry_ticks,
                      retry_cap=config.settle_retry_cap)
    ttp = Ttp(*base_args(wk.ttp), deadline_ticks=config.deadline,
              regenerate_cap=config.regenerate_cap)

    entities: dict = {str(cb.id): cb, str(mb.id): mb, str(ttp.id): ttp}
    customers: dict = {}
    for i, spec in enumerate(config.customers):
        eid = EntityId(Role.CUSTOMER, i)
        behavior_seed = int.from_bytes(
            root_rng.fork(f"behavior/{eid}").take(8), "big")
        customer = Customer(*base_args(eid), policy=spec.policy,
                            reject_script=spec.reject_script,
                            reject_probability=spec.reject_probability,
                            behavior=random.Random(behavior_seed))
        entities[str(eid)] = customer
        customers[str(eid)] = customer
    for i, spec in enumerate(config.merchants):
        eid = EntityId(Role.MERCHANT, i)
        entities[str(eid)] = Merchant(*base_args(eid), catalog=spec.catalog)
        if spec.history is not None:
            total, rejected = spec.history
            if total:
                ttp.trust[str(eid)] = TrustRecord(total=total,
                                                  rejected=rejected)

    plan = []
    for i, spec in enumerate(config.customers):
        for j, p in enumerate(spec.purchases):
            start = p.start if p.start is not None else j * config.stagger
            intent = PurchaseIntent(EntityId(Role.MERCHANT, p.merchant),
                                    p.product, p.quantity)
            plan.append((start, f"C{i}", intent))
    plan.sort(key=lambda item: (item[0], item[1]))

    return World(seed=config.seed, latency=config.latency,
                 tick_limit=config.tick_limit, entities=entities,
                 customers=customers, cb=cb, mb=mb, ttp=ttp, plan=plan,
                 adversary=list(config.adversary))
