"""Scenario files: validated configuration and world construction.

A scenario is a YAML document naming customers (balances, purchase lists,
verdict behavior, trust policy), merchants (catalogs, optional pre-seeded
trust history), simulation parameters, and adversary actions.  Validation
is strict and error messages name the offending field, because a silently
mis-typed scenario produces a confidently wrong simulation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, fields

import yaml

from . import crypto
from .entities import (AcceptancePolicy, Customer, CustomerBank, MerchantBank,
                       Merchant, PurchaseIntent, Ttp)
from .messages import CB0, MB0, TTP0, EntityId, MsgKind, Role, TransactionId
from .rng import ByteStream
from .simnet import ActionKind, AdversaryAction, World
from .tokens import AMOUNT_MAX, TokenMint, new_key_material
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


def _param(default: int, minimum: int | None = None):
    """A top-level integer run parameter with its default and least
    allowed value (None: any integer)."""
    return field(default=default, metadata={"minimum": minimum})


@dataclass
class ScenarioConfig:
    """A validated scenario.  Each run parameter states its default and
    minimum here and nowhere else; the file parser and the command line
    overrides read them from these fields."""

    customers: list
    merchants: list
    adversary: list = field(default_factory=list)
    seed: int = _param(0)
    latency: int = _param(1, minimum=1)
    tick_limit: int = _param(10_000, minimum=1)
    deadline: int = _param(100, minimum=1)              # arbiter, in ticks
    regenerate_cap: int = _param(3, minimum=0)
    settle_retry_ticks: int = _param(25, minimum=1)     # acquirer retry timer
    settle_retry_cap: int = _param(5, minimum=0)
    stagger: int = _param(DEFAULT_STAGGER, minimum=1)

    @staticmethod
    def from_dict(data) -> "ScenarioConfig":
        _require(isinstance(data, dict), "scenario",
                 "top level must be a mapping")
        _reject_unknown(data, _TOP_LEVEL_KEYS, "scenario")
        params = [_get_int(data, name, "scenario", default, minimum)
                  for name, (default, minimum) in _PARAMS.items()]
        merchants = _parse_merchants(data.get("merchants"))
        customers = _parse_customers(data.get("customers"), merchants)
        adversary = _parse_adversary(data.get("adversary", []),
                                     len(customers), len(merchants))
        return ScenarioConfig(customers, merchants, adversary, *params)


_TOP_LEVEL_KEYS = frozenset(f.name for f in fields(ScenarioConfig))
# Run parameter -> (default, minimum), in field order.  They are the fields
# after the three lists, so from_dict passes them positionally.
_PARAMS = {f.name: (f.default, f.metadata["minimum"])
           for f in fields(ScenarioConfig) if "minimum" in f.metadata}


def check_override(name: str, value: int, where: str) -> int:
    """``value`` for run parameter ``name`` if it meets the parameter's
    minimum; otherwise a ScenarioError naming ``where``."""
    minimum = _PARAMS[name][1]
    _require(minimum is None or value >= minimum, where,
             f"must be at least {minimum}")
    return value


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
            total = merchants[midx].catalog[product] * quantity
            if total > AMOUNT_MAX:      # the message is built only on failure
                raise ScenarioError(
                    f"{pwhere}.quantity: total price {total} exceeds "
                    f"{AMOUNT_MAX}, the most a token carries")
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


# The option each action kind takes beside action, target and trigger.  An
# absent option keeps its AdversaryAction default; amount has none.
_ACTION_OPTIONS = {
    ActionKind.FLIP_BITS: {"bits"},
    ActionKind.REPLACE_AMOUNT: {"amount"},
    ActionKind.REPLAY_TOKEN: {"delay"},
    ActionKind.DELAY: {"delay"},
    ActionKind.DROP: set(),
}


def _check_txn(value, where: str, customer_ids: set) -> None:
    """Refuse all but a canonical transaction id of an existing customer."""
    try:
        txn = TransactionId.parse(value) if isinstance(value, str) else None
    except ValueError:
        txn = None
    _require(txn is not None and str(txn) == value and txn.serial >= 1,
             where, "must be a string like C0-1")
    _require(str(txn.customer) in customer_ids, where,
             f"no such customer {str(txn.customer)!r}")


def _parse_adversary(raw, n_customers: int, n_merchants: int) -> list:
    _require(isinstance(raw, list), "adversary", "must be a list")
    customer_ids = {f"C{i}" for i in range(n_customers)}
    valid_ids = customer_ids | {f"M{i}" for i in range(n_merchants)}
    valid_ids |= {str(CB0), str(MB0), str(TTP0)}
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
        _reject_unknown(entry, {"action", "target", "trigger",
                                *_ACTION_OPTIONS[kind]}, where)
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
                _require(isinstance(eid, str) and eid in valid_ids,
                         f"{where}.target.edge", f"no such entity {eid!r}")
            target_edge = (edge[0], edge[1])
        target_txn = target.get("txn")
        if target_txn is not None:
            _check_txn(target_txn, f"{where}.target.txn", customer_ids)
        # Unknown options are refused above, so each present one belongs
        # to this kind.
        options = {}
        if "trigger" in entry:
            options["trigger"] = _get_int(entry, "trigger", where, minimum=1)
        if "bits" in entry:
            bits = entry["bits"]
            _require(isinstance(bits, list) and bits
                     and all(isinstance(b, int) and not isinstance(b, bool)
                             and b >= 0 for b in bits),
                     f"{where}.bits", "must be a list of bit offsets")
            options["bit_offsets"] = tuple(bits)
        if kind is ActionKind.REPLACE_AMOUNT:
            amount = _get_int(entry, "amount", where, minimum=0)
            _require(amount <= AMOUNT_MAX, f"{where}.amount",
                     f"must be at most {AMOUNT_MAX}, the most a token "
                     "carries")
            options["amount"] = amount
        if "delay" in entry:
            options["delay"] = _get_int(entry, "delay", where, minimum=1)
        actions.append(AdversaryAction(
            kind=kind, target_kind=target_kind, target_edge=target_edge,
            target_txn=target_txn, **options))
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
           + [CB0, MB0, TTP0])
    signing_keys = {}
    directory = {}
    for eid in ids:
        key = crypto.new_signing_key(root_rng.fork(f"key/{eid}"))
        signing_keys[str(eid)] = key
        directory[str(eid)] = crypto.issue_certificate(
            root_key, str(eid), key.public_key().public_bytes_raw())

    def base_args(eid: EntityId):
        return (eid, signing_keys[str(eid)], directory, certs)

    accounts = {f"C{i}": spec.balance
                for i, spec in enumerate(config.customers)}
    acct_rng = root_rng.fork("cb/account-numbers")
    account_numbers = {f"C{i}": f"ACCT-{acct_rng.take(8).hex()}"
                       for i in range(len(config.customers))}
    keys = new_key_material(root_rng.fork("cb/material"))
    mint = TokenMint(root_rng.fork("cb/mint"), certs)
    cb = CustomerBank(*base_args(CB0), keys=keys, mint=mint,
                      accounts=accounts, crypto_rng=root_rng.fork("cb/seal"),
                      account_numbers=account_numbers)
    mb = MerchantBank(*base_args(MB0),
                      retry_ticks=config.settle_retry_ticks,
                      retry_cap=config.settle_retry_cap)
    ttp = Ttp(*base_args(TTP0), deadline_ticks=config.deadline,
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
