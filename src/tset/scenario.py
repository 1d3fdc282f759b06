"""Scenario files: validated configuration and world construction.

A scenario is a YAML document naming customers (balances, purchase lists,
verdict behavior, trust policy), merchants (catalogs, optional pre-seeded
trust history), simulation parameters, and adversary actions.  Validation
is strict and error messages name the offending field, because a silently
mis-typed scenario produces a confidently wrong simulation.

The parser runs its checks in document order and stops at the first that
fails.  A check that passes costs a type or range test and nothing more:
the field's location and the message are built only for the check that
fails, as the error unwinds (``_Invalid``).  Files are parsed with
libyaml's ``CSafeLoader`` where PyYAML has it, which is several times faster
than the pure-Python ``SafeLoader`` it falls back to and builds the same
values, with the cyclic garbage collector paused: its passes over the
growing tree of parsed values took more than half of a 50k-purchase load.
The file's bytes are decoded in one piece, so an encoding error names the
byte's offset in the file.  ``build_world`` makes one ``EntityId`` per
entity and shares it between the directory, the entities and every
purchase in the plan.
"""

from __future__ import annotations

import gc
import io
import random
from dataclasses import dataclass, field, fields
from operator import itemgetter

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


class _Invalid(Exception):
    """A failed check inside the parser.  ``path`` locates the offending
    field below the value being parsed ("" for that value itself) and
    ``problem`` says what is wrong.  Each enclosing level puts its own step
    in front as the error unwinds, and ``from_dict`` turns it into a
    ScenarioError, so a scenario that passes formats no error text."""

    def __init__(self, path: str, problem: str):
        super().__init__(path, problem)
        self.path = path
        self.problem = problem

    def under(self, step: str) -> "_Invalid":
        self.path = step + self.path
        return self


def _within(step: str, parse, *args):
    """``parse(*args)``, a failure located under ``step``."""
    try:
        return parse(*args)
    except _Invalid as bad:
        raise bad.under(step)


def _each(step: str, items: list, parse, *args) -> list:
    """``parse(item, *args)`` for each item, a failure located under
    ``step`` and the item's index."""
    parsed = []
    for i, item in enumerate(items):
        try:
            parsed.append(parse(item, *args))
        except _Invalid as bad:
            raise bad.under(f"{step}[{i}]")
    return parsed


def _reject_unknown(entry: dict, known: frozenset) -> None:
    if not known.issuperset(entry):
        key = next(key for key in entry if key not in known)
        raise _Invalid(f".{key}", "unknown field")


def _get_int(data: dict, key: str, default=None, minimum=None) -> int:
    value = data.get(key, default)
    if value is None:
        raise _Invalid(f".{key}", "required")
    if not isinstance(value, int) or isinstance(value, bool):
        raise _Invalid(f".{key}", "must be an integer")
    if minimum is not None and value < minimum:
        raise _Invalid(f".{key}", f"must be at least {minimum}")
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
        try:
            params = _within("scenario", _parse_run_parameters, data)
            merchants = _within("merchants", _parse_merchants,
                                data.get("merchants"))
            customers = _within("customers", _parse_customers,
                                data.get("customers"), merchants)
            adversary = _within("adversary", _parse_adversary,
                                data.get("adversary", []), len(customers),
                                len(merchants))
        except _Invalid as bad:
            raise ScenarioError(f"{bad.path}: {bad.problem}") from None
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
    if minimum is not None and value < minimum:
        raise ScenarioError(f"{where}: must be at least {minimum}")
    return value


def _parse_run_parameters(data) -> list:
    if not isinstance(data, dict):
        raise _Invalid("", "top level must be a mapping")
    _reject_unknown(data, _TOP_LEVEL_KEYS)
    return [_get_int(data, name, default, minimum)
            for name, (default, minimum) in _PARAMS.items()]


_MERCHANT_KEYS = frozenset({"catalog", "history"})
_HISTORY_KEYS = frozenset({"total", "rejected"})
_POLICY_KEYS = frozenset({"min_grade", "accept_unrated"})
_CUSTOMER_KEYS = frozenset({"balance", "purchases", "policy",
                            "reject_script", "reject_probability"})
_PURCHASE_KEYS = frozenset({"merchant", "product", "quantity", "start"})
_TARGET_KEYS = frozenset({"kind", "edge", "txn"})


def _parse_merchants(raw) -> list:
    if not (isinstance(raw, list) and raw):
        raise _Invalid("", "must be a non-empty list")
    return _each("", raw, _parse_merchant)


def _parse_merchant(entry) -> MerchantSpec:
    if not isinstance(entry, dict):
        raise _Invalid("", "must be a mapping")
    _reject_unknown(entry, _MERCHANT_KEYS)
    catalog = entry.get("catalog")
    if not (isinstance(catalog, dict) and catalog):
        raise _Invalid(".catalog",
                       "must be a non-empty mapping of product to price")
    for product, price in catalog.items():
        if not (isinstance(product, str) and product):
            raise _Invalid(".catalog", "product names must be strings")
        if not (isinstance(price, int) and not isinstance(price, bool)
                and price > 0):
            raise _Invalid(f".catalog.{product}",
                           "price must be a positive integer in minor units")
    history = None
    if "history" in entry:
        history = _within(".history", _parse_history, entry["history"])
    return MerchantSpec(catalog=dict(catalog), history=history)


def _parse_history(h) -> tuple:
    if not isinstance(h, dict):
        raise _Invalid("", "must be a mapping with total and rejected")
    _reject_unknown(h, _HISTORY_KEYS)
    total = _get_int(h, "total", minimum=0)
    rejected = _get_int(h, "rejected", minimum=0)
    if rejected > total:
        raise _Invalid(".rejected", "cannot exceed total")
    return (total, rejected)


def _parse_policy(raw) -> AcceptancePolicy:
    if raw is None:
        return AcceptancePolicy()
    if not isinstance(raw, dict):
        raise _Invalid("", "must be a mapping")
    _reject_unknown(raw, _POLICY_KEYS)
    min_grade = None
    if raw.get("min_grade") is not None:
        name = raw["min_grade"]
        if not (isinstance(name, str) and name in Grade.__members__):
            raise _Invalid(".min_grade",
                           f"must be one of {', '.join(Grade.__members__)}")
        min_grade = Grade[name]
    accept_unrated = raw.get("accept_unrated")
    if not (accept_unrated is None or isinstance(accept_unrated, bool)):
        raise _Invalid(".accept_unrated", "must be a boolean")
    return AcceptancePolicy(min_grade, accept_unrated)


def _parse_customers(raw, merchants: list) -> list:
    if not (isinstance(raw, list) and raw):
        raise _Invalid("", "must be a non-empty list")
    return _each("", raw, _parse_customer, merchants)


def _parse_customer(entry, merchants: list) -> CustomerSpec:
    if not isinstance(entry, dict):
        raise _Invalid("", "must be a mapping")
    _reject_unknown(entry, _CUSTOMER_KEYS)
    balance = _get_int(entry, "balance", minimum=0)
    purchases = entry.get("purchases", [])
    if not isinstance(purchases, list):
        raise _Invalid(".purchases", "must be a list")
    purchases = _each(".purchases", purchases, _parse_purchase, merchants)
    script = entry.get("reject_script", [])
    if not (isinstance(script, list)
            and all(isinstance(v, bool) for v in script)):
        raise _Invalid(".reject_script", "must be a list of booleans")
    prob = entry.get("reject_probability", 0.0)
    if not (isinstance(prob, (int, float)) and not isinstance(prob, bool)
            and 0.0 <= prob <= 1.0):
        raise _Invalid(".reject_probability", "must be in [0, 1]")
    return CustomerSpec(
        balance=balance, purchases=purchases,
        policy=_within(".policy", _parse_policy, entry.get("policy")),
        reject_script=list(script), reject_probability=float(prob))


def _parse_purchase(p, merchants: list) -> PurchaseSpec:
    if not isinstance(p, dict):
        raise _Invalid("", "must be a mapping")
    _reject_unknown(p, _PURCHASE_KEYS)
    midx = _get_int(p, "merchant", minimum=0)
    if midx >= len(merchants):
        raise _Invalid(".merchant", f"no merchant with index {midx}")
    product = p.get("product")
    if not (isinstance(product, str) and product):
        raise _Invalid(".product", "must be a non-empty string")
    catalog = merchants[midx].catalog
    if product not in catalog:
        raise _Invalid(".product",
                       f"merchant {midx} does not sell {product!r}")
    quantity = _get_int(p, "quantity", default=1, minimum=1)
    total = catalog[product] * quantity
    if total > AMOUNT_MAX:
        raise _Invalid(".quantity", f"total price {total} exceeds "
                       f"{AMOUNT_MAX}, the most a token carries")
    start = _get_int(p, "start", minimum=0) if "start" in p else None
    return PurchaseSpec(midx, product, quantity, start)


# The keys an adversary entry of each action kind may hold: action, target
# and trigger, and the option the kind takes.  An absent option keeps its
# AdversaryAction default; amount has none.
_ACTION_KEYS = {
    kind: frozenset({"action", "target", "trigger", *options})
    for kind, options in ((ActionKind.FLIP_BITS, {"bits"}),
                          (ActionKind.REPLACE_AMOUNT, {"amount"}),
                          (ActionKind.REPLAY_TOKEN, {"delay"}),
                          (ActionKind.DELAY, {"delay"}),
                          (ActionKind.DROP, set()))}


def _check_txn(value, customer_ids: set) -> None:
    """Refuse all but a canonical transaction id of an existing customer."""
    try:
        txn = TransactionId.parse(value) if isinstance(value, str) else None
    except ValueError:
        txn = None
    if not (txn is not None and str(txn) == value and txn.serial >= 1):
        raise _Invalid("", "must be a string like C0-1")
    if str(txn.customer) not in customer_ids:
        raise _Invalid("", f"no such customer {str(txn.customer)!r}")


def _parse_adversary(raw, n_customers: int, n_merchants: int) -> list:
    if not isinstance(raw, list):
        raise _Invalid("", "must be a list")
    customer_ids = {f"C{i}" for i in range(n_customers)}
    valid_ids = customer_ids | {f"M{i}" for i in range(n_merchants)}
    valid_ids |= {str(CB0), str(MB0), str(TTP0)}
    return _each("", raw, _parse_action, customer_ids, valid_ids)


def _parse_action(entry, customer_ids: set,
                  valid_ids: set) -> AdversaryAction:
    if not isinstance(entry, dict):
        raise _Invalid("", "must be a mapping")
    name = entry.get("action")
    try:
        kind = ActionKind(name)
    except ValueError:
        raise _Invalid(".action", f"unknown action {name!r}; expected one "
                       f"of {', '.join(a.value for a in ActionKind)}"
                       ) from None
    _reject_unknown(entry, _ACTION_KEYS[kind])
    target = entry.get("target", {}) or {}
    if not isinstance(target, dict):
        raise _Invalid(".target", "must be a mapping")
    _within(".target", _reject_unknown, target, _TARGET_KEYS)
    target_kind = None
    if target.get("kind") is not None:
        try:
            target_kind = MsgKind(target["kind"])
        except ValueError:
            raise _Invalid(".target.kind", "unknown message kind "
                           f"{target['kind']!r}") from None
    target_edge = None
    if target.get("edge") is not None:
        edge = target["edge"]
        if not (isinstance(edge, list) and len(edge) == 2):
            raise _Invalid(".target.edge", "must be [sender, receiver]")
        for eid in edge:
            if not (isinstance(eid, str) and eid in valid_ids):
                raise _Invalid(".target.edge", f"no such entity {eid!r}")
        target_edge = (edge[0], edge[1])
    target_txn = target.get("txn")
    if target_txn is not None:
        _within(".target.txn", _check_txn, target_txn, customer_ids)
    # Unknown options are refused above, so each present one belongs to
    # this kind.
    options = {}
    if "trigger" in entry:
        options["trigger"] = _get_int(entry, "trigger", minimum=1)
    if "bits" in entry:
        bits = entry["bits"]
        if not (isinstance(bits, list) and bits
                and all(isinstance(b, int) and not isinstance(b, bool)
                        and b >= 0 for b in bits)):
            raise _Invalid(".bits", "must be a list of bit offsets")
        options["bit_offsets"] = tuple(bits)
    if kind is ActionKind.REPLACE_AMOUNT:
        amount = _get_int(entry, "amount", minimum=0)
        if amount > AMOUNT_MAX:
            raise _Invalid(".amount", f"must be at most {AMOUNT_MAX}, the "
                           "most a token carries")
        options["amount"] = amount
    if "delay" in entry:
        options["delay"] = _get_int(entry, "delay", minimum=1)
    return AdversaryAction(
        kind=kind, target_kind=target_kind, target_edge=target_edge,
        target_txn=target_txn, **options)


# libyaml's parser where PyYAML was built with it.  From a valid document it
# builds the same values as the pure-Python SafeLoader, the fallback; only
# the wording of a YAML syntax error differs.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_scenario(path) -> ScenarioConfig:
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8")
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"scenario is not valid UTF-8: {exc}") from exc
    # Line ends translated and the file named in errors, as reading the
    # file in text mode would.
    stream = io.StringIO(text, newline=None)
    stream.name = str(path)
    collecting = gc.isenabled()
    gc.disable()
    try:
        data = yaml.load(stream, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"scenario is not valid YAML: {exc}") from exc
    finally:
        if collecting:
            gc.enable()
    return ScenarioConfig.from_dict(data)


# ---------------------------------------------------------------------------
# World construction

def build_world(config: ScenarioConfig) -> World:
    """Instantiate entities with deterministic key material and wire the
    purchase plan."""
    root_rng = ByteStream(config.seed)
    root_key = crypto.new_signing_key(root_rng.fork("root"))
    root_public = root_key.public_key
    # One memo of certificate checks for the whole world, filled on use.
    certs = crypto.CertificateChecks(root_public)

    # One id per entity, shared by the directory, the entities and the plan.
    customer_ids = [EntityId(Role.CUSTOMER, i)
                    for i in range(len(config.customers))]
    merchant_ids = [EntityId(Role.MERCHANT, i)
                    for i in range(len(config.merchants))]
    signing_keys = {}
    directory = {}
    for eid in customer_ids + merchant_ids + [CB0, MB0, TTP0]:
        key = crypto.new_signing_key(root_rng.fork(f"key/{eid}"))
        signing_keys[str(eid)] = key
        directory[str(eid)] = crypto.issue_certificate(
            root_key, str(eid), key.public_key)

    def base_args(eid: EntityId):
        return (eid, signing_keys[str(eid)], directory, certs)

    accounts = {str(eid): spec.balance
                for eid, spec in zip(customer_ids, config.customers)}
    acct_rng = root_rng.fork("cb/account-numbers")
    account_numbers = {str(eid): f"ACCT-{acct_rng.take(8).hex()}"
                       for eid in customer_ids}
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
    for eid, spec in zip(customer_ids, config.customers):
        behavior_seed = int.from_bytes(
            root_rng.fork(f"behavior/{eid}").take(8), "big")
        customer = Customer(*base_args(eid), policy=spec.policy,
                            reject_script=spec.reject_script,
                            reject_probability=spec.reject_probability,
                            behavior=random.Random(behavior_seed))
        entities[str(eid)] = customer
        customers[str(eid)] = customer
    for eid, spec in zip(merchant_ids, config.merchants):
        entities[str(eid)] = Merchant(*base_args(eid), catalog=spec.catalog)
        if spec.history is not None:
            total, rejected = spec.history
            if total:
                ttp.trust[str(eid)] = TrustRecord(total=total,
                                                  rejected=rejected)

    plan = []
    stagger = config.stagger
    for eid, spec in zip(customer_ids, config.customers):
        name = str(eid)
        for j, p in enumerate(spec.purchases):
            start = p.start if p.start is not None else j * stagger
            plan.append((start, name, PurchaseIntent(
                merchant_ids[p.merchant], p.product, p.quantity)))
    plan.sort(key=itemgetter(0, 1))

    return World(seed=config.seed, latency=config.latency,
                 tick_limit=config.tick_limit, entities=entities,
                 customers=customers, cb=cb, mb=mb, ttp=ttp, plan=plan,
                 adversary=list(config.adversary))
