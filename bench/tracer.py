"""Spans around the program's public functions, installed from outside it.

A traced run wraps each function on the module or class attribute where the
program looks the name up (``entities.py`` calls ``tokens.seal_token`` and
``m.verify_message``, ``cli.py`` calls the ``build_world`` it imported), so
the program itself is unchanged.  Every call becomes one span: layer name,
parent span, start and end in nanoseconds.  Spans are kept in compact
arrays while the workload runs and are written out after it ends.  A span's
self time is its duration minus the durations of its child spans; the
simulator is single-threaded, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
import zlib
from array import array
from pathlib import Path

import tset.cli
import tset.crypto
import tset.entities
import tset.ledger
import tset.messages
import tset.scenario
import tset.simnet
import tset.tokens
import tset.trust


def _public_methods(cls) -> list[str]:
    return [name for name, value in vars(cls).items()
            if not name.startswith("_")
            and (callable(value) or isinstance(value, staticmethod))]


def targets() -> list[tuple[str, object, str]]:
    """(layer name, owner, attribute) for every wrapped function."""
    c, m, t, e, s, led = (tset.crypto, tset.messages, tset.tokens,
                          tset.entities, tset.simnet, tset.ledger)
    out = [
        ("crypto.sign", c, "sign"),
        ("crypto.verify", c, "verify"),
        ("crypto.verify_certificate", c, "verify_certificate"),
        ("messages.signing_bytes", m.ProtocolMessage, "signing_bytes"),
        ("messages.canonical_bytes", m.ProtocolMessage, "canonical_bytes"),
        ("messages.digest", m.ProtocolMessage, "digest"),
        ("messages.sign_message", m, "sign_message"),
        ("messages.verify_message", m, "verify_message"),
        ("tokens.seal_token", t, "seal_token"),
        ("tokens.open_token", t, "open_token"),
        ("tokens.generate_token", t.TokenMint, "generate_token"),
        ("entities.step", e.Entity, "step"),
        ("simnet.run", s.Simulation, "run"),
        ("simnet.send", s.Simulation, "send"),
        ("simnet.wants", s.AdversaryAction, "wants"),
        ("ledger.entry_to_bytes", led.LedgerEntry, "to_bytes"),
        ("ledger.dispute_report", led, "dispute_report"),
        ("ledger.dispute_report", tset.cli, "dispute_report"),
        ("scenario.from_dict", tset.scenario.ScenarioConfig, "from_dict"),
        ("scenario.load_scenario", tset.scenario, "load_scenario"),
        ("scenario.load_scenario", tset.cli, "load_scenario"),
        ("scenario.build_world", tset.scenario, "build_world"),
        ("scenario.build_world", tset.cli, "build_world"),
        ("cli.run_scenario", tset.cli, "run_scenario"),
        ("cli.trust_table", tset.cli, "trust_table"),
        ("trust.render_table", tset.trust, "render_table"),
        ("trust.render_table", tset.cli, "render_table"),
    ]
    # Subclasses that override pending_timers count as the same layer.
    for cls in (e.Entity, *e.Entity.__subclasses__()):
        if "pending_timers" in vars(cls):
            out.append(("entities.pending_timers", cls, "pending_timers"))
    out += [(f"simnet.{name}", s.InvariantMonitor, name)
            for name in _public_methods(s.InvariantMonitor)]
    out += [(f"ledger.{name}", led.Ledger, name)
            for name in _public_methods(led.Ledger)]
    return out


class Tracer:
    """Records spans while installed; ``with Tracer() as tr:``."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("H")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object, object]] = []

    def _wrap(self, layer: str, fn):
        if layer not in self.names:
            self.names.append(layer)
        nid = self.names.index(layer)
        name_of, parent, starts, ends = (self.name_of, self.parent,
                                         self.start, self.end)
        stack, clock = self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_of.append(nid)
            parent.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
        return traced

    def __enter__(self) -> "Tracer":
        wrapped: dict[object, object] = {}
        for layer, owner, attr in targets():
            raw = (vars(owner)[attr] if isinstance(owner, type)
                   else getattr(owner, attr))
            is_static = isinstance(raw, staticmethod)
            fn = raw.__func__ if is_static else raw
            if fn not in wrapped:
                wrapped[fn] = self._wrap(layer, fn)
            self._patches.append((owner, attr, raw, staticmethod(wrapped[fn])
                                  if is_static else wrapped[fn]))
        self._install()
        return self

    def __exit__(self, *exc) -> None:
        self._uninstall()

    def _install(self) -> None:
        for owner, attr, _raw, traced in self._patches:
            setattr(owner, attr, traced)

    def _uninstall(self) -> None:
        for owner, attr, raw, _traced in reversed(self._patches):
            setattr(owner, attr, raw)

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside are not traced: the benchmark's own checks."""
        self._uninstall()
        try:
            yield
        finally:
            self._install()

    # -- after the run ---------------------------------------------------

    def layers(self) -> dict[str, dict]:
        """Per layer: calls, total_ms, self_ms, and for LedgerEntry.to_bytes
        the calls made inside a dispute report."""
        n = len(self.start)
        child = array("q", bytes(8 * n))
        inside = bytearray(n)
        dispute = (self.names.index("ledger.dispute_report")
                   if "ledger.dispute_report" in self.names else -1)
        out = {name: {"calls": 0, "total_ns": 0, "self_ns": 0,
                      "in_dispute": 0} for name in self.names}
        name_of, parent, start, end = (self.name_of, self.parent,
                                       self.start, self.end)
        for i in range(n):
            p = parent[i]
            dur = end[i] - start[i]
            if p >= 0:
                child[p] += dur
                inside[i] = inside[p]
            if name_of[i] == dispute:
                inside[i] = 1
        for i in range(n):
            row = out[self.names[name_of[i]]]
            dur = end[i] - start[i]
            row["calls"] += 1
            row["total_ns"] += dur
            row["self_ns"] += dur - child[i]
            row["in_dispute"] += inside[i]
        return {name: {"calls": row["calls"],
                       "total_ms": row["total_ns"] / 1e6,
                       "self_ms": row["self_ns"] / 1e6,
                       "in_dispute": row["in_dispute"]}
                for name, row in out.items()}

    def write(self, path: Path) -> None:
        """Spans as a JSON header line, then zlib-compressed arrays
        (name index u16, parent index i32, start ns i64, end ns i64)."""
        header = {"names": self.names, "spans": len(self.start),
                  "arrays": ["name:H", "parent:i", "start_ns:q", "end_ns:q"]}
        body = b"".join(a.tobytes() for a in (self.name_of, self.parent,
                                               self.start, self.end))
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            fh.write(zlib.compress(body, 1))


def span_cost(calls: int = 100_000, repeats: int = 5) -> float:
    """Host seconds one span adds to a call: a wrapped no-op against the
    bare no-op, the best of ``repeats`` loops of ``calls`` calls."""
    def noop():
        return None

    traced = Tracer()._wrap("noop", noop)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            traced()
        best = min(best, (time.perf_counter() - start - bare) / calls)
    return best


# Layers whose call counts and whose self times BENCHMARK.json lists.  A
# layer a workload does not use reads 0 there: the read path and the CLI
# on the simulation workloads.
COUNTED = ("crypto.verify", "crypto.verify_certificate", "crypto.sign",
           "messages.signing_bytes", "messages.canonical_bytes",
           "messages.digest", "tokens.seal_token", "tokens.open_token",
           "tokens.generate_token", "entities.step", "entities.pending_timers",
           "simnet.send", "simnet.wants", "ledger.append", "ledger.verify",
           "scenario.build_world")
TIMED = ("crypto.verify", "crypto.sign", "messages.verify_message",
         "tokens.seal_token", "tokens.open_token", "entities.step",
         "entities.pending_timers", "simnet.run", "simnet.check_privacy",
         "simnet.after_delivery", "ledger.append", "ledger.from_bytes",
         "ledger.verify", "ledger.dispute_report", "scenario.build_world",
         "scenario.from_dict", "cli.run_scenario", "cli.trust_table",
         "trust.render_table")


def per_layer(layers: dict[str, dict],
              deliveries: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics named in BENCHMARK.json, from ``layers()``,
    as name -> (value, unit).  Each ratio states its base in its unit."""
    def row(name):
        return layers.get(name, {"calls": 0, "self_ms": 0.0, "in_dispute": 0})

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {f"{name}.calls": (row(name)["calls"], "count")
               for name in COUNTED}
    metrics.update({f"{name}.self_ms": (row(name)["self_ms"], "ms")
                    for name in TIMED})
    encodings = (row("messages.signing_bytes")["calls"]
                 + row("messages.canonical_bytes")["calls"])
    metrics.update({
        "crypto.verify.per_delivery": (
            ratio(row("crypto.verify")["calls"], deliveries),
            "calls/delivery"),
        "messages.encodings.per_delivery": (
            ratio(encodings, deliveries), "calls/delivery"),
        "simnet.wants.per_send": (
            ratio(row("simnet.wants")["calls"], row("simnet.send")["calls"]),
            "calls/send"),
        "ledger.hashed_entries.per_dispute": (
            ratio(row("ledger.entry_to_bytes")["in_dispute"],
                  row("ledger.dispute_report")["calls"]), "entries/report"),
    })
    return metrics
