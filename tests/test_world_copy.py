"""Worlds copy: ``copy.deepcopy`` of a built world, or of a simulation
between two events, runs on to the same five artifacts as the original.

A world holds only plain values (raw keys, stream keys and offsets), so
nothing in it refuses to be copied.  The process's signature helper is
not part of a world: a running simulation is copied with it shared
through the memo, at a delivery boundary where no world is owed a
verdict, so that the copy and the original never wait on each other's
checks.
"""

import copy
from pathlib import Path

import pytest

from tset.cli import _state_json
from tset.scenario import build_world, load_scenario
from tset.simnet import Simulation, export_trace, render_summary
from tset.trust import render_table

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
NAMES = ["happy_path", "tamper", "mixed"]


def artifacts(result) -> dict:
    """The five files ``tset run`` writes, by name."""
    return {"trace.log": export_trace(result.trace),
            "summary.txt": render_summary(result.summary),
            "trust_table.txt": render_table(result.trust),
            "ledger.bin": result.ledger.to_bytes(),
            "state.json": _state_json(result)}


def built(name: str):
    return build_world(load_scenario(SCENARIOS / f"{name}.yaml"))


def owed(world) -> list:
    """Every check some entity of ``world`` is owed by the helper."""
    return [check for entity in world.entities.values()
            for checks in entity.certs._owed.values() for check in checks]


@pytest.mark.parametrize("name", NAMES)
def test_a_built_world_copies_to_the_same_artifacts(name):
    original = built(name)
    copied = copy.deepcopy(original)
    assert copied.cb is not original.cb
    assert copied.cb.keys == original.cb.keys
    # The original runs first, so any state the two shared would show in
    # the copy's run.
    expected = artifacts(Simulation(original).run())
    assert artifacts(Simulation(copied).run()) == expected
    assert expected == artifacts(Simulation(built(name)).run())


class _CopiedMidway(Simulation):
    """A simulation that deep-copies itself, sharing the process's helper,
    at the first delivery boundary past half of ``deliveries`` at which no
    entity is owed a check."""

    def __init__(self, world, deliveries: int):
        super().__init__(world)
        self.after = deliveries // 2
        self.made = 0
        self.copied = None
        self.heap_at_copy = None

    def _deliver(self, msg, flag, now):
        super()._deliver(msg, flag, now)
        self.made += 1
        if (self.copied is None and self.made >= self.after
                and not owed(self.world)):
            self.heap_at_copy = len(self._heap)
            self.copied = False         # so that the copy copies nothing
            self.copied = copy.deepcopy(self, {id(self._helper): self._helper})


@pytest.mark.parametrize("name", NAMES)
def test_a_running_world_copied_between_deliveries_ends_the_same(name):
    expected = artifacts(Simulation(built(name)).run())
    deliveries = expected["trace.log"].count("\n")
    sim = _CopiedMidway(built(name), deliveries)
    original = artifacts(sim.run())
    midway = sim.copied
    assert midway, "no delivery boundary with nothing owed"
    assert midway._helper is sim._helper
    assert owed(midway.world) == []
    assert midway.heap_at_copy > 0 and len(midway.trace) < deliveries
    assert artifacts(midway.run()) == original == expected
