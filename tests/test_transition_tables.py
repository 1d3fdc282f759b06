"""The legality tables are well formed, and docs/transition_tables.md is
their rendering.

Regenerate the doc after editing a table:

    PYTHONPATH=src python tests/test_transition_tables.py > docs/transition_tables.md
"""

import sys
from pathlib import Path

import pytest

from tset.entities import (
    CLOCKS,
    START_PHASE,
    TERMINAL,
    TRANSITION_TABLES,
    Entity,
    Internal,
    MerchantPhase,
    Rule,
    _check_rows,
)
from tset.messages import MsgKind, Role

DOC = Path(__file__).resolve().parents[1] / "docs" / "transition_tables.md"

TITLES = {
    Role.CUSTOMER: "Customer",
    Role.MERCHANT: "Merchant",
    Role.CUSTOMER_BANK: "Customer bank (issuer)",
    Role.MERCHANT_BANK: "Merchant bank (acquirer)",
    Role.TTP: "Trusted third party",
}

PREAMBLE = """\
# Per-role legality tables

Rendered from `tset.entities.TRANSITION_TABLES` by `render_tables()` in
`tests/test_transition_tables.py`, which also checks that this file is
its output byte for byte.  Regenerate it with

    PYTHONPATH=src python tests/test_transition_tables.py > docs/transition_tables.md

Each row is keyed by a phase and either a message kind, `Begin` (the
customer starts a purchase) or `Timer` (the entity's timer for the
transaction fires).  It names the entity method that acts on it, and
lists each branch the method may take: a phase the entity may move to,
with the message kinds it may emit on the way, each to the role named
after it (`C` customer, `M` merchant, `CB` customer bank, `MB` merchant
bank, `TTP` trusted third party).  A `(phase, key)` pair absent from a
table is a protocol violation: it is logged and nothing changes.  A
stale row names no method and absorbs late or duplicate traffic: the
entity emits nothing and stays in its phase.
A method may refuse what it is given by staying in its phase and emitting
nothing.  A method that moves to a phase its row has no branch to, or
emits a kind or addresses a role that the branch it took does not list,
is refused the same way as a peer: the phase stays and the emissions are
dropped.
The terminal phases, from `tset.entities.TERMINAL`, are those in which
the role is done with a purchase; the run summary counts a purchase as
unresolved while any party holds it in another phase.

A phase with a `Timer` row is timed.  Its clock, from
`tset.entities.CLOCKS` and listed under each role's heading, names the
entity setting that gives the ticks from arming the timer to its falling
due, and any condition on arming it.  The entity arms its timer for the
purchase as it enters a timed phase, and arms it afresh on a row marked
`restarts`, which stays in the phase.  Any other row of a timed phase
leaves the timer as it is, and a phase that is not timed holds no timer.
No method arms or clears a timer, so these tables say when each party
holds a running clock.
"""


def _clocks(role) -> str:
    """The timed phases of ``role``, grouped by clock."""
    phases = {}
    for phase, clock in CLOCKS[role].items():
        phases.setdefault(clock, []).append(f"`{phase.value}`")
    return "; ".join(f"{', '.join(names)}: `{clock}`"
                     for clock, names in phases.items()) or "none"


def _branches(rule) -> str:
    """Each next phase with what it emits to whom, in table order; the
    emissions sorted, so the text does not hang on string hashing."""
    kinds, roles = list(MsgKind), list(Role)
    out = []
    for phase, emits in rule.branches.items():
        pairs = sorted(emits, key=lambda pair: (kinds.index(pair[0]),
                                                roles.index(pair[1])))
        sent = ", ".join(f"{kind.value} to {role.value}"
                         for kind, role in pairs)
        out.append(f"{phase.value} ({sent})" if sent else phase.value)
    return "; ".join(out)


def _note(rule) -> str:
    return ("stale" if rule.act is None else "restarts" if rule.restarts
            else "")


def render_tables() -> str:
    """Markdown for every role's table, rows in phase order."""
    out = [PREAMBLE]
    for role, table in TRANSITION_TABLES.items():
        start = START_PHASE[role]
        order = list(type(start))
        terminal = sorted(TERMINAL[role], key=order.index)
        out.append(f"\n## {TITLES[role]} `{role.value}`  "
                   f"(start phase: `{start.value}`; terminal: "
                   f"{', '.join(f'`{p.value}`' for p in terminal)})\n\n")
        out.append(f"Timed phases: {_clocks(role)}.\n\n")
        out.append("| phase | on | method | may move to (emitting) | note |\n")
        out.append("|---|---|---|---|---|\n")
        rows = sorted(table.items(), key=lambda row: order.index(row[0][0]))
        for (phase, kind), rule in rows:
            act = f"`{rule.act}`" if rule.act else "-"
            out.append(f"| {phase.value} | {kind.value} | {act} | "
                       f"{_branches(rule)} | {_note(rule)} |\n")
    return "".join(out)


def entity_classes() -> dict:
    return {cls.role: cls for cls in Entity.__subclasses__()}


def test_doc_is_the_rendered_tables():
    assert DOC.read_text() == render_tables()


def test_every_role_has_a_table():
    assert set(TRANSITION_TABLES) == set(Role)
    assert set(entity_classes()) == set(Role)


def test_all_kinds_in_tables_are_real():
    for table in TRANSITION_TABLES.values():
        for (phase, kind), rule in table.items():
            assert type(kind) in (MsgKind, Internal), (phase, kind)
            emits = {pair for sent in rule.branches.values() for pair in sent}
            assert all(type(out) is MsgKind and type(to) is Role
                       for out, to in emits), (phase, kind, emits)


def test_next_phases_exist_in_same_table():
    for role, table in TRANSITION_TABLES.items():
        phases = type(START_PHASE[role])
        with_rows = {phase for phase, _ in table}
        for (phase, kind), rule in table.items():
            assert isinstance(phase, phases), (role, phase)
            assert rule.branches, (role, phase, kind)
            assert all(isinstance(nxt, phases) for nxt in rule.branches), \
                (role, phase, kind, rule.branches)
            # A phase some row moves to must have rows of its own.
            assert set(rule.branches) <= with_rows, (role, phase, kind)


def test_no_emission_without_transition_rule():
    # Only rows that name a method emit; a stale row keeps the phase.
    for table in TRANSITION_TABLES.values():
        for (phase, kind), rule in table.items():
            if rule.act is None:
                assert type(kind) is MsgKind, (phase, kind)
                assert rule.branches == {phase: frozenset()}, (phase, kind)


def test_terminal_phases_are_not_start_and_have_no_timer():
    assert set(TERMINAL) == set(Role)
    for role, table in TRANSITION_TABLES.items():
        timed = {phase for phase, kind in table if kind is Internal.TIMER}
        for phase in TERMINAL[role]:
            assert isinstance(phase, type(START_PHASE[role])), (role, phase)
            assert phase is not START_PHASE[role], role
            assert phase not in timed, (role, phase)


def test_begin_rows_only_for_the_customer():
    for role, table in TRANSITION_TABLES.items():
        begins = [phase for phase, kind in table if kind is Internal.BEGIN]
        assert begins == ([START_PHASE[role]] if role is Role.CUSTOMER
                          else []), role


def test_timer_rows_only_for_roles_with_timers():
    classes = entity_classes()
    for role, table in TRANSITION_TABLES.items():
        has_rows = any(kind is Internal.TIMER for _, kind in table)
        assert has_rows == ("on_timer" in vars(classes[role])), role
        assert has_rows == ("_due" in vars(classes[role])), role


def test_timed_phases_have_clocks_and_restarts_stay_in_them():
    assert set(CLOCKS) == set(Role)
    for role, table in TRANSITION_TABLES.items():
        timed = {phase for phase, kind in table if kind is Internal.TIMER}
        assert set(CLOCKS[role]) == timed, role
        assert all(CLOCKS[role].values()), role
        for (phase, kind), rule in table.items():
            if rule.restarts:
                assert phase in timed, (role, phase, kind)
                assert list(rule.branches) == [phase], (role, phase, kind)
                assert rule.act is not None, (role, phase, kind)


def test_every_emission_has_a_row_at_its_receiver():
    # What a row may send to a role, that role's table has a row for.
    keyed = {role: {kind for _, kind in table}
             for role, table in TRANSITION_TABLES.items()}
    for role, table in TRANSITION_TABLES.items():
        for (phase, kind), rule in table.items():
            for sent in rule.branches.values():
                for out, to in sent:
                    assert out in keyed[to], (role, phase, kind, out, to)


def test_a_row_naming_a_missing_method_fails_the_load(monkeypatch):
    classes = entity_classes()
    table = dict(TRANSITION_TABLES[Role.MERCHANT])
    table[MerchantPhase.NEW, MsgKind.BROWSE] = Rule(
        "_no_such_method", {MerchantPhase.AWAIT_CONFIRM: frozenset()})
    monkeypatch.setitem(TRANSITION_TABLES, Role.MERCHANT, table)
    with pytest.raises(TypeError, match="Merchant has no method "
                       "'_no_such_method' for row NewxBrowse"):
        _check_rows(*classes.values())


if __name__ == "__main__":
    sys.stdout.write(render_tables())
