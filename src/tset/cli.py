"""Command line for running scenarios and reading their artifacts.

    tset run SCENARIO.yaml [--seed N] [--ticks N] [--deadline N] [--out DIR]
    tset trust-table RUN_DIR_OR_STATE_JSON
    tset dispute RUN_DIR_OR_LEDGER_BIN --txn C0-1

Exit codes: 0 on success, 2 for configuration or usage problems, 3 when a
runtime invariant was violated (funds conservation, double settlement,
privacy leak) or a stored ledger fails integrity verification.

A run writes five files into the output directory: trace.log (tab-separated
delivery log), summary.txt, trust_table.txt, ledger.bin (hash-chained event
history), and state.json (machine-readable post-run state for the other
subcommands).  All five are byte-identical across reruns with the same
scenario and seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .ledger import (Ledger, LedgerIntegrityError, UnknownTransaction,
                     dispute_report)
from .scenario import ScenarioError, build_world, load_scenario
from .simnet import RunResult, Simulation, export_trace, render_summary
from .trust import TrustRecord, render_table

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3


def _state_json(result: RunResult) -> str:
    trust = {
        merchant: {
            "total": rec.total,
            "rejected": rec.rejected,
            "repeats": [[c, p, n]
                        for (c, p), n in sorted(rec.repeats.items())],
        }
        for merchant, rec in sorted(result.trust.items())
    }
    state = {
        "seed": result.world.seed,
        "accounts": {
            "customers": dict(sorted(result.world.cb.accounts.items())),
            "merchants": dict(sorted(result.world.mb.accounts.items())),
            "escrow_pool": result.world.cb.escrow_pool,
        },
        "trust": trust,
        "summary": result.summary,
    }
    return json.dumps(state, indent=2, sort_keys=True) + "\n"


def run_scenario(scenario_path, seed=None, ticks=None, deadline=None,
                 out_dir="out") -> tuple[RunResult, Path]:
    """Library entry point behind ``tset run``: execute and write artifacts.
    ``seed``, ``ticks`` and ``deadline`` replace the scenario's own values
    and must meet the same minimums."""
    config = load_scenario(scenario_path)
    for flag, value in (("--ticks", ticks), ("--deadline", deadline)):
        if value is not None and value < 1:
            raise ScenarioError(f"{flag}: must be at least 1")
    overrides = {"seed": seed, "tick_limit": ticks, "deadline": deadline}
    config = dataclasses.replace(config, **{
        name: value for name, value in overrides.items() if value is not None})
    result = Simulation(build_world(config)).run()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "trace.log").write_text(export_trace(result.trace))
    (out / "summary.txt").write_text(render_summary(result.summary))
    (out / "trust_table.txt").write_text(render_table(result.trust))
    result.ledger.save(out / "ledger.bin")
    (out / "state.json").write_text(_state_json(result))
    return result, out


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _records_from_state(state) -> dict[str, TrustRecord]:
    """The trust records of a state.json; a part of the wrong shape is a
    ValueError that names it."""
    if not isinstance(state, dict):
        raise ValueError("state must be a mapping")
    trust = state.get("trust", {})
    if not isinstance(trust, dict):
        raise ValueError("state.trust must be a mapping")
    records = {}
    for merchant, body in trust.items():
        where = f"state.trust.{merchant}"
        if not isinstance(body, dict):
            raise ValueError(f"{where} must be a mapping")
        for key in ("total", "rejected"):
            if not _is_int(body.get(key)):
                raise ValueError(f"{where}.{key} must be an integer")
        repeats = body.get("repeats", [])
        if not isinstance(repeats, list) or not all(
                isinstance(row, list) and len(row) == 3
                and isinstance(row[0], str) and isinstance(row[1], str)
                and _is_int(row[2]) for row in repeats):
            raise ValueError(f"{where}.repeats must be a list of "
                             "[customer, product, count] rows")
        records[merchant] = TrustRecord(
            total=body["total"], rejected=body["rejected"],
            repeats={(c, p): n for c, p, n in repeats})
    return records


def trust_table(state_path) -> str:
    """Library entry point behind ``tset trust-table``."""
    path = Path(state_path)
    if path.is_dir():
        path = path / "state.json"
    with open(path, "r", encoding="utf-8") as fh:
        state = json.load(fh)
    return render_table(_records_from_state(state))


def _cmd_run(args) -> int:
    try:
        result, out = run_scenario(args.scenario, seed=args.seed,
                                   ticks=args.ticks, deadline=args.deadline,
                                   out_dir=args.out)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"cannot write outputs: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    sys.stdout.write(render_summary(result.summary))
    print(f"artifacts written to {out}/")
    if result.invariant_failures:
        for failure in result.invariant_failures:
            print(f"INVARIANT VIOLATED: {failure}", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def _cmd_trust_table(args) -> int:
    try:
        sys.stdout.write(trust_table(args.state))
    except (OSError, ValueError) as exc:
        print(f"cannot read state: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


def _cmd_dispute(args) -> int:
    path = Path(args.ledger)
    if path.is_dir():
        path = path / "ledger.bin"
    try:
        ledger = Ledger.load(path)
        report = dispute_report(ledger, args.txn)
    except OSError as exc:
        print(f"cannot read ledger: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except LedgerIntegrityError as exc:
        print(f"ledger integrity failure: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except UnknownTransaction as exc:
        print(f"dispute error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    json.dump(report, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tset",
        description="Token-escrow transaction protocol simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario file")
    p_run.add_argument("scenario", help="path to a scenario YAML file")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
    p_run.add_argument("--ticks", type=int, default=None,
                       help="override the tick limit")
    p_run.add_argument("--deadline", type=int, default=None,
                       help="override the arbiter deadline in ticks")
    p_run.add_argument("--out", default="out",
                       help="output directory (default: out)")
    p_run.set_defaults(func=_cmd_run)

    p_table = sub.add_parser("trust-table",
                             help="print the trust table from a run")
    p_table.add_argument("state",
                         help="run output directory or state.json path")
    p_table.set_defaults(func=_cmd_trust_table)

    p_dispute = sub.add_parser("dispute",
                               help="print one transaction's ledger history")
    p_dispute.add_argument("ledger",
                           help="run output directory or ledger.bin path")
    p_dispute.add_argument("--txn", required=True,
                           help="transaction id, e.g. C0-1")
    p_dispute.set_defaults(func=_cmd_dispute)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
