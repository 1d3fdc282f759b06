"""The tset command: artifacts, exit codes, and reread paths."""

import importlib.metadata as md
import json
from pathlib import Path

import pytest
import yaml

from tset import simnet
from tset.cli import (
    EXIT_CONFIG,
    EXIT_INVARIANT,
    EXIT_OK,
    main,
    run_scenario,
    trust_table,
)
from tset.ledger import Ledger

from conftest import basic_scenario

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
ARTIFACTS = ["ledger.bin", "state.json", "summary.txt", "trace.log",
             "trust_table.txt"]


@pytest.fixture()
def scenario_file(tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(basic_scenario()))
    return path


def test_run_writes_all_artifacts(scenario_file, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", str(scenario_file), "--out", str(out)])
    assert code == EXIT_OK
    assert sorted(p.name for p in out.iterdir()) == ARTIFACTS
    stdout = capsys.readouterr().out
    assert "txns_completed: 1" in stdout
    assert f"artifacts written to {out}/" in stdout

    trace = (out / "trace.log").read_text()
    assert trace.startswith("tick\tsender\treceiver")
    summary = (out / "summary.txt").read_text()
    assert summary.startswith("seed: 7\n")
    table = (out / "trust_table.txt").read_text()
    assert table.splitlines()[0].split() \
        == ["merchant", "total", "rejected", "tv", "tf", "grade"]
    state = json.loads((out / "state.json").read_text())
    assert state["accounts"]["merchants"] == {"M0": 15000}
    assert state["summary"]["txns_completed"] == 1
    ledger = Ledger.load(out / "ledger.bin")
    assert ledger.entries[-1].event == "Settled"


def test_rerun_is_byte_identical(scenario_file, tmp_path):
    first = tmp_path / "a"
    second = tmp_path / "b"
    run_scenario(scenario_file, out_dir=first)
    run_scenario(scenario_file, out_dir=second)
    for name in ARTIFACTS:
        assert (first / name).read_bytes() == (second / name).read_bytes(), \
            name


def test_seed_override_changes_artifacts(scenario_file, tmp_path):
    base = tmp_path / "a"
    other = tmp_path / "b"
    run_scenario(scenario_file, out_dir=base)
    result, _ = run_scenario(scenario_file, seed=8, out_dir=other)
    assert result.summary["seed"] == 8
    assert (base / "trace.log").read_bytes() \
        != (other / "trace.log").read_bytes()
    state = json.loads((other / "state.json").read_text())
    assert state["seed"] == 8


def test_ticks_override_truncates(scenario_file, tmp_path, capsys):
    code = main(["run", str(scenario_file), "--ticks", "3",
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_OK
    assert "tick_limit_exceeded: True" in capsys.readouterr().out


def test_run_scenario_overrides_win(scenario_file, tmp_path):
    result, _ = run_scenario(scenario_file, seed=77, ticks=44, deadline=33,
                             out_dir=tmp_path / "out")
    assert result.world.seed == 77
    assert result.world.ttp.deadline_ticks == 33
    assert result.world.tick_limit == 44


# The scenario file rejects `deadline: 0` and `tick_limit: 0`; so do the flags.
@pytest.mark.parametrize("flag, value", [("--deadline", "0"),
                                         ("--deadline", "-5"),
                                         ("--ticks", "0")])
def test_run_refuses_an_override_below_the_file_minimum(scenario_file,
                                                        tmp_path, capsys,
                                                        flag, value):
    out = tmp_path / "out"
    code = main(["run", str(scenario_file), flag, value, "--out", str(out)])
    assert code == EXIT_CONFIG
    assert f"{flag}: must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_run_exits_3_on_an_invariant_failure(scenario_file, tmp_path,
                                            monkeypatch, capsys):
    # Plant a leak: the merchant's PurchaseConfirm carries an order number.
    monkeypatch.setattr(simnet, "_FORBIDDEN_AT_COMMERCE",
                        frozenset({"order_number"}))
    out = tmp_path / "out"
    code = main(["run", str(scenario_file), "--out", str(out)])
    assert code == EXIT_INVARIANT
    captured = capsys.readouterr()
    assert "invariant_failures: 1" in captured.out
    assert f"artifacts written to {out}/" in captured.out
    assert captured.err == ("INVARIANT VIOLATED: "
                            "PrivacyLeak:PurchaseConfirm->M0:order_number\n")


def test_run_missing_scenario(tmp_path, capsys):
    code = main(["run", str(tmp_path / "nope.yaml"),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert "scenario error" in capsys.readouterr().err


def test_run_invalid_scenario(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(basic_scenario(colour="red")))
    code = main(["run", str(bad), "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert "scenario.colour" in capsys.readouterr().err


def test_trust_table_accepts_dir_and_file(scenario_file, tmp_path, capsys):
    out = tmp_path / "out"
    run_scenario(scenario_file, out_dir=out)
    assert main(["trust-table", str(out)]) == EXIT_OK
    from_dir = capsys.readouterr().out
    assert main(["trust-table", str(out / "state.json")]) == EXIT_OK
    assert capsys.readouterr().out == from_dir
    assert from_dir == trust_table(out)
    assert "M0" in from_dir


def test_trust_table_missing_state(tmp_path, capsys):
    assert main(["trust-table", str(tmp_path)]) == EXIT_CONFIG
    assert "cannot read state" in capsys.readouterr().err


@pytest.mark.parametrize("state, problem", [
    ({"trust": []}, "state.trust must be a mapping"),
    ({"trust": {"M0": {"total": "x", "rejected": 0}}},
     "state.trust.M0.total must be an integer"),
    ([1], "state must be a mapping"),
], ids=["trust-list", "total-string", "top-level-list"])
def test_trust_table_malformed_state(tmp_path, capsys, state, problem):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state))
    assert main(["trust-table", str(path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"cannot read state: {problem}\n"


def test_dispute_prints_transaction_history(scenario_file, tmp_path, capsys):
    out = tmp_path / "out"
    run_scenario(scenario_file, out_dir=out)
    assert main(["dispute", str(out), "--txn", "C0-1"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["txn"] == "C0-1"
    assert report["chain_length"] == 6
    ledger = Ledger.load(out / "ledger.bin")
    assert report["chain_head"] == ledger.head.hex()
    assert [row["event"] for row in report["entries"]] \
        == ["Deposit", "TempAck", "Dispatch", "Accept", "Release", "Settled"]


def test_dispute_unknown_txn(scenario_file, tmp_path, capsys):
    out = tmp_path / "out"
    run_scenario(scenario_file, out_dir=out)
    assert main(["dispute", str(out), "--txn", "C9-9"]) == EXIT_CONFIG
    assert "dispute error" in capsys.readouterr().err


def test_dispute_corrupted_ledger(scenario_file, tmp_path, capsys):
    out = tmp_path / "out"
    run_scenario(scenario_file, out_dir=out)
    blob = bytearray((out / "ledger.bin").read_bytes())
    blob[len(blob) // 2] ^= 0x01
    (out / "ledger.bin").write_bytes(bytes(blob))
    assert main(["dispute", str(out), "--txn", "C0-1"]) == EXIT_INVARIANT
    assert "integrity" in capsys.readouterr().err


def test_dispute_missing_ledger(tmp_path, capsys):
    assert main(["dispute", str(tmp_path), "--txn", "C0-1"]) == EXIT_CONFIG
    assert "cannot read ledger" in capsys.readouterr().err


def test_console_script_is_wired(capsys):
    """The `tset` command resolves to `tset.cli:main`.

    From a checkout this reads `[project.scripts]` in pyproject.toml and
    resolves it as the generated console script does. Where a `tset`
    distribution is installed, its metadata must declare the same entry.
    """
    try:
        dist = md.distribution("tset")
    except md.PackageNotFoundError:
        pass
    else:
        installed = [ep.value for ep in dist.entry_points
                     if ep.group == "console_scripts" and ep.name == "tset"]
        assert installed == ["tset.cli:main"]

    # Python 3.10 has no tomllib; the installed-metadata check above still ran.
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    assert scripts.get("tset") == "tset.cli:main"

    entry = md.EntryPoint(name="tset", group="console_scripts",
                          value=scripts["tset"])
    command = entry.load()
    assert command is main

    with pytest.raises(SystemExit) as exit_info:
        command(["--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: tset")


# Amounts above the 63-bit bound of a token: a purchase total, and the
# amount a replace_amount action writes into the sealed envelope.
@pytest.mark.parametrize("overrides, field", [
    ({"merchants": [{"catalog": {"widget": 2 ** 62}}],
      "customers": [{"balance": 2 ** 64, "purchases": [
          {"merchant": 0, "product": "widget", "quantity": 3}]}]},
     "customers[0].purchases[0].quantity"),
    ({"adversary": [{"action": "replace_amount", "amount": 2 ** 64,
                     "target": {"kind": "EscrowDeposit"}}]},
     "adversary[0].amount"),
], ids=["purchase-total", "replace-amount"])
def test_run_refuses_an_amount_a_token_cannot_carry(tmp_path, capsys,
                                                    overrides, field):
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(basic_scenario(**overrides)))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert f"scenario error: {field}: " in capsys.readouterr().err
    assert not out.exists()
