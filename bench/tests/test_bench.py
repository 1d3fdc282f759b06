"""Tests of the benchmark itself: generators, checks, tracing, output.

    PYTHONPATH=src python -m pytest -q bench/tests
"""

import json
import random
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench"), str(ROOT / "tests")]

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads as w  # noqa: E402
import tset.cli  # noqa: E402
import tset.ledger  # noqa: E402
from tset.scenario import ScenarioConfig, build_world  # noqa: E402
from tset.simnet import Simulation, TraceRecord  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def simulate(data):
    return Simulation(build_world(ScenarioConfig.from_dict(data))).run()


def small_mixed(seed=1, customers=3):
    data = w.mixed_input(seed)
    data["customers"] = data["customers"][:customers]
    data["adversary"] = data["adversary"][:w.MIXED_MUTATIONS]
    return data


# -- generators ---------------------------------------------------------------

def test_generators_repeat_for_a_seed_and_differ_across_seeds():
    assert w.tamper_inputs(5) == w.tamper_inputs(5)
    assert w.tamper_inputs(5) != w.tamper_inputs(6)
    assert w.mixed_input(5) == w.mixed_input(5)
    assert w.mixed_input(5) != w.mixed_input(6)


def test_default_seeds_rebuild_the_acceptance_inputs():
    import test_acceptance as acc
    from conftest import basic_scenario

    rnd = random.Random(0xACCE55)
    sweep = [basic_scenario(seed=1000 + i, adversary=[acc.tamper_case(rnd)])
             for i in range(1000)]
    assert w.tamper_inputs(w.DEFAULT_SEEDS["tamper-sweep"]) == sweep

    ours, theirs = w.mixed_input(w.DEFAULT_SEEDS["mixed-load"]), \
        acc.mixed_config()
    for key in ("seed", "stagger", "tick_limit", "merchants"):
        assert ours[key] == theirs[key], key
    assert ours["customers"] == theirs["customers"] + [
        w.STALE_TOKEN_CUSTOMER]
    mutations = w.MIXED_MUTATIONS
    assert ours["adversary"][:mutations] == theirs["adversary"][:mutations]
    # The drops differ on purpose: ours are seeded drops of recoverable
    # kinds plus fixed actions that strand the same purchases on every seed.
    drops = [a for a in ours["adversary"] if a["action"] == "drop"]
    assert len(drops) == w.MIXED_DROPS + len(w.STALE_TOKEN_TXNS)
    assert len(ours["adversary"]) == (mutations + len(drops)
                                      + len(w.STALE_TOKEN_TXNS))


def test_expected_purchases_number_transactions_like_the_simulator():
    data = small_mixed()
    result = simulate(data)
    expected = w.expected_purchases(data)
    assert set(expected) == {t for c in result.world.customers.values()
                             for t in c.phases}
    for txn, st in result.world.ttp.txns.items():
        assert expected[txn][0] == str(st.merchant)
    for txn, amount in result.world.cb.settled_amounts.items():
        assert expected[txn][1] == amount


# -- checks fail on planted wrong results -------------------------------------

def test_tamper_check_passes_then_catches_planted_faults():
    data = w.tamper_inputs(3)[0]
    result = simulate(data)
    assert w.check_tamper_case(data, result) == []

    result.world.mb.accounts["M0"] += 1
    assert w.check_tamper_case(data, result)
    result.world.mb.accounts["M0"] -= 1

    result.world.cb.settled_amounts["C0-1"] = w.TAMPER_PRICE - 1
    assert w.check_tamper_case(data, result)
    result.world.cb.settled_amounts["C0-1"] = w.TAMPER_PRICE

    result.world.cb.accounts["C0"] += 1
    assert w.check_tamper_case(data, result)
    result.world.cb.accounts["C0"] -= 1

    result.trace[:] = [r for r in result.trace if r.kind != "TamperReport"]
    assert w.check_tamper_case(data, result)


def test_mixed_check_passes_then_catches_planted_faults():
    data = small_mixed()
    result = simulate(data)
    assert w.check_mixed(data, result) == []
    world = result.world
    merchant = next(iter(world.mb.accounts))

    world.mb.accounts[merchant] += 1
    assert any("merchant credits" in p for p in w.check_mixed(data, result))
    world.mb.accounts[merchant] -= 1

    txn = next(iter(world.cb.settled_amounts))
    world.cb.settled_amounts[txn] += 1
    assert any(f"{txn} settled" in p for p in w.check_mixed(data, result))
    world.cb.settled_amounts[txn] -= 1

    payout = next(r for r in result.trace
                  if r.kind == "Settlement" and r.sender == "MB0")
    result.trace.append(TraceRecord(**vars(payout)))
    assert any("settled twice" in p for p in w.check_mixed(data, result))
    result.trace.pop()

    data["customers"][0]["purchases"].append(
        dict(data["customers"][0]["purchases"][0]))
    assert any("attempted" in p for p in w.check_mixed(data, result))


def test_stranding_actions_are_counted_as_unfinished():
    data = small_mixed()
    assert w.unfinished(simulate(data).world) == []
    data["adversary"] += [
        {"action": "drop", "trigger": 1,
         "target": {"kind": "TrustLookup", "txn": "C2-2"}},
        {"action": "flip_bits", "bits": [w.STALE_TOKEN_BIT], "trigger": 1,
         "target": {"kind": "TokenIssued", "txn": "C1-3"}},
        {"action": "drop", "trigger": 2,
         "target": {"kind": "TokenRequest", "txn": "C1-3"}}]
    result = simulate(data)
    assert w.unfinished(result.world) == ["C1-3", "C2-2"]
    assert str(result.world.mb.phases["C1-3"]) == "AcquirerPhase.AWAIT_PAYMENT"
    assert result.summary["quiescent"]
    assert w.check_mixed(data, result) == []


@pytest.fixture(scope="module")
def audited_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("dispute")
    scenario = out / "scenario.yaml"
    scenario.write_text(json.dumps(small_mixed()))
    result, _ = tset.cli.run_scenario(scenario, out_dir=out)
    blob = (out / "ledger.bin").read_bytes()
    ledger = tset.ledger.Ledger.load(out / "ledger.bin")
    txns = sorted({e.txn for e in result.ledger.entries})
    reports = [tset.ledger.dispute_report(ledger, t) for t in txns]
    return out, result, blob, reports


def test_dispute_check_passes_then_catches_planted_faults(audited_run):
    _out, result, blob, reports = audited_run
    entries = result.ledger.entries
    assert w.check_reports(reports, entries, blob) == []

    dropped = [dict(r) for r in reports]
    dropped[0]["entries"] = dropped[0]["entries"][1:]
    assert w.check_reports(dropped, entries, blob)

    swapped = [dict(r) for r in reports]
    swapped[0]["entries"] = list(reversed(swapped[0]["entries"]))
    assert w.check_reports(swapped, entries, blob)

    wrong_head = [dict(r) for r in reports]
    wrong_head[-1]["chain_head"] = "00" * 32
    assert w.check_reports(wrong_head, entries, blob)

    short = [dict(r) for r in reports]
    short[0]["chain_length"] -= 1
    assert w.check_reports(short, entries, blob)

    bad_link = bytearray(blob)
    bad_link[-1] ^= 1
    assert w.check_reports(reports, entries, bytes(bad_link))


def test_flip_check_catches_a_loader_that_accepts(audited_run, tmp_path,
                                                  monkeypatch):
    _out, _result, blob, _reports = audited_run
    for pos in (0, 5, len(blob) // 2, len(blob) - 1):
        assert w.check_flip_detected(blob, pos, tmp_path / "f.bin") == []
    monkeypatch.setattr(tset.ledger.Ledger, "load",
                        staticmethod(lambda path: tset.ledger.Ledger()))
    assert w.check_flip_detected(blob, 7, tmp_path / "f.bin")


# -- tracing and output -------------------------------------------------------

def _traced_tamper():
    with tracer.Tracer() as tr:
        outcome = w.run_tamper(7, 0.0, True, tr.paused)
    return tr.layers(), outcome


def test_traced_call_counts_repeat_and_tracing_uninstalls():
    original = tset.crypto.verify
    first, outcome = _traced_tamper()
    second, _ = _traced_tamper()
    assert tset.crypto.verify is original
    assert ({k: v["calls"] for k, v in first.items()}
            == {k: v["calls"] for k, v in second.items()})
    assert first["simnet.run"]["calls"] == w.TAMPER_ROUND
    assert first["crypto.verify"]["self_ms"] > 0
    # checks run untraced: no ledger serialisation outside appends
    assert first["ledger.to_bytes"]["calls"] == 0

    metrics = tracer.per_layer(first, outcome.deliveries)
    assert {n: u for n, (_v, u) in metrics.items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}


def test_host_speed_leaves_its_samples_out_and_scales_by_them():
    previous = signal.getsignal(signal.SIGALRM)
    with hostspeed.HostSpeed() as speed:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.5:
            pass
        span = (start, time.perf_counter())
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert len(speed.starts) >= 3
    inside = sum(s for t, s in zip(speed.starts, speed.spent_s)
                 if span[0] <= t < span[1])
    assert inside > 0
    assert speed.host_s(span) == pytest.approx(span[1] - span[0] - inside)
    rate = sum(hostspeed.REFERENCE_KERNEL_S / k
               for k in speed.kernel_s) / len(speed.kernel_s)
    assert speed.reference_s(span) == pytest.approx(speed.host_s(span) * rate)


def test_output_line_names_every_end_to_end_metric(capsys):
    assert run.main(["--workload", "tamper-sweep", "--seed", "9",
                     "--seconds", "0"]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0
    assert last["attempted"] == w.TAMPER_ROUND
    assert {n: m["unit"] for n, m in last["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in last["metrics"].values())


def test_refuses_optimized_python_and_missing_program(tmp_path):
    opt = subprocess.run([sys.executable, "-O", str(ROOT / "bench/run.py"),
                          "--workload", "tamper-sweep"],
                         capture_output=True, text=True, timeout=60)
    assert opt.returncode == run.EXIT_UNUSABLE
    assert "-O" in opt.stderr

    # Only the benchmark's own files, without the program.
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    bare = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "mixed-load"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert bare.returncode == run.EXIT_UNUSABLE
    assert bare.stdout == ""
