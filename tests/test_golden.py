"""Golden digests: the five artifacts of every sample scenario, pinned.

A rerun in the same process (criterion 11) cannot catch a change that alters
behaviour the same way every time.  These sha256 values were taken from the
program before any optimisation of the delivery path; a change that moves
one of them changed what the simulator does, and has to say why.
"""

import hashlib
from pathlib import Path

import pytest

from tset.cli import run_scenario

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

GOLDEN = {
    "happy_path.yaml": {
        "trace.log": "f705f93b155620d4bdcbfd0ff02f5f1e"
                     "c7d94090a220446b76655c7e9f19ede1",
        "summary.txt": "afce0e1629222a0e3aaa587c4d7a34a5"
                       "f97a6c569750c6edc8e2a598f738f876",
        "trust_table.txt": "873a044a7e89a33f620954965f83acc9"
                           "244cded64e31224c94e074501573279a",
        "ledger.bin": "6a3e9a6e5f67cdc35c3bc2f9ef760a18"
                      "8f855896cea47b45052b2446f44d5d83",
        "state.json": "179819a2b33258d79d1252600a2d8a95"
                      "9cc360f8e2d53bf946075258edfea86b",
    },
    "mixed.yaml": {
        "trace.log": "6dd0b11616e2c9270dca7347d2ff4d42"
                     "64ff804ad341dd0b78890c8d31265377",
        "summary.txt": "bec65aed1edaef6a5f2474d46660dcfb"
                       "d3925d8e3f0e7666bc90ed8ff075802c",
        "trust_table.txt": "0f5431b1943512dffdadd5160cb12c01"
                           "cf063e82b50707b188420ed9a84d2116",
        "ledger.bin": "f3fafaff1dafc19930c665f739de1855"
                      "32db04aa808daa4549e520a74c0f9a75",
        "state.json": "e72334770cae32a96c65c631c199e9c4"
                      "1331e0812b2a8629dabd808bc6ea29dd",
    },
    "tamper.yaml": {
        "trace.log": "ab75d59b44bbb3c547dcdef30a125013"
                     "4f58b407a23e1d22cd49dfd81e325ca0",
        "summary.txt": "9b7484ae34cbd813375a348423db427e"
                       "572d80f10ccb827bff272d4f975f970a",
        "trust_table.txt": "3b4167347d9a25dc3e86944a9d98423b"
                           "bde0e76779f7ac4f1770f0e37eba3baf",
        "ledger.bin": "39f27ebedd00b6f6c2d97991cabe2c5d"
                      "4c911110f3f766d84293ba58af25807b",
        "state.json": "32505891ad1c11d1223349d0a3d956c5"
                      "93e655b7c3f257b10fb2778b623db627",
    },
}


def test_every_sample_scenario_is_pinned():
    assert sorted(p.name for p in SCENARIOS.glob("*.yaml")) == sorted(GOLDEN)


@pytest.mark.parametrize("scenario", sorted(GOLDEN))
def test_scenario_artifacts_match_golden_digests(scenario, tmp_path):
    run_scenario(SCENARIOS / scenario, out_dir=tmp_path)
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in GOLDEN[scenario]}
    assert got == GOLDEN[scenario]
