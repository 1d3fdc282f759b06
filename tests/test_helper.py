"""The helper process that verifies hop signatures: its verdicts and its
lifetime."""

import dataclasses
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from tset import crypto
from tset.scenario import build_world, load_scenario
from tset.simnet import Simulation, export_trace

from conftest import send_queued

ROOT = Path(__file__).resolve().parents[1]
# Overlapping purchases: most deliveries are queued behind others.
MIXED = ROOT / "scenarios" / "mixed.yaml"
# One purchase: its certificates go to the helper.
HAPPY = ROOT / "scenarios" / "happy_path.yaml"


def mixed_world():
    return build_world(load_scenario(MIXED))


def _inline_signatures(monkeypatch) -> list:
    """The signatures that crypto.verify checks from now on."""
    seen = []
    real = crypto.verify

    def recorded(key, signature, data):
        seen.append(signature)
        return real(key, signature, data)

    monkeypatch.setattr(crypto, "verify", recorded)
    return seen


# -- verdicts ----------------------------------------------------------------

def test_the_helper_answers_each_check_for_its_own_bytes(keyset):
    data = b"signed part"
    good = crypto.sign(keyset.customer_key, data)
    bad = bytes([good[0] ^ 1]) + good[1:]
    helper = crypto.helper()
    before = helper.verified
    key = keyset.cert_customer.public_key
    checks = helper.send_now([(key, good, data), (key, bad, data),
                              (key, good, data + b"!"),
                              (keyset.cert_merchant.public_key, good, data),
                              (key, b"", data)])
    assert [c.valid() for c in checks] == [True, False, False, False, False]
    assert helper.verified - before == len(checks)
    assert checks[0].covers(key, good, data)
    assert not checks[0].covers(key, good, data + b"!")
    assert not checks[0].covers(key, bad, data)
    assert not checks[0].covers(keyset.cert_merchant.public_key, good, data)


def test_a_check_of_other_bytes_is_verified_inline(keyset, monkeypatch):
    data = b"signed part"
    good = crypto.sign(keyset.customer_key, data)
    bad = bytes([good[0] ^ 1]) + good[1:]
    certs = crypto.CertificateChecks(keyset.root_public)
    cert = keyset.cert_customer
    inline = _inline_signatures(monkeypatch)
    helper = crypto.helper()
    for_good, for_bad = helper.send_now([(cert.public_key, good, data),
                                         (cert.public_key, bad, data)])
    # The check brought is for the good signature; the bad one is verified
    # here, and refused.
    assert not certs.signed(cert, bad, data, for_good)
    # The check of the bad signature answers for it alone.
    assert not certs.signed(cert, bad, data, for_bad)
    assert certs.signed(cert, good, data, for_bad)
    assert inline.count(bad) == 1 and inline.count(good) == 1
    helper.drain()      # the unused verdict, so no later count takes it


def test_send_now_sends_more_checks_than_the_answers_owed_can_hold(
        keyset, monkeypatch):
    data = b"signed part"
    good = crypto.sign(keyset.customer_key, data)
    bad = bytes([good[0] ^ 1]) + good[1:]
    key = keyset.cert_customer.public_key
    monkeypatch.setattr(crypto, "_ANSWER_ROOM", 3)
    helper = crypto.helper()
    before = helper.verified
    checks = helper.send_now([(key, sig, data)
                              for sig in (good, bad, good, good, bad, good,
                                          bad)])
    assert all(c.sent for c in checks)
    assert [c.valid() for c in checks] \
        == [True, False, True, True, False, True, False]
    assert helper.verified - before == 7


def test_top_up_sends_only_checks_the_helper_can_answer_in_time(
        keyset, monkeypatch):
    data = b"signed part"
    good = crypto.sign(keyset.customer_key, data)
    key = keyset.cert_customer.public_key
    helper = crypto.helper()
    before = helper.verified
    # One check is left in the helper: a check due two positions on would
    # be its second, so it could not be answered in time; one due three
    # positions on could.
    monkeypatch.setattr(crypto.Helper, "backlog", lambda self: 1)
    soon = helper.check(key, good, data, ahead=2, now=10)
    later = helper.check(key, good, data, ahead=3, now=10)
    helper.top_up(10)
    assert later.sent and not soon.sent
    assert helper.withdraw(soon) is None and helper.withdraw(later) is later
    assert later.valid()
    assert helper.verified - before == 1
    # With two checks left the helper is sent nothing.
    monkeypatch.setattr(crypto.Helper, "backlog", lambda self: 2)
    far = helper.check(key, good, data, ahead=90, now=10)
    helper.top_up(10)
    assert not far.sent
    helper.drain()
    assert helper.verified - before == 1


def test_a_check_goes_by_the_deliveries_queued_ahead_of_it(keyset):
    data = b"signed part"
    good = crypto.sign(keyset.customer_key, data)
    key = keyset.cert_customer.public_key
    helper = crypto.helper()
    # Nothing ahead: the caller verifies it.
    assert helper.check(key, good, data, ahead=0, now=4) is None
    # One ahead: sent at once.
    at_once = helper.check(key, good, data, ahead=1, now=4)
    assert at_once.sent and helper.withdraw(at_once) is at_once
    assert at_once.valid()
    # More: queued, due once the deliveries ahead of it are made.
    queued = helper.check(key, good, data, ahead=2, now=4)
    assert not queued.sent and queued.due == 6
    assert helper.withdraw(queued) is None


def test_the_verdict_of_a_check_never_sent_is_refused(keyset):
    data = b"signed part"
    good = crypto.sign(keyset.customer_key, data)
    helper = crypto.helper()
    before = helper.verified
    queued = helper.check(keyset.cert_customer.public_key, good, data,
                          ahead=2, now=0)
    with pytest.raises(ValueError):
        queued.valid()
    assert not queued.sent and queued.verdict is None
    assert helper.withdraw(queued) is None
    helper.drain()
    assert helper.verified == before


def test_a_read_for_an_answer_not_yet_written_counts_as_a_wait(keyset):
    data = b"signed part"
    good = crypto.sign(keyset.customer_key, data)
    key = keyset.cert_customer.public_key
    helper = crypto.helper()
    [ready] = helper.send_now([(key, good, data)])
    while helper.backlog():
        time.sleep(0.001)
    waits = helper.waits
    assert ready.valid() and helper.waits == waits
    # A stopped helper answers nothing until it is continued, so the read
    # for this answer blocks.
    os.kill(helper.pid, signal.SIGSTOP)
    try:
        [pending] = helper.send_now([(key, good, data)])
        threading.Timer(0.05, os.kill, (helper.pid, signal.SIGCONT)).start()
        assert pending.valid()
    finally:
        os.kill(helper.pid, signal.SIGCONT)
    assert helper.waits == waits + 1


class _Forging(Simulation):
    """Flips one bit of the signature of the ``nth`` message sent, and
    notes each refusal with the trace position of its delivery."""

    def __init__(self, world, nth: int):
        super().__init__(world)
        self.nth = nth
        self.sent = 0
        self.forged = None
        self.refused = []

    def send(self, msg, now):
        self.sent += 1
        if self.sent == self.nth:
            flipped = bytearray(msg.signature)
            flipped[0] ^= 0x01
            msg = self.forged = dataclasses.replace(
                msg, signature=bytes(flipped))
        super().send(msg, now)

    def _queue(self, tick, msg, flag):
        super()._queue(tick, msg, flag)
        if msg is self.forged and self._helper is not None:
            # Its check goes to the helper at once, whatever the helper's
            # backlog, so that no host's timing can leave it to be
            # verified inline.
            send_queued(self._helper)

    def _deliver(self, msg, flag, now, check):
        before = len(self.violations)
        super()._deliver(msg, flag, now, check)
        self.refused += [(len(self.trace) - 1, violation)
                         for violation in self.violations[before:]]


@pytest.mark.parametrize("nth", [12, 30])
def test_a_forged_signature_on_the_helper_path_is_refused_as_inline(
        monkeypatch, nth):
    inline = _inline_signatures(monkeypatch)
    offloaded = _Forging(mixed_world(), nth)
    result = offloaded.run()
    # Other deliveries were queued when the forged one was, so its
    # signature went to the helper and was never verified here.
    assert offloaded.forged.signature not in inline
    forged = offloaded.forged
    refusal = (f"BadSignature:{forged.kind.value}:{forged.sender}"
               f"->{forged.receiver}")
    assert refusal in [violation for _, violation in offloaded.refused]

    monkeypatch.setattr(crypto.Helper, "check", lambda self, *check: None)
    reference = _Forging(mixed_world(), nth)
    expected = reference.run()
    assert reference.forged.signature in inline
    assert offloaded.refused == reference.refused
    assert export_trace(result.trace) == export_trace(expected.trace)
    assert result.summary == expected.summary


# -- lifetime ----------------------------------------------------------------

class _KillingHelper(Simulation):
    """Kills the helper process before its ``at``-th delivery."""

    def __init__(self, world, at: int):
        super().__init__(world)
        self.at = at

    def _deliver(self, msg, flag, now, check):
        if len(self.trace) == self.at:
            os.kill(crypto.helper().pid, signal.SIGKILL)
        super()._deliver(msg, flag, now, check)


def test_a_dead_helper_fails_the_run_and_refuses_no_signature():
    expected = Simulation(mixed_world()).run()
    dead = crypto.helper()
    sim = _KillingHelper(mixed_world(), at=10)
    with pytest.raises(crypto.HelperLost):
        sim.run()
    assert not [v for v in sim.violations if v.startswith("BadSignature")]
    assert dead.lost is not None
    # The next run starts a new helper and is whole.
    result = Simulation(mixed_world()).run()
    assert crypto.helper().pid != dead.pid
    assert export_trace(result.trace) == export_trace(expected.trace)
    assert result.summary == expected.summary


def _session(sid: int) -> list[int]:
    """The pids of the processes in session ``sid``, zombies included."""
    pids = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                stat = (entry / "stat").read_text()
            except OSError:
                continue        # it exited while we looked
            if int(stat.rpartition(")")[2].split()[3]) == sid:
                pids.append(int(entry.name))
    return pids


@pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                    reason="reads the process table from /proc")
def test_a_cli_run_leaves_no_helper_behind(tmp_path):
    # Each scenario's run sends checks to a helper: the mixed one for its
    # overlapping purchases, the one-purchase one for its certificates.
    for scenario in (MIXED, HAPPY):
        before = crypto.helper().verified
        Simulation(build_world(load_scenario(scenario))).run()
        assert crypto.helper().verified > before

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    for scenario, purchases in ((MIXED, 4), (HAPPY, 1)):
        out = tmp_path / scenario.stem
        # Its own session: the helper it forks is in it too.  No pipe to
        # it: reading one to its end would wait for the helper as well.
        with open(tmp_path / "stderr", "wb") as stderr:
            proc = subprocess.Popen(
                [sys.executable, "-m", "tset.cli", "run", str(scenario),
                 "--out", str(out)],
                env=env, stdout=subprocess.DEVNULL, stderr=stderr,
                start_new_session=True)
            assert proc.wait(timeout=120) == 0, \
                (tmp_path / "stderr").read_text()
        summary = (out / "summary.txt").read_text()
        assert f"txns_attempted: {purchases}\n" in summary
        deadline = time.monotonic() + 5
        while _session(proc.pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert _session(proc.pid) == [], scenario.name


def test_a_forked_child_starts_its_own_helper():
    expected = export_trace(Simulation(mixed_world()).run().trace)
    parent = crypto.helper()
    verified = parent.verified
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        ok = False
        try:
            os.close(read)
            # The child closed its copies of the parent's pipes at the fork.
            ok = parent.lost is not None
            result = Simulation(mixed_world()).run()
            ours = crypto.helper()
            ok = (ok and ours is not parent and ours.pid != parent.pid
                  and ours.verified > 0
                  and export_trace(result.trace) == expected)
            ours.close()
        finally:
            os.write(write, b"1" if ok else b"0")
            os._exit(0)
    os.close(write)
    answer = os.read(read, 1)
    os.close(read)
    assert os.waitpid(pid, 0)[1] == 0
    assert answer == b"1"
    # The parent's helper answered none of the child's checks and still
    # serves the parent.
    assert parent.lost is None and parent.verified == verified
    assert crypto.helper() is parent
    assert export_trace(Simulation(mixed_world()).run().trace) == expected
    assert parent.verified > verified
