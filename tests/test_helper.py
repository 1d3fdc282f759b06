"""The helper process that verifies hop signatures: its verdicts and its
lifetime."""

import dataclasses
import os
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from tset import crypto, messages as m
from tset.messages import MsgKind as K, ProtocolMessage, TransactionId
from tset.scenario import build_world, load_scenario
from tset.simnet import Simulation, export_trace

from conftest import send_checks

ROOT = Path(__file__).resolve().parents[1]
# Overlapping purchases: most deliveries are queued behind others.
MIXED = ROOT / "scenarios" / "mixed.yaml"
# One purchase: a few of its hops are queued behind others.
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
    checks = send_checks(helper, [
        (key, good, data), (key, bad, data), (key, good, data + b"!"),
        (keyset.cert_merchant.public_key, good, data), (key, b"", data)])
    assert [c.valid() for c in checks] == [True, False, False, False, False]
    assert helper.verified - before == len(checks)


def _checked_certs(keyset) -> crypto.CertificateChecks:
    """Checks against the fixture's root, both certificates checked."""
    certs = crypto.CertificateChecks(keyset.root_public)
    assert certs.valid(keyset.cert_customer)
    assert certs.valid(keyset.cert_merchant)
    return certs


def test_a_check_of_other_bytes_is_verified_inline(keyset, monkeypatch):
    data = b"signed part"
    good = crypto.sign(keyset.customer_key, data)
    bad = bytes([good[0] ^ 1]) + good[1:]
    certs = _checked_certs(keyset)
    cert = keyset.cert_customer
    inline = _inline_signatures(monkeypatch)
    helper = crypto.helper()
    before = helper.verified
    certs.expect(helper, cert.public_key, good, data)
    certs.expect(helper, cert.public_key, bad, data)
    helper.top_up()
    # No check is owed to these bytes: each is verified here, and refused.
    assert not certs.signed(cert, good, data + b"!")
    assert not certs.signed(keyset.cert_merchant, good, data)
    assert inline == [good, good]
    # Each owed check answers its own bytes, taken in any order: the
    # answers come in the order the checks were queued.
    assert not certs.signed(cert, bad, data)
    assert certs.signed(cert, good, data)
    assert inline == [good, good]
    assert helper.verified - before == 2
    assert certs._owed == {}


def test_each_check_owed_to_one_triple_is_taken_once(keyset, monkeypatch):
    # A replayed delivery expects a second check of the very same bytes.
    data = b"signed part"
    good = crypto.sign(keyset.customer_key, data)
    certs = _checked_certs(keyset)
    cert = keyset.cert_customer
    inline = _inline_signatures(monkeypatch)
    helper = crypto.helper()
    before = helper.verified
    for _ in range(2):
        certs.expect(helper, cert.public_key, good, data)
    helper.top_up()
    assert certs.signed(cert, good, data) and certs.signed(cert, good, data)
    assert inline == [] and helper.verified - before == 2
    # Both are taken: a third verification is made here.
    assert certs.signed(cert, good, data)
    assert inline == [good]
    assert certs._owed == {}


def test_a_batch_beyond_the_answers_owed_is_sent_in_chunks(
        keyset, monkeypatch):
    data = b"signed part"
    good = crypto.sign(keyset.customer_key, data)
    bad = bytes([good[0] ^ 1]) + good[1:]
    key = keyset.cert_customer.public_key
    monkeypatch.setattr(crypto, "_ANSWER_ROOM", 3)
    helper = crypto.helper()
    before = helper.verified
    checks = send_checks(helper, [(key, sig, data)
                                  for sig in (good, bad, good, good, bad,
                                              good, bad)])
    assert all(c.sent for c in checks)
    assert [c.valid() for c in checks] \
        == [True, False, True, True, False, True, False]
    assert helper.verified - before == 7


def _writes(monkeypatch) -> list:
    """The batches written to the helper's pipe of checks from now on."""
    writes = []
    real = crypto._write

    def recorded(fd, data):
        writes.append(data)
        real(fd, data)

    monkeypatch.setattr(crypto, "_write", recorded)
    return writes


def test_top_up_sends_every_queued_check_in_one_batch(keyset, monkeypatch):
    data = b"signed part"
    good = crypto.sign(keyset.customer_key, data)
    bad = bytes([good[0] ^ 1]) + good[1:]
    key = keyset.cert_customer.public_key
    helper = crypto.helper()
    before = helper.verified
    writes = _writes(monkeypatch)
    checks = [helper.queue(key, good, data), helper.queue(key, bad, data),
              helper.queue(key, good, data)]
    assert not any(c.sent for c in checks) and writes == []
    helper.top_up()
    assert all(c.sent for c in checks) and len(writes) == 1
    # Nothing is left to send.
    helper.top_up()
    assert len(writes) == 1
    assert [c.valid() for c in checks] == [True, False, True]
    assert helper.verified - before == 3


def test_a_check_goes_by_the_deliveries_queued_ahead_of_it():
    world = mixed_world()
    sim = Simulation(world)
    sim._helper = crypto.helper()
    customer, merchant = world.customers["C0"], world.entities["M0"]
    browse = m.sign_message(
        ProtocolMessage(K.BROWSE, customer.id, merchant.id,
                        TransactionId(customer.id, 1), m.Browse("widget", 1)),
        customer._key)
    # Nothing ahead: the receiver verifies it.
    sim._queue(1, browse, "ok")
    assert merchant.certs._owed == {}
    # Any delivery ahead, however many: expected, and queued for the next
    # top-up.
    for tick in (2, 3, 4):
        sim._queue(tick, browse, "replayed")
    queued = merchant.certs._owed[customer.certificate.public_key,
                                  browse.signature, browse.signed_part]
    assert len(queued) == 3 and not any(c.sent for c in queued)
    sim._helper.top_up()
    assert all(c.sent and c.valid() for c in queued)


def test_the_verdict_of_a_check_never_sent_is_refused(keyset):
    data = b"signed part"
    good = crypto.sign(keyset.customer_key, data)
    certs = _checked_certs(keyset)
    cert = keyset.cert_customer
    helper = crypto.helper()
    before = helper.verified
    # Expected, but not yet written to the helper.
    certs.expect(helper, cert.public_key, good, data)
    [queued] = certs._owed[cert.public_key, good, data]
    with pytest.raises(ValueError):
        certs.signed(cert, good, data)
    assert not queued.sent and queued.verdict is None
    # A drain drops it unsent, and no later top-up sends it.
    helper.drain()
    helper.top_up()
    assert not queued.sent
    assert helper.verified == before


def test_a_read_for_an_answer_not_yet_written_counts_as_a_wait(keyset):
    data = b"signed part"
    good = crypto.sign(keyset.customer_key, data)
    key = keyset.cert_customer.public_key
    helper = crypto.helper()
    [ready] = send_checks(helper, [(key, good, data)])
    assert select.select([helper._answers], [], [], 10)[0]
    waits = helper.waits
    assert ready.valid() and helper.waits == waits
    # A stopped helper answers nothing until it is continued, so the read
    # for this answer blocks.
    os.kill(helper.pid, signal.SIGSTOP)
    try:
        [pending] = send_checks(helper, [(key, good, data)])
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

    def _deliver(self, msg, flag, now):
        before = len(self.violations)
        super()._deliver(msg, flag, now)
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

    monkeypatch.setattr(crypto.CertificateChecks, "expect",
                        lambda self, *check: None)
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

    def _deliver(self, msg, flag, now):
        if len(self.trace) == self.at:
            os.kill(crypto.helper().pid, signal.SIGKILL)
        super()._deliver(msg, flag, now)


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
    # Each scenario's run sends hop checks to a helper: the mixed one many,
    # the one-purchase one a few.
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
