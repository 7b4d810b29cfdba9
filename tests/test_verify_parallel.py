"""The checks of one ``run_verify`` call, shared out between forked helpers.

``run_verify`` runs its checks in the calling process plus up to one
forked helper per further available CPU.  These tests pin that the report
does not depend on how the checks were shared out, that a helper which
dies only costs time, and that no helper outlives the call.  The CPU count
is patched (``forked._available_cpus``) so that both modes run on any host:
one CPU means one process, three mean two helpers.
"""

import os
import signal
import sys
import threading
import time

import pytest
from conftest import deadline

import fockspace.forked as forked
import fockspace.partitions as partitions_module
import fockspace.verify as verify_module
from fockspace.cli import main
from fockspace.partitions import Partition
from fockspace.verify import CHECKS, SUITES, Check, run_verify
from test_relation_matrices import drop_e_image

MODULI = [0, 2, 3, 5]


def cpus(monkeypatch, n):
    monkeypatch.setattr(forked, "_available_cpus", lambda: n)


def report_with(monkeypatch, n, *args):
    cpus(monkeypatch, n)
    return run_verify(*args).json_dict()


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def checks_of(*runs):
    return tuple(
        Check("crystal", f"probe_{k}", run, lambda e, d, seed: {}) for k, run in enumerate(runs)
    )


def forbid_fork(monkeypatch):
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("a helper was forked"))


@pytest.mark.parametrize("suite", SUITES)
@pytest.mark.parametrize("e", MODULI)
def test_the_report_is_the_same_in_one_process_and_in_several(monkeypatch, suite, e):
    for d in (4, 5, 6):
        shared = report_with(monkeypatch, 3, suite, e, d)
        assert_no_child_left()
        assert report_with(monkeypatch, 1, suite, e, d) == shared
        assert shared["passed"]


def test_more_helpers_than_cpus_give_the_same_report(monkeypatch):
    with deadline(60):
        shared = report_with(monkeypatch, 8, "all", 3, 6)
    assert_no_child_left()
    assert report_with(monkeypatch, 1, "all", 3, 6) == shared


@pytest.mark.parametrize("e", MODULI)
def test_an_injected_fault_fails_alike_in_both_modes(monkeypatch, e):
    original = partitions_module.removable_boxes
    # remove_box then refuses a box that box_counts hands it
    monkeypatch.setattr(
        partitions_module, "removable_boxes", lambda p: original(p)[:-1] if len(p) == 3 else original(p)
    )
    drop_e_image(monkeypatch, Partition((2, 1)), Partition((1, 1)))
    shared = report_with(monkeypatch, 3, "all", e, 5)
    assert report_with(monkeypatch, 1, "all", e, 5) == shared
    failed = {r["name"]: r["counterexample"] for r in shared["results"] if not r["passed"]}
    assert failed["box_counts"] == "ValueError: box (3, 1) is not removable from [1,1,1]"
    assert failed["commutator"] is not None


def test_a_check_whose_helper_dies_is_run_here(monkeypatch):
    parent = os.getpid()
    died, told = os.pipe()

    def probe(name):
        def run():
            if os.getpid() != parent:
                os.write(told, b"x")
                os._exit(1)
            if name == 0:  # hold this process back while the helpers take the rest
                time.sleep(0.3)
            return f"probe {name} ran here"

        return run

    monkeypatch.setattr(verify_module, "CHECKS", checks_of(*map(probe, range(6))))
    cpus(monkeypatch, 3)
    try:
        with deadline(30):
            report = run_verify("crystal", 3, 2)
        os.set_blocking(died, False)
        assert os.read(died, 16)  # at least one helper took a check and died
    finally:
        os.close(died)
        os.close(told)
    assert [r.counterexample for r in report.results] == [f"probe {k} ran here" for k in range(6)]
    assert_no_child_left()


def test_an_interrupt_in_this_process_ends_the_helpers(monkeypatch):
    parent = os.getpid()

    def interrupt_here_sleep_there():
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)

    monkeypatch.setattr(verify_module, "CHECKS", checks_of(*[interrupt_here_sleep_there] * 4))
    cpus(monkeypatch, 3)
    start = time.perf_counter()
    with deadline(30), pytest.raises(KeyboardInterrupt):
        run_verify("crystal", 3, 2)
    assert time.perf_counter() - start < 30
    assert_no_child_left()


def test_no_child_is_left_after_a_report_or_a_refusal(monkeypatch):
    cpus(monkeypatch, 3)
    assert run_verify("all", 3, 4).passed
    assert_no_child_left()
    with pytest.raises(ValueError):
        run_verify("nope", 3, 4)
    assert_no_child_left()


def test_helpers_reaped_by_an_ignored_sigchld_are_no_error(monkeypatch):
    shared = report_with(monkeypatch, 1, "crystal", 3, 5)
    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        with deadline(30):
            assert report_with(monkeypatch, 3, "crystal", 3, 5) == shared
    finally:
        signal.signal(signal.SIGCHLD, previous)
    assert_no_child_left()


def test_a_process_limit_runs_the_checks_here(monkeypatch):
    def refuse():
        raise BlockingIOError("fork refused")

    shared = report_with(monkeypatch, 1, "blocks", 2, 5)
    monkeypatch.setattr(os, "fork", refuse)
    assert report_with(monkeypatch, 3, "blocks", 2, 5) == shared


def test_helpers_never_exceed_the_cpus_or_the_checks(monkeypatch):
    forks = []
    original = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or original())
    for n, suite, helpers in [(1, "all", 0), (2, "all", 1), (64, "serre", 1), (4, "all", 3)]:
        forks.clear()
        cpus(monkeypatch, n)
        run_verify(suite, 0, 2)
        assert len(forks) == helpers
        assert_no_child_left()
    cpus(monkeypatch, 64)
    assert forked._helper_count(len(CHECKS)) == len(CHECKS) - 1 == 40


def test_under_a_profiler_every_check_runs_here(monkeypatch):
    cpus(monkeypatch, 3)
    forbid_fork(monkeypatch)
    sys.setprofile(lambda frame, event, arg: None)
    try:
        report = run_verify("serre", 3, 4)
    finally:
        sys.setprofile(None)
    assert report.passed


def test_under_a_tracer_every_check_runs_here(monkeypatch):
    cpus(monkeypatch, 3)
    forbid_fork(monkeypatch)
    previous = sys.gettrace()  # a coverage tool may have set one already
    sys.settrace(lambda frame, event, arg: None)
    try:
        report = run_verify("serre", 3, 4)
    finally:
        sys.settrace(previous)
    assert report.passed


def test_with_another_thread_every_check_runs_here(monkeypatch):
    cpus(monkeypatch, 3)
    forbid_fork(monkeypatch)
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        report = run_verify("serre", 3, 4)
    finally:
        done.set()
        thread.join()
    assert report.passed


def test_without_fork_every_check_runs_here(monkeypatch):
    shared = report_with(monkeypatch, 1, "crystal", 3, 5)
    monkeypatch.delattr(os, "fork")
    assert report_with(monkeypatch, 3, "crystal", 3, 5) == shared


def test_the_profile_flag_sees_every_check_of_the_suite(monkeypatch, capsys):
    cpus(monkeypatch, 3)
    forbid_fork(monkeypatch)
    assert main(["--profile", "verify", "--suite", "serre", "--modulus", "3", "--max-size", "6"]) == 0
    table = capsys.readouterr().err
    for check in CHECKS:
        if check.suite == "serre":
            assert f"({check.run.__name__})" in table
