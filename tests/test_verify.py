"""verify.run_suites: the suites in forked workers give the records of a
sequential run_suite loop, raise what a suite raises, leave no process
behind, and never fork on one usable CPU."""

import json
import multiprocessing
import os
import subprocess
import sys

import pytest

from sigma2 import cli
from sigma2 import verify as vf
from sigma2.errors import NumericalFailure


@pytest.fixture()
def cpus(monkeypatch):
    """Set the number of usable CPUs run_suites sees."""
    def usable(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                            raising=False)
    return usable


def test_run_suites_matches_a_run_suite_loop(cpus):
    cpus(2)
    keys = list(vf.SUITES)
    assert vf.run_suites(keys, 3) == [vf.run_suite(k, 3) for k in keys]
    assert multiprocessing.active_children() == []
    keys = ["trig_limit", "algebra"]
    assert vf.run_suites(keys, 5, 2) == [vf.run_suite(k, 5, 2) for k in keys]


def _planted(rng, samples):
    raise NumericalFailure("planted failure")


def test_worker_error_gives_the_in_process_record(cpus, capsys, monkeypatch):
    # the forked workers inherit the patched table
    monkeypatch.setattr(vf, "SUITES", {
        "trig_limit": vf.SUITES["trig_limit"],
        "planted": vf.Suite("planted", _planted, 1, {})})
    outputs = []
    for n in (2, 1):
        cpus(n)
        code = cli.main(["verify", "--suite", "trig_limit,planted"])
        outputs.append((code, capsys.readouterr().out))
        assert multiprocessing.active_children() == []
    assert outputs[0] == outputs[1]
    code, out = outputs[0]
    assert code == 2
    assert json.loads(out) == {"schema": "sigma2/1", "error": "NumericalFailure",
                               "message": "planted failure"}


def test_verify_leaves_no_process_behind(cpus, capsys):
    cpus(2)
    code, out = cli.main(["verify", "--suite", "algebra,trig_limit",
                          "--samples", "2"]), capsys.readouterr().out
    assert code == 0 and json.loads(out[out.index("{"):])["all_passed"]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("affinity", ["one CPU", "no affinity call"])
def test_forks_nothing_below_two_usable_cpus(affinity, cpus, capsys, monkeypatch):
    def no_fork():
        raise AssertionError(f"forked with {affinity}")

    if affinity == "one CPU":
        cpus(1)
    else:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "fork", no_fork)
    assert cli.main(["verify", "--suite", "algebra,trig_limit",
                     "--samples", "2"]) == 0
    capsys.readouterr()


def test_multiprocessing_not_imported_with_the_cli():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = "import sys, sigma2.cli; sys.exit('multiprocessing' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": src}).returncode == 0
