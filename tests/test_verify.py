"""verify.run_suites: the suites in forked workers give the records of a
sequential run_suite loop, raise what a suite raises, leave no process
behind, and never fork on one usable CPU.  verify's samplers, one rng call
per attempt, draw the streams of their scalar-call forms."""

import json
import multiprocessing
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

from sigma2 import cli
from sigma2 import elliptic as el
from sigma2 import sigma as sg
from sigma2 import verify as vf
from sigma2.errors import NumericalFailure

import oracles


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


# --- the samplers' streams ------------------------------------------------------

def _same_stream(seed, new, old, calls):
    """new and old, called in turn on twin rngs, return the same complex
    values bit for bit and leave the rngs in the same state."""
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(calls):
        got, want = new(a), old(b)
        assert [struct.pack("<dd", z.real, z.imag) for z in map(complex, got)] == [
            struct.pack("<dd", z.real, z.imag) for z in map(complex, want)]
    assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("planted", [False, True], ids=["as drawn", "half rejected"])
@pytest.mark.parametrize("seed", range(10))
def test_samplers_draw_the_scalar_streams(seed, planted, monkeypatch):
    # planted: random_gamma rejects every draw with Re g4 > 0 and
    # context_lambda1 refuses every a2 with Re a2 > 0, so both forms redraw
    # (at seeds 0-9 neither sampler rejects a draw by itself)
    delta, build = el.delta_gamma, sg.context_lambda1
    calls = {"gamma": 0, "context": 0}

    def rejecting(g4, g6):
        calls["gamma"] += 1
        return 0.0 if planted and g4.real > 0 else delta(g4, g6)

    def refusing(a2, gamma):
        calls["context"] += 1
        if planted and a2.real > 0:
            raise NumericalFailure("planted")
        return build(a2, gamma)

    def moduli(ctx):
        return ctx.a2, ctx.gamma.gamma4, ctx.gamma.gamma6

    _same_stream(seed, lambda r: [vf._cunit(r)], lambda r: [oracles.cunit_scalar(r)], 20)
    for rad in (1.0, 0.5, 0.02):
        _same_stream(seed, lambda r: [vf._cdisc(r, rad)],
                     lambda r: [oracles.cdisc_scalar(r, rad)], 20)
    with monkeypatch.context() as m:
        m.setattr(el, "delta_gamma", rejecting)
        for rmax in (1.0, 0.02):
            _same_stream(seed, lambda r: vf.random_gamma(r, rmax),
                         lambda r: oracles.random_gamma_scalar(r, rmax), 20)
    with monkeypatch.context() as m:
        m.setattr(sg, "context_lambda1", refusing)
        _same_stream(seed, lambda r: moduli(vf.random_lambda1_context(r)),
                     lambda r: moduli(oracles.random_lambda1_context_scalar(r)), 3)
    ec = el.make_context((0.4 - 0.2j, 0.5 + 0.3j))
    _same_stream(seed, lambda r: next(vf._lattice_pairs(r, ec)),
                 lambda r: oracles.lattice_pair_scalar(r, ec), 20)
    # 2 x 40 gammas and 2 x 3 contexts accepted; planted, more draws each
    assert (calls["gamma"] > 80, calls["context"] > 6) == (planted, planted)


@pytest.mark.parametrize("lo,hi", [(0.0, 1.0), (0.3, 1.0), (0.2, 1.0), (-0.35, 0.35)])
def test_uniform_is_numpys_formula(lo, hi):
    # vf._uniform(lo, hi, rng.random()) is rng.uniform(lo, hi) bit for bit,
    # for every (lo, hi) the samplers use; a numpy that changes its formula
    # fails here
    d = np.random.default_rng(11).random(100_000).tolist()
    want = np.random.default_rng(11).uniform(lo, hi, 100_000)
    assert np.array([vf._uniform(lo, hi, x) for x in d]).tobytes() == want.tobytes()
