"""The acceptance gate fails where what it certifies is broken.

verify._sample is the one sampler of the suites: it redraws a draw that the
package refuses or that the suite's own conditions reject, and it stops at
verify.DRAWS_PER_SAMPLE draws per sample asked.  A suite whose rows get
fewer samples than asked fails on its `unsampled` detail, and the context
samplers raise at the cap, so a refusing function makes a suite fail in
seconds instead of looping forever or passing on rows that saw nothing.
The planted-defect tests change one constant of the code a suite certifies
by a factor of 1 + 1e-6 (1 + 1e-3 for heat, whose 1e-5 bound on a
normalized residual does not see 1e-5) and check that the suite fails at
seed 7.
"""

import time
import types

import numpy as np
import pytest

from sigma2 import elliptic as el
from sigma2 import inversion as inv
from sigma2 import lattice as lt
from sigma2 import sigma as sg
from sigma2 import spectral as sp
from sigma2 import strata as st
from sigma2 import verify as vf
from sigma2.errors import NumericalFailure, Sigma2Error, SingularConfiguration


def _refuse(*args, **kwargs):
    raise SingularConfiguration("planted refusal")


def _counts():
    return {"refused": 0, "unsampled": 0}


def _scripted(script, drawn):
    """Draws of a scripted sequence, each recorded in drawn when taken."""
    for item in script:
        drawn.append(item)
        yield (item,)


def _evaluate(item):
    """Refuse "refuse", reject "reject", accept anything else."""
    if item == "refuse":
        raise SingularConfiguration("scripted refusal")
    return None if item == "reject" else item


# --- the sampler -------------------------------------------------------------

def test_sample_redraws_after_refusal_and_rejection():
    script = ["a", "refuse", "reject", "b", "reject", "refuse", "refuse", "c",
              "d", "e"]
    drawn, counts = [], _counts()
    assert vf._sample(counts, 3, _scripted(script, drawn), _evaluate) == ["a", "b", "c"]
    assert counts == {"refused": 3, "unsampled": 0}
    assert drawn == script[:8]          # no draw after the third value


def test_sample_stops_at_the_cap_and_reports_the_shortfall():
    drawn, counts = [], _counts()
    script = ["a"] + ["refuse", "reject"] * (2 * vf.DRAWS_PER_SAMPLE)
    assert vf._sample(counts, 2, _scripted(script, drawn), _evaluate) == ["a"]
    assert len(drawn) == 2 * vf.DRAWS_PER_SAMPLE
    assert counts == {"refused": vf.DRAWS_PER_SAMPLE, "unsampled": 1}


def test_sample_stops_when_the_draws_run_out():
    drawn, counts = [], _counts()
    got = vf._sample(counts, 3, _scripted(["refuse", "a", "b"], drawn), _evaluate)
    assert got == ["a", "b"] and len(drawn) == 3
    assert counts == {"refused": 1, "unsampled": 1}


def test_random_gamma_raises_at_the_cap(monkeypatch):
    calls = []
    monkeypatch.setattr(el, "delta_gamma", lambda g4, g6: calls.append(g4) or 0.0)
    with pytest.raises(NumericalFailure, match="^random_gamma: "):
        vf.random_gamma(np.random.default_rng(1))
    assert len(calls) == vf.DRAWS_PER_SAMPLE


@pytest.mark.parametrize("context", [
    _refuse,
    lambda a2, gamma: types.SimpleNamespace(branch_point=True, wpp_alpha=1.0),
], ids=["refused", "rejected"])
def test_random_lambda1_context_raises_at_the_cap(monkeypatch, context):
    calls = []

    def counted(a2, gamma):
        calls.append(a2)
        return context(a2, gamma)
    monkeypatch.setattr(sg, "context_lambda1", counted)
    with pytest.raises(NumericalFailure, match="^random_lambda1_context: "):
        vf.random_lambda1_context(np.random.default_rng(1))
    assert len(calls) == vf.DRAWS_PER_SAMPLE


# --- refusing functions: each suite fails, within seconds --------------------

REFUSALS = [
    (lt, "reconstruct_lambda", "two_route"),
    (sp, "kdv_residual", "spectral"),
    (inv, "solve_inversion", "inversion"),
    (lt, "quasi_periodicity_residual", "periodicity"),
    (sp, "quasi_momenta", "spectral"),
    (lt, "period_increment", "legendre"),
    (st, "gradient_delta_check", "gradient"),
]


@pytest.mark.parametrize("module,name,key", REFUSALS,
                         ids=[f"{name}-{key}" for _, name, key in REFUSALS])
def test_refused_samples_fail_the_suite(monkeypatch, module, name, key):
    monkeypatch.setattr(module, name, _refuse)
    start = time.perf_counter()
    try:
        result = vf.run_suite(key, 7)
    except Sigma2Error:
        pass
    else:
        assert not result.passed
        assert result.details["unsampled"] > 0 and result.details["refused"] > 0
    assert time.perf_counter() - start < 5.0


# --- planted defects ---------------------------------------------------------

def _plant_shift(monkeypatch):
    """The 3/5 of the U1 shift (3/5) wp(alpha), times 1 + 1e-6."""
    shift = sg.DegenSigmaContext.shift
    monkeypatch.setattr(sg.DegenSigmaContext, "shift",
                        lambda self: shift(self) * (1 + 1e-6))


def _plant_s_route(monkeypatch):
    """The 4.0 * dp of the S-route's X1 X2, times 1 + 1e-6."""
    s_route = sg._s_route

    def planted(pu, ppu, wpa, wppa, pval):
        s, e1, e2 = s_route(pu, ppu, wpa, wppa, pval)
        dp = pu - wpa
        return s, e1, e2 + (ppu ** 2 - wppa ** 2) * (
            1 / (4.0 * (1 + 1e-6) * dp) - 1 / (4.0 * dp))
    monkeypatch.setattr(sg, "_s_route", planted)


def _plant_prefactor(monkeypatch):
    """The 0.12 of the Lambda1 prefactor, times 1 + 1e-3."""
    prefactor = sg._prefactor_l1

    def planted(ctx, u3, u1):
        wpa = ctx.wp_alpha
        return prefactor(ctx, u3, u1) * np.exp(-0.6 * 0.12 * 1e-3 * wpa ** 3 * u3 ** 2)
    monkeypatch.setattr(sg, "_prefactor_l1", planted)


@pytest.mark.parametrize("plant,key,caught_by", [
    (_plant_shift, "periodicity", "quasi_periodicity"),
    (_plant_shift, "spectral", "bloch"),
    (_plant_shift, "two_route", "symmetric_functions"),
    (_plant_s_route, "inversion", "round_trip"),
    (_plant_s_route, "two_route", "lambda_reconstruction"),
    (_plant_prefactor, "heat", "max_residual"),
], ids=["shift-periodicity", "shift-spectral", "shift-two_route",
        "s_route-inversion", "s_route-two_route", "prefactor-heat"])
def test_planted_defect_is_caught(monkeypatch, plant, key, caught_by):
    plant(monkeypatch)
    result = vf.run_suite(key, 7)
    assert not result.passed
    assert not result.details[caught_by] < vf.SUITES[key].bounds[caught_by]
