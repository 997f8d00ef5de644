"""Acceptance gate: every headline property at its stated tolerance.

Each criterion runs one verification suite at its default sample count and
prints a pass/fail line; `run_suite` is the same entry point the `sigma2
verify` command calls, so this module is the single source of truth for
"done".  Each criterion also pins its suite's row of `verify.SUITES` (sample
count and bounds), so a smaller sample or a looser bound fails here.
"""

import numpy as np
import pytest

from sigma2 import verify as vf

CRITERIA = [
    # (criterion, suite, default samples, bounds), in verify.SUITES order
    ("9. classification round trips (1000 per chart, <1e-9) and rank table",
     "classify", 1000,
     {"misclassified": 0, "round_trip": 1e-9, "rank_table_ok": True}),
    ("3. inversion round trip (<1e-8, 100 instances) and rational limit (<1e-10)",
     "inversion", 100,
     {"round_trip": 1e-8, "rational_limit": 1e-10, "unsampled": 0}),
    ("1. heat operators annihilate sigma2 (<1e-5, 20 samples)",
     "heat", 20, {"max_residual": 1e-5}),
    ("7. eigen equation (<1e-6), KdV (<1e-5), reality (<1e-8), Bloch (<1e-6), "
     "M2 = M3 (<1e-12)", "spectral", 20,
     {"eigen": 1e-6, "kdv": 1e-5, "reality_max_imag": 1e-8, "bloch": 1e-6,
      "m2_m3_gap": 1e-12, "unsampled": 0}),
    ("8. exact rational algebra (det V, tangency, resultant constant)",
     "algebra", 100, {"failures": 0, "resultant_constant": "1"}),
    ("4. two-route log-derivative consistency (<1e-9) and coefficient "
     "reconstruction (<1e-6)", "two_route", 8,
     {"symmetric_functions": 1e-9, "lambda_reconstruction": 1e-6,
      "delta_residual": 1e-6, "unsampled": 0}),
    ("6. degenerate Legendre identity (<1e-8) and increment xi-independence "
     "(<1e-9)", "legendre", 10,
     {"legendre": 1e-8, "increment_spread": 1e-9, "unsampled": 0}),
    ("10. discriminant gradient closed form (<1e-6, vanishing at branch points)",
     "gradient", 20,
     {"closed_vs_symbolic": 1e-6, "closed_vs_fd": 1e-6,
      "branch_point_value": 1e-8, "unsampled": 0}),
    ("5. quasi-periodicity (<1e-8), three-periodicity (<1e-8), functional "
     "equation (<1e-9)", "periodicity", 20,
     {"quasi_periodicity": 1e-8, "p_periodicity": 1e-8, "functional_eq": 1e-9,
      "reciprocal": 1e-9, "unsampled": 0}),
    ("2. Taylor leading part u3 - u1^3/3 (<1e-6 / 1e-4, 10 contexts)",
     "taylor", 10,
     {"u3_residual": 1e-6, "u1_residual": 1e-4, "lambda0_spread": 1e-4}),
    ("11. hyperbolic limit of the elliptic sigma (<1e-4)",
     "trig_limit", None, {"max_residual": 1e-4}),
]


@pytest.mark.parametrize("label,suite,samples,bounds", CRITERIA,
                         ids=[c[1] for c in CRITERIA])
def test_acceptance(label, suite, samples, bounds, capsys):
    assert vf.SUITES[suite].samples == samples
    assert vf.SUITES[suite].bounds == bounds
    result = vf.run_suite(suite, 7)
    with capsys.disabled():
        status = "PASS" if result.passed else "FAIL"
        print(f"\n[{status}] {label}")
        print(f"        {result.line()}")
    assert result.details["thresholds"] == bounds
    assert result.passed, result.details


def test_criteria_cover_every_suite():
    assert [c[1] for c in CRITERIA] == list(vf.SUITES)
    assert sum(len(c[3]) for c in CRITERIA) == 35


@pytest.fixture
def stub_suite(monkeypatch):
    """A one-row SUITES whose suite reports the details it is handed."""
    def run(details):
        monkeypatch.setattr(vf, "SUITES", {"stub": vf.Suite(
            "stub_suite", lambda rng, samples: dict(details), 1,
            {"residual": 1e-6, "count": 0, "label": "1", "flag": True})})
        return vf.run_suite("stub")
    return run


def test_pass_rule_float_bound_is_strict(stub_suite):
    exact = {"count": 0, "label": "1", "flag": True}
    assert stub_suite({"residual": np.nextafter(1e-6, 0.0), **exact}).passed
    assert not stub_suite({"residual": 1e-6, **exact}).passed
    assert not stub_suite({"residual": float("nan"), **exact}).passed


@pytest.mark.parametrize("key,value", [("count", 1), ("label", "2"),
                                       ("label", "None"), ("flag", False)])
def test_pass_rule_exact_bound_needs_equality(stub_suite, key, value):
    details = {"residual": 0.0, "count": 0, "label": "1", "flag": True}
    assert stub_suite(details).passed
    result = stub_suite({**details, key: value})
    assert not result.passed
    assert result.details["thresholds"][key] == details[key]


def test_line_prints_each_bound_without_braces(stub_suite):
    line = stub_suite({"residual": 2.5e-9, "count": 0, "label": "1",
                       "flag": True, "extra": 3.0}).line()
    assert line == ("[PASS] stub_suite: count=0 (=0), extra=3, flag=True (=True), "
                    "label=1 (=1), residual=2.5e-09 (<1e-06)")
