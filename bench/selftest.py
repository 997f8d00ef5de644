"""Self-test of the benchmark harness.

    python3 bench/selftest.py

Checks the self-time arithmetic on a synthetic span tree, the tracer's
rebinding, and that tiny runs of every workload emit every metric named in
BENCHMARK.json with its unit.
"""

import json
import math
import unittest

import run
import spans
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def span(sid, name, t0, t1, parent, failed=False, evals=None, tag=None):
    return spans.Span(sid, name, t0, t1, parent, 0, failed, evals, tag)


class SelfTime(unittest.TestCase):
    def test_children_union_is_subtracted_once(self):
        tree = [
            span(1, "cli.main", 0.0, 10.0, 0),
            span(2, "elliptic.invert_wp", 1.0, 4.0, 1),
            span(3, "sigma.sigma2", 3.0, 6.0, 1),        # overlaps 2 (thread)
            span(4, "elliptic.wp", 2.0, 3.0, 2),
            span(5, "elliptic.wp", 9.0, 12.0, 1),        # runs past its parent
        ]
        own = spans.self_times(tree)
        self.assertEqual(own, {1: 10.0 - 5.0 - 1.0, 2: 2.0, 3: 3.0, 4: 1.0, 5: 3.0})

    def test_summary_sums_and_ratios(self):
        tree = [
            span(1, "elliptic.invert_wp", 0.0, 4.0, 0),
            span(2, "elliptic.wp", 0.5, 1.0, 1),
            span(3, "elliptic.wp", 1.0, 1.5, 1, failed=True),
            span(4, "elliptic.wp", 5.0, 6.0, 0),
            span(5, "numerics.derivative", 6.0, 7.0, 0, evals=6),
            span(6, "verify.run_suite", 7.0, 9.0, 0, tag="heat"),
        ]
        m = spans.finalize(spans.summarize(tree), passes=2)
        self.assertEqual(m["elliptic.wp.calls"], 1.5)
        self.assertEqual(m["elliptic.fails"], 0.5)
        self.assertAlmostEqual(m["elliptic.invert_wp.self_s"], 1.5)
        self.assertEqual(m["elliptic.wp_calls_per_invert_wp"], 2.0)
        self.assertEqual(m["numerics.evals_per_diff"], 6.0)
        self.assertEqual(m["verify.heat.s"], 1.0)


class Tracing(unittest.TestCase):
    def test_rebinds_every_reference_and_restores(self):
        pkg = run.import_package()
        import sigma2.elliptic as el
        import sigma2.strata as st
        original = el.invert_wp
        tracer = spans.Tracer({"elliptic": ("invert_wp", "wp", "no_such_fn")})
        self.assertEqual(tracer.absent, ["elliptic.no_such_fn"])
        tracer.install()
        try:
            self.assertIsNot(st.invert_wp, original)     # from-import alias
            ctx = pkg.make_context((0.4 - 0.2j, 0.5 + 0.3j))
            pkg.invert_wp(ctx, 0.3 + 0.1j)
        finally:
            tracer.uninstall()
        self.assertIs(el.invert_wp, original)
        self.assertIs(st.invert_wp, original)
        got = tracer.take()
        outer = [s for s in got if s.name == "elliptic.invert_wp"]
        inner = [s for s in got if s.name == "elliptic.wp"]
        self.assertEqual(len(outer), 1)
        self.assertTrue(inner and all(s.parent == outer[0].sid for s in inner))


class TinyRuns(unittest.TestCase):
    def test_every_metric_is_emitted_with_its_unit(self):
        for key in ("end_to_end", "per_layer"):
            names = [m["name"] for m in SPEC[key]]
            self.assertEqual(len(names), len(set(names)))
        want = {0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
                1: {m["name"]: m["unit"] for m in SPEC["per_layer"]}}
        for w in workloads.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=w, trace=trace):
                    result, detail = run.run(w, 3, 0.0, trace,
                                             size="tiny", probes=1)
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"], detail["failures"])
                    got = {k: m["unit"] for k, m in result["metrics"].items()}
                    self.assertEqual(got, want[trace])
                    for m in result["metrics"].values():
                        self.assertTrue(math.isfinite(m["value"]))


if __name__ == "__main__":
    unittest.main()
