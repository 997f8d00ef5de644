"""Benchmark for sigma2: three workloads, end-to-end metrics, a traced run.

    python3 bench/run.py --workload grid_eval --seed 1 --seconds 30 --trace 0

Workloads (inputs drawn from ``--seed``; see ``workloads.py``):

- ``grid_eval``: few curves, dense evaluation.  Each request is one CLI grid
  command run in-process through ``sigma2.cli.main``: ``sigma --grid`` on a
  generic, a branch-point (wp'(alpha) = 0) and two Lambda0 contexts (one with
  a2 ~ b2), and ``potential --grid`` with families V1 and V2 on a real gap
  context.  The theta series under sigma_w/wp does almost all the work.
- ``curve_sweep``: many curves, one query of each kind.  Each request takes
  one parameter point from a chart and runs classify, make_degen_context, one
  sigma2 value, period_matrices and the inversion.  Context construction and
  one-scalar-at-a-time elliptic calls dominate.
- ``verify_all``: ``sigma2 verify --suite all --seed <seed>``, the acceptance
  gate, dominated by differentiation and exact algebra.

A run builds the inputs, makes one untimed warm-up pass, then repeats timed
passes over the fixed request list for ``--seconds``.  Every output is
checked after its pass, outside the timed region.  End-to-end metrics
(``--trace 0``):

- ``setup_s``: median over fresh interpreters of the time from spawning one
  to the package being imported and the inputs built.
- ``run_s``: median over the timed passes of one pass's time.
- ``req_p50_ms``, ``req_tail_ms``: a request's latency is its median over the
  timed passes; p50 is the median over requests, the tail the latency at the
  highest percentile with ten requests beyond it (the maximum with fewer).
- ``correct_digits``: the worst agreement, in decimal digits, of any checked
  output.
- ``peak_rss_mb``: peak resident memory of the benchmark process.

``run_s`` and the latencies are wall times scaled to a reference machine
speed, measured by a fixed calibration loop timed between requests (see
``run_pass``); the unscaled median pass time is ``wall_run_s`` in the detail
line.  The per-layer times of the traced run are not scaled.

``fail_ratio`` (failed over attempted requests) is printed and carried by the
``failed`` and ``attempted`` keys; it is 0 when the package is correct, so it
is not a bounded metric.  With ``--trace 1`` untraced and traced passes
alternate; the traced passes give the per-layer metrics of ``spans.py`` and
the tracing overhead (traced minus untraced median pass time).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import cmath
import importlib
import json
import os
import pkgutil
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy

import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKDIR = BENCH / "out"
SETUP_PROBES = 5
HELD_OUT_SEED = 4242       # kept out of tuning; later claims must also hold on it
# Throughput of the shared 2-vCPU host switches between phases up to 2x apart
# that last seconds to minutes, and a request's wall time follows them.  A
# calibration loop timed between requests measures the phase; timings are
# reported at the reference speed at which the loop takes REF_CAL_S (about
# its fast-phase time on that host).
REF_CAL_S = 0.004
CAL_EVERY_S = 0.05
CAL_X = numpy.linspace(0.1, 0.9, 2000) + 0.3j

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("req_p50_ms", "ms"),
              ("req_tail_ms", "ms"), ("correct_digits", "digits"),
              ("peak_rss_mb", "MB"))


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, failed set-up)."""


def import_package():
    """Import sigma2 and every public submodule from this checkout's src/."""
    if not (SRC / "sigma2" / "__init__.py").is_file():
        raise BenchError(f"no sigma2 sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("sigma2")
    if Path(pkg.__file__).resolve().parent != (SRC / "sigma2").resolve():
        raise BenchError(f"sigma2 imported from {pkg.__file__}, not {SRC}")
    for info in pkgutil.iter_modules(pkg.__path__):
        if not info.name.startswith("_"):
            importlib.import_module(f"sigma2.{info.name}")
    return pkg


def probe_setup(workload, seed, size, count):
    """Fresh interpreters that import the package and build the inputs."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probes = []
    for _ in range(count):
        t_spawn = time.time()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), workload,
             str(seed), size, str(WORKDIR / workload)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise BenchError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        rec["setup_s"] = rec.pop("ready") - t_spawn
        probes.append(rec)
    return probes


def request_latencies(per_pass):
    """Each request's latency: its median over the timed passes.

    Throughput on a shared machine drifts over seconds, so one sample of a
    millisecond request mostly measures the neighbours; the median over
    passes keeps what is the request's own, and the spread across requests.
    """
    return [statistics.median(col) for col in zip(*per_pass)]


def tail(latencies):
    """(value, percentile, samples beyond) at the highest percentile that
    keeps ten samples beyond it; the maximum when there are too few."""
    xs = sorted(latencies)
    idx = len(xs) - 11 if len(xs) > 10 else len(xs) - 1
    return xs[idx], 100.0 * (idx + 1) / len(xs), len(xs) - idx - 1


def calibrate():
    """Seconds for a fixed mix of interpreted complex arithmetic and small
    numpy operations, the two kinds of work the package does."""
    t0 = time.perf_counter()
    acc, q = 0j, 0.3 + 0.1j
    for n in range(1, 2000):
        acc += q ** (n % 37) * cmath.exp(0.01j * n)
    for _ in range(20):
        acc += (numpy.exp(1j * numpy.pi * CAL_X) * numpy.sin(CAL_X) + CAL_X * CAL_X).sum()
    return time.perf_counter() - t0


def run_pass(workload, inputs, tracer=None):
    """One pass over the requests: outcomes, each request's latency at the
    reference speed, and the wall time of the requests.

    The calibration loop runs before the first request and after every
    stretch of at least CAL_EVERY_S of requests; a request's latency is
    scaled by REF_CAL_S over the mean of the calibrations around its stretch.
    """
    outcomes, latencies, stretch = [], [], []
    wall = 0.0
    cal = calibrate()
    for k, item in enumerate(inputs):
        if tracer is not None:
            tracer.request = k
        t0 = time.perf_counter()
        outcomes.append(workloads.run_request(workload, item))
        stretch.append(time.perf_counter() - t0)
        if sum(stretch) >= CAL_EVERY_S or k == len(inputs) - 1:
            nxt = calibrate()
            latencies += [x * 2 * REF_CAL_S / (cal + nxt) for x in stretch]
            wall += sum(stretch)
            cal, stretch = nxt, []
    return outcomes, latencies, wall


def provenance():
    import scipy
    lines = sum(len(p.read_text().splitlines())
                for p in (SRC / "sigma2").glob("*.py"))
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "commit": git_commit(ROOT), "src_lines": lines}


def git_commit(root):
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run(workload, seed, seconds, trace, size="full", probes=SETUP_PROBES):
    """One benchmark run; returns (result line, detail record)."""
    workdir = WORKDIR / workload
    workdir.mkdir(parents=True, exist_ok=True)
    import_package()         # first, so the probes find compiled modules
    setup = probe_setup(workload, seed, size, probes)
    inputs = workloads.build_inputs(workload, seed, size, str(workdir))
    checker = workloads.make_checker(workload, inputs, seed)
    tracer = spans.Tracer() if trace else None

    verdicts = []

    def check(outcomes):
        for k, out in enumerate(outcomes):
            try:
                verdicts.append(checker.check(k, out))
            except Exception as exc:    # output the check cannot read
                verdicts.append(workloads.Verdict(
                    False, reason=f"check raised {type(exc).__name__}: {exc}"))

    check(run_pass(workload, inputs)[0])             # warm-up
    walls = {False: [], True: []}
    passes = {False: [], True: []}     # pass times at the reference speed
    per_pass = []
    sums = Counter()
    last_spans = []
    start = time.perf_counter()
    while True:
        traced = bool(trace) and len(walls[False]) > len(walls[True])
        if traced:
            tracer.install()
            try:
                outcomes, lat, wall = run_pass(workload, inputs, tracer)
            finally:
                tracer.uninstall()
            last_spans = tracer.take()
            sums.update(spans.summarize(last_spans))
        else:
            outcomes, lat, wall = run_pass(workload, inputs)
            per_pass.append(lat)
        walls[traced].append(wall)
        passes[traced].append(sum(lat))
        check(outcomes)
        if time.perf_counter() - start >= seconds and (not trace or walls[True]):
            break
    if workload == "grid_eval":
        verdicts += workloads.check_anchors(str(workdir))

    failed = [v for v in verdicts if not v.ok]
    all_digits = [d for v in verdicts for d in v.digits]
    run_s = statistics.median(passes[False])
    latencies = request_latencies(per_pass)
    tail_s, tail_pct, beyond = tail(latencies)
    detail = {
        "workload": workload, "seed": seed, "held_out_seed": HELD_OUT_SEED,
        "size": size, "passes": len(walls[False]),
        "traced_passes": len(walls[True]), "requests_per_pass": len(inputs),
        "latency_samples": len(latencies), "latency_repeats": len(per_pass),
        "tail_percentile": tail_pct, "tail_samples_beyond": beyond,
        "wall_run_s": statistics.median(walls[False]),
        "fail_ratio": len(failed) / len(verdicts),
        "failures": sorted({v.reason for v in failed})[:10],
        "provenance": provenance(),
    }
    if trace:
        metrics = spans.finalize(sums, len(walls[True]))
        metrics["setup.import_s"] = statistics.median(p["import_s"] for p in setup)
        metrics["setup.inputs_s"] = statistics.median(p["inputs_s"] for p in setup)
        traced_s = statistics.median(passes[True])
        metrics["trace.overhead_s"] = traced_s - run_s
        metrics["trace.overhead_ratio"] = (traced_s - run_s) / run_s
        units = dict(spans.layer_metric_names())
        detail["absent"] = tracer.absent
        detail["traced_run_s"] = traced_s
        spans.write_spans(last_spans, workdir / "spans.csv")
    else:
        units = dict(END_TO_END)
        metrics = {
            "setup_s": statistics.median(p["setup_s"] for p in setup),
            "run_s": run_s,
            "req_p50_ms": 1e3 * statistics.median(latencies),
            "req_tail_ms": 1e3 * tail_s,
            "correct_digits": min(all_digits, default=workloads.DIGITS_CAP),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    result = {"correct": not failed, "attempted": len(verdicts),
              "failed": len(failed),
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    return result, detail


def report(result, detail):
    print(f"# sigma2 benchmark  workload={detail['workload']}  seed={detail['seed']}"
          f"  passes={detail['passes']}+{detail['traced_passes']} traced"
          f"  requests/pass={detail['requests_per_pass']}")
    for name, m in result["metrics"].items():
        print(f"{name:<44} {m['value']:>14.6g} {m['unit']}")
    print(f"{'fail_ratio':<44} {detail['fail_ratio']:>14.6g} ratio"
          f"  ({result['failed']} of {result['attempted']})")
    print(f"# req_tail_ms is p{detail['tail_percentile']:.2f} of "
          f"{detail['latency_samples']} requests "
          f"({detail['tail_samples_beyond']} beyond), each the median of "
          f"{detail['latency_repeats']} passes")
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        result, detail = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    report(result, detail)
    return 0


if __name__ == "__main__":
    sys.exit(main())
