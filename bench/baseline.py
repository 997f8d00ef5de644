"""Record a baseline: seeded runs per workload, the held-out seed, a traced run.

    python3 bench/baseline.py

Every run is a fresh ``bench/run.py`` process with ``run_seconds`` from
BENCHMARK.json; seeds alternate between workloads so drift in machine
throughput falls on all of them alike.  For each end-to-end metric the file
gives the median, the quartiles and the spread (interquartile distance over
the median) of the seeded runs, and whether the held-out seed lies within
the metric's bound of that median.  One traced run per workload gives the
per-layer table.  Writes ``bench/BASELINE.json``.
"""

import json
import statistics
import subprocess
import sys

import run
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SEEDS = list(range(1, 11))

# which end-to-end metric each layer metric should move, written down before
# any optimisation is measured
PREDICTIONS = [
    {"layer": "elliptic.{sigma_w,wp,wp_prime,zeta_w}.self_s",
     "should_move": "run_s and req_p50_ms on grid_eval",
     "should_not_move": "req_p50_ms on curve_sweep"},
    {"layer": "sigma.sigma2.self_s, spectral.*, cli.*",
     "should_move": "grid_eval", "should_not_move": ""},
    {"layer": "elliptic.make_context, elliptic.invert_wp, sigma.context_lambda*, "
              "strata.classify, lattice.*, inversion.*",
     "should_move": "req_p50_ms and req_tail_ms on curve_sweep",
     "should_not_move": ""},
    {"layer": "numerics.*, heat.*, verify.<suite>.s",
     "should_move": "run_s on verify_all", "should_not_move": "grid_eval"},
    {"layer": "setup.import_s",
     "should_move": "setup_s on every workload", "should_not_move": ""},
]


def run_once(workload, seed, trace):
    cmd = [sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    *_, detail, result = proc.stdout.strip().splitlines()
    return json.loads(result), json.loads(detail.removeprefix("detail "))


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": values}


def main():
    names = list(workloads.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    seeded = {w: [] for w in names}
    held_out = {}
    # the held-out seed runs mid-sequence, in the same stretch of machine time
    order = SEEDS[:5] + [run.HELD_OUT_SEED] + SEEDS[5:]
    for seed in order:
        for w in names:
            result, detail = run_once(w, seed, 0)
            if seed == run.HELD_OUT_SEED:
                held_out[w] = (result, detail)
            else:
                seeded[w].append((result, detail))
            print(w, seed, json.dumps(result), flush=True)
    out = {"run_seconds": SPEC["run_seconds"], "seeds": SEEDS,
           "held_out_seed": run.HELD_OUT_SEED, "predictions": PREDICTIONS,
           "workloads": {}}
    for w in names:
        runs = seeded[w]
        e2e = {m: summary([r["metrics"][m]["value"] for r, _ in runs]) for m in bounds}
        held, held_detail = held_out[w]
        for m, s in e2e.items():
            v = held["metrics"][m]["value"]
            s["held_out"] = v
            s["held_out_within_bound"] = abs(v - s["median"]) <= bounds[m] * s["median"]
        traced, traced_detail = run_once(w, 1, 1)
        out["workloads"][w] = {
            "end_to_end": e2e,
            "attempted": sum(r["attempted"] for r, _ in runs),
            "failed": sum(r["failed"] for r, _ in runs),
            "tail_percentiles": [d["tail_percentile"] for _, d in runs],
            "latency_samples": [d["latency_samples"] for _, d in runs],
            "held_out": {"correct": held["correct"], "failed": held["failed"]},
            "traced": {"seed": 1, "correct": traced["correct"],
                       "run_s": traced_detail["traced_run_s"],
                       "absent": traced_detail["absent"],
                       "per_layer": {k: m["value"]
                                     for k, m in traced["metrics"].items()}},
        }
        out["provenance"] = held_detail["provenance"]
        print(w, json.dumps({m: round(s["spread"], 4) for m, s in e2e.items()}),
              flush=True)
    path = run.BENCH / "BASELINE.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
