"""Record the anchor values that grid_eval compares against.

    python3 bench/record_reference.py

Runs the CLI grid commands below on fixed inputs and writes their values to
``bench/reference.json``.  The anchors cover each evaluation regime of the
grid commands: a generic and a branch-point Lambda1 context, a Lambda0
context and one with a2 ~ b2, and both real potential families.  Values are
basis-invariant, so a later change of period basis must reproduce them.
Re-record only when the mathematics is meant to change.
"""

import json
import sys
import tempfile

import numpy as np

import run
import workloads


def anchors():
    grid = "--grid=-0.5,0.5,9"
    e1, e2, e3 = 0.5 + 0.25j, -0.75 + 0.125j, 0.25 - 0.375j
    g4, g6 = workloads.gamma_from_roots(e1, e2, e3)
    roots = sorted(np.roots([1.0, 0.0, -1.2, 0.1]).real)
    a2_gap = float(0.6 * 0.5 * (roots[1] + roots[2]))
    yield "sigma_l1", ["sigma", "--a2=0.2,0.1", "--gamma=0.4,-0.2,0.5,0.3", grid]
    yield "sigma_l1_branch", ["sigma", f"--a2={workloads.cli_complex(0.6 * e1)}",
                              f"--gamma={workloads.cli_complex(g4, g6)}", grid]
    yield "sigma_l0", ["sigma", "--a2=0.7,-0.2", "--b2=0.15,0.4", grid]
    yield "sigma_l0_near", ["sigma", "--a2=0.3,0.2", "--b2=0.3000001,0.2", grid]
    for family in ("V1", "V2"):
        yield f"potential_{family.lower()}", [
            "potential", f"--a2={a2_gap!r}", "--gamma=-1.2,0.1",
            "--family", family, "--phi=0.25", "--grid", "0.02,0.98,16"]


def main():
    run.import_package()
    out = []
    with tempfile.TemporaryDirectory(dir=run.BENCH) as tmp:
        for name, argv in anchors():
            vals = workloads.anchor_values(argv, tmp)
            out.append({"name": name, "argv": argv,
                        "values": [[v.real, v.imag] for v in vals]})
    rec = {"commit": run.git_commit(run.ROOT), "anchors": out}
    with open(workloads.REFERENCE, "w") as fh:
        json.dump(rec, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(out)} anchors to {workloads.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
