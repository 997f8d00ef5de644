"""Command-line front end: classify / sigma / invert / potential / periods / verify.

Complex inputs are comma-separated floats: N values are read as N reals, 2N
values as (re, im) pairs.  All results are JSON records tagged with
"schema": "sigma2/1"; complex numbers serialize as [re, im]; inputs echo back
for reproducibility.  Exit codes: 0 success, 1 usage error, 2 numerical
failure, 3 ambiguous classification, 141 stdout closed by its reader.

Tolerances and the default verify seed (7) are fixed constants of the
package, not settings.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import stat
import sys

import numpy as np

from . import lattice as lt
from . import sigma as sg
from . import spectral as sp
from . import strata as st
from . import verify as vf
from .errors import AmbiguousClassification, Sigma2Error

SCHEMA = "sigma2/1"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _finite_floats(parts, name):
    """The strings as floats; a malformed or non-finite one is a usage error."""
    try:
        vals = [float(p) for p in parts]
    except ValueError as exc:
        raise UsageError(f"--{name}: {exc}") from None
    if not all(math.isfinite(v) for v in vals):
        raise UsageError(f"--{name}: non-finite value in {','.join(parts)}")
    return vals


def parse_complexes(text, n, name):
    vals = _finite_floats([p for p in text.split(",") if p.strip() != ""], name)
    if len(vals) == n:
        return [complex(v) for v in vals]
    if len(vals) == 2 * n:
        return [complex(vals[2 * i], vals[2 * i + 1]) for i in range(n)]
    raise UsageError(f"--{name}: expected {n} reals or {2 * n} re,im values, "
                     f"got {len(vals)}")


def _json_default(obj):
    """json.dumps hook: complex as [re, im], numpy scalars and arrays as
    Python values (integers as floats)."""
    if isinstance(obj, (complex, np.complexfloating)):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (np.floating, np.integer)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def emit(record, out=None):
    text = json.dumps({"schema": SCHEMA, **record}, indent=2, sort_keys=True,
                      default=_json_default)
    if out:
        # a text-mode file's newline translation, as open(out, "w") gave
        _write_out(out, (text + "\n").replace("\n", os.linesep))
    else:
        print(text)


def _degen_context(args):
    if args.lam is not None:
        lam = st.G2Params(*parse_complexes(args.lam, 4, "lambda"))
        return sg.make_degen_context(lam)
    if args.gamma is not None:
        if args.a2 is None:
            raise UsageError("--gamma needs --a2")
        a2 = parse_complexes(args.a2, 1, "a2")[0]
        g4, g6 = parse_complexes(args.gamma, 2, "gamma")
        return sg.context_lambda1(a2, (g4, g6))
    if args.b2 is not None:
        if args.a2 is None:
            raise UsageError("--b2 needs --a2")
        a2 = parse_complexes(args.a2, 1, "a2")[0]
        b2 = parse_complexes(args.b2, 1, "b2")[0]
        return sg.context_lambda0(a2, b2)
    raise UsageError("give --lambda, or --a2 with --gamma or --b2")


def cmd_classify(args):
    lam = st.G2Params(*parse_complexes(args.lam, 4, "lambda"))
    cls = st.classify(lam)
    rec = {"command": "classify", "lambda": list(lam.astuple()),
           "stratum": cls.stratum, "partition": list(cls.partition),
           "rank": cls.rank, "residuals": cls.residuals}
    if cls.a2 is not None:
        rec["a2"] = cls.a2
    if cls.gamma is not None:
        rec["gamma"] = [cls.gamma.gamma4, cls.gamma.gamma6]
    if cls.b2 is not None:
        rec["b2"] = cls.b2
    emit(rec, args.out)
    return 0


def cmd_sigma(args):
    if args.grid is not None and args.out is None:
        raise UsageError("grid output needs --out")
    ctx = _degen_context(args)
    rec = {"command": "sigma", "lambda": list(ctx.lam.astuple()),
           "stratum": "Lambda1" if ctx.kind == "lambda1" else "Lambda0",
           "normalized": bool(args.normalized)}
    if args.grid is not None:
        lo, hi, n = _parse_grid(args.grid)
        g = np.linspace(lo, hi, n)
        u3, u1 = (a.ravel() for a in np.meshgrid(g, g, indexing="ij"))  # u3 outer
        val = sg.sigma2(ctx, u3, u1, normalized=args.normalized)
        gs = _reprs(g)      # each grid coordinate formatted once
        _write_csv(args.out, ("u3", "u1", "re", "im"),
                   ([s for s in gs for _ in range(n)], gs * n,
                    _reprs(val.real), _reprs(val.imag)))
        rec["rows"] = n * n
        rec["csv"] = args.out
        emit(rec, None)
        return 0
    if args.u is None:
        raise UsageError("sigma needs --u u3,u1 (or --grid)")
    u3, u1 = parse_complexes(args.u, 2, "u")
    val = sg.sigma2(ctx, u3, u1, normalized=args.normalized)
    rec["u"] = [u3, u1]
    rec["value"] = val
    emit(rec, args.out)
    return 0


def cmd_invert(args):
    from . import inversion as inv
    ctx = _degen_context(args)
    u1, u3 = parse_complexes(args.U, 2, "U")
    res = (inv.branch_point_inversion(ctx, u1) if ctx.branch_point
           else inv.solve_inversion(ctx, u1, u3))
    rec = {"command": "invert", "lambda": list(ctx.lam.astuple()),
           "alpha": ctx.alpha, "A": ctx.wp_alpha,
           "gamma": [ctx.gamma.gamma4, ctx.gamma.gamma6],
           "U1": u1, "U3": u3,
           "X": [res.X1, res.X2], "Y": [res.Y1, res.Y2],
           "xi": [res.xi1, res.xi2], "residuals": res.residuals}
    emit(rec, args.out)
    return 0


def cmd_potential(args):
    ctx = _degen_context(args)
    lo, hi, n = _parse_grid(args.grid)
    grid = np.linspace(lo, hi, n)
    sample = sp.real_family(ctx, args.family, args.phi, grid)
    out = args.out or "potential.csv"
    _write_csv(out, ("x", "re", "im"), (_reprs(sample.grid),
                                         _reprs(sample.values.real),
                                         _reprs(sample.values.imag)))
    sidecar = {"command": "potential", "family": sample.family,
               "phi": sample.phi, "lambda": list(ctx.lam.astuple()),
               "spectrum": sample.spectrum, "max_imag": sample.max_imag,
               "csv": out, "rows": n}
    emit(sidecar, os.path.splitext(out)[0] + ".json")
    emit({"command": "potential", "csv": out, "max_imag": sample.max_imag,
          "spectrum": sample.spectrum}, None)
    return 0


def cmd_periods(args):
    ctx = _degen_context(args)
    lat = lt.period_matrices(ctx)
    rec = {"command": "periods", "lambda": list(ctx.lam.astuple()),
           "alpha": lat.alpha, "T": lat.T, "H": lat.H,
           "K1": lat.K1, "K2": lat.K2, "K3": lat.K3,
           "residuals": {"legendre": lat.legendre_residual}}
    emit(rec, args.out)
    return 0


def cmd_verify(args):
    seed = args.seed
    if seed < 0:
        raise UsageError(f"seed {seed} must be non-negative")
    # each named suite runs once, in the order first named
    names = (list(vf.SUITES) if args.suite == "all"
             else list(dict.fromkeys(args.suite.split(","))))
    for name in names:
        if name not in vf.SUITES:
            raise UsageError(f"unknown suite {name!r}; "
                             f"choose from {', '.join(vf.SUITES)} or 'all'")
    if args.samples is not None and args.samples < 1:
        raise UsageError("--samples must be at least 1")
    results = sorted(vf.run_suites(names, seed, args.samples),
                     key=lambda r: r.name)
    for r in results:
        print(r.line())
    rec = {"command": "verify", "seed": seed,
           "suites": {r.name: {"passed": r.passed, **r.details}
                      for r in results},
           "all_passed": all(r.passed for r in results)}
    emit(rec, args.out)
    return 0 if all(r.passed for r in results) else 2


def _parse_grid(text):
    parts = text.split(",")
    if len(parts) != 3:
        raise UsageError("--grid expects lo,hi,n")
    lo, hi = _finite_floats(parts[:2], "grid")
    try:
        n = int(parts[2])
    except ValueError:
        raise UsageError(f"--grid: n = {parts[2]!r} is not an integer") from None
    if n <= 0 or hi <= lo:
        raise UsageError("--grid needs n > 0 and hi > lo")
    return lo, hi, n


def _reprs(a):
    """The float ndarray's values as repr strings (shortest round-trip form)."""
    return list(map(repr, a.tolist()))


def _write_csv(path, header, columns):
    """Header, then one CRLF-terminated line per row of the equal-length
    string columns, in one write (the bytes csv.writer gives for float reprs)."""
    _write_out(path, "\r\n".join([",".join(header), *map(",".join, zip(*columns)), ""]))


def _check_out_dir(path):
    """Refuse an --out path whose directory does not exist, before any work."""
    folder = os.path.dirname(path)
    if folder and not os.path.isdir(folder):
        raise UsageError(f"--out {path}: no directory {folder}")


def _write_out(path, text):
    """_write_file; a path that cannot be written is a usage error."""
    try:
        _write_file(path, text)
    except BrokenPipeError:
        raise
    except OSError as exc:
        raise UsageError(f"--out {path}: {exc.strerror or exc}") from None


def _write_file(path, text):
    """Write the ASCII text to path, creating it with the mode open(path, "w")
    gives.  An existing regular file is overwritten in place, then cut to the
    text's length: its blocks are reused, not freed and allocated again as a
    truncation to zero first does.  A write that raises also cuts the file
    to the bytes written, so an interrupted rewrite ends short, as it did
    under a truncation first, instead of leaving the old file's tail behind
    the new head.  A pipe or FIFO is only written, since it cannot be
    truncated."""
    data = memoryview(text.encode("ascii"))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    try:
        done = 0
        try:
            while done < len(data):     # a pipe may take fewer bytes per call
                done += os.write(fd, data[done:])
        finally:
            st = os.fstat(fd)
            if stat.S_ISREG(st.st_mode) and st.st_size > done:
                os.ftruncate(fd, done)
    finally:
        os.close(fd)


@functools.cache
def build_parser():
    """The argument parser, built once per process at first use."""
    p = _Parser(prog="sigma2",
                description="degenerate genus-2 sigma-function toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def common(q):
        q.add_argument("--out", default=None, help="write JSON/CSV here")

    q = sub.add_parser("classify", parents=[], help="stratum of a parameter point")
    q.add_argument("--lambda", dest="lam", required=True,
                   help="l4,l6,l8,l10 (reals or re,im pairs)")
    common(q)
    q.set_defaults(fn=cmd_classify)

    for name, fn in (("sigma", cmd_sigma), ("invert", cmd_invert),
                     ("potential", cmd_potential), ("periods", cmd_periods)):
        q = sub.add_parser(name)
        q.add_argument("--lambda", dest="lam", default=None)
        q.add_argument("--a2", default=None)
        q.add_argument("--gamma", default=None, help="gamma4,gamma6")
        q.add_argument("--b2", default=None)
        if name == "sigma":
            q.add_argument("--u", default=None, help="u3,u1")
            q.add_argument("--normalized", action="store_true")
            q.add_argument("--grid", default=None, help="lo,hi,n magnitude map")
        if name == "invert":
            q.add_argument("--U", required=True, help="U1,U3")
        if name == "potential":
            q.add_argument("--family", choices=("V1", "V2"), default="V1")
            q.add_argument("--phi", default=0.25,
                           type=lambda t: _finite_floats([t], "phi")[0])
            q.add_argument("--grid", default="0.02,0.98,128")
        common(q)
        q.set_defaults(fn=fn)

    q = sub.add_parser("verify", help="run verification suites")
    q.add_argument("--suite", default="all")
    q.add_argument("--seed", type=int, default=7)
    q.add_argument("--samples", type=int, default=None)
    common(q)
    q.set_defaults(fn=cmd_verify)
    return p


def main(argv=None):
    try:
        code = _dispatch(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout's reader left; devnull keeps the flush at exit from raising
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141      # 128 + SIGPIPE, what a shell reports for a killed writer
    return code


def _dispatch(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.out:
            _check_out_dir(args.out)
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except AmbiguousClassification as exc:
        print(json.dumps({"schema": SCHEMA, "error": "AmbiguousClassification",
                          "message": str(exc)}))
        return 3
    except Sigma2Error as exc:
        print(json.dumps({"schema": SCHEMA,
                          "error": type(exc).__name__, "message": str(exc)}))
        return 2

if __name__ == "__main__":
    sys.exit(main())
