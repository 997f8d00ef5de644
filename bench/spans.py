"""In-memory span tracer for the benchmark's traced run.

The tracer wraps public functions of the package from outside: every
reference to the same function object in a ``sigma2.*`` module namespace is
rebound to a wrapper, so ``from .numerics import derivative`` style imports
are caught too.  Each call records a span (name, start, end, parent, request
id); self time is a span's duration minus the part of it its child spans
cover.  A name that no longer exists is recorded as absent, not an error.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from collections import Counter, defaultdict, namedtuple

PACKAGE = "sigma2"

# module -> public functions wrapped in the traced run
TARGETS = {
    "cli": ("main", "emit"),
    "verify": ("run_suite",),
    "elliptic": ("make_context", "sigma_w", "sigma_w_prime", "zeta_w", "wp",
                 "wp_prime", "invert_wp"),
    "strata": ("classify", "discriminant", "recover_lambda1"),
    "sigma": ("context_lambda1", "context_lambda0", "make_degen_context",
              "sigma2", "sigma2_u", "s_function", "p_function",
              "log_derivatives"),
    "heat": ("q_residuals", "l2_action_residuals", "l0_action_residuals"),
    "inversion": ("solve_inversion", "branch_point_inversion",
                  "forward_integrals"),
    "spectral": ("real_family", "potential_u", "eigen_residual",
                 "kdv_residual", "bloch_residual"),
    "lattice": ("period_matrices", "abel_integrals", "period_increment"),
    "numerics": ("derivative", "mixed_second", "cauchy_derivatives",
                 "quadrature_path", "continuous_log"),
}

SUITES = ("heat", "taylor", "inversion", "two_route", "periodicity",
          "legendre", "spectral", "algebra", "classify", "gradient",
          "trig_limit")

# differentiation primitives: evaluations of their first argument are counted
DIFFERENTIATION = ("numerics.derivative", "numerics.mixed_second",
                   "numerics.cauchy_derivatives")
SUITE_RUNNER = "verify.run_suite"     # its first argument names the suite

# ratio name -> (counted span, ancestor it must run under); the base is the
# number of ancestor calls
RATIOS = {
    "elliptic.wp_calls_per_invert_wp": ("elliptic.wp", "elliptic.invert_wp"),
    "sigma.sigma_w_calls_per_sigma2": ("elliptic.sigma_w", "sigma.sigma2"),
}
EVALS_PER_DIFF = "numerics.evals_per_diff"

Span = namedtuple("Span", "sid name t0 t1 parent request failed evals tag")


def layer_metric_names():
    """Every per-layer metric the traced run reports, with its unit."""
    names = []
    for mod, fns in TARGETS.items():
        names += [(f"{mod}.calls", "count"), (f"{mod}.self_s", "s"),
                  (f"{mod}.fails", "count")]
        for fn in fns:
            names += [(f"{mod}.{fn}.calls", "count"), (f"{mod}.{fn}.self_s", "s")]
    names += [(f"verify.{s}.s", "s") for s in SUITES]
    names += [(r, "ratio") for r in RATIOS] + [(EVALS_PER_DIFF, "ratio")]
    names += [("setup.import_s", "s"), ("setup.inputs_s", "s"),
              ("trace.overhead_s", "s"), ("trace.overhead_ratio", "ratio")]
    return names


class Tracer:
    """Wraps the target functions; ``install``/``uninstall`` switch tracing."""

    def __init__(self, targets=TARGETS):
        self.spans = []
        self.request = 0
        self.absent = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._local.stack = []
        self._wrappers = {}          # name -> (original, wrapper)
        self._bindings = []          # (namespace, attribute, original)
        for mod, fns in targets.items():
            home = sys.modules.get(f"{PACKAGE}.{mod}")
            for fn in fns:
                name = f"{mod}.{fn}"
                orig = getattr(home, fn, None)
                if callable(orig):
                    self._wrappers[name] = (orig, self._wrap(name, orig))
                else:
                    self.absent.append(name)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        spans, ids, local, clock = self.spans, self._ids, self._local, time.perf_counter
        counts_evals = name in DIFFERENTIATION
        tagged = name == SUITE_RUNNER

        def wrapper(*args, **kwargs):
            stack = self._stack()
            # a worker thread's first span belongs to what the main thread
            # is running (the CLI call that started the pool)
            parent = stack[-1] if stack else (
                self._main_stack[-1] if self._main_stack else 0)
            sid = next(ids)
            evals = None
            if counts_evals and not getattr(local, "in_diff", False) \
                    and args and callable(args[0]):
                evals = [0]
                f = args[0]

                def counted(*a, **kw):
                    evals[0] += 1
                    return f(*a, **kw)
                args = (counted,) + args[1:]
                local.in_diff = True
            tag = (args[0] if args else kwargs.get("name")) if tagged else None
            stack.append(sid)
            failed = True
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                t1 = clock()
                stack.pop()
                if evals is not None:
                    local.in_diff = False
                spans.append(Span(sid, name, t0, t1, parent, self.request,
                                  failed, evals[0] if evals else None, tag))

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        by_id = {id(orig): (orig, wrapper) for orig, wrapper in self._wrappers.values()}
        for m in modules:
            for attr, val in list(vars(m).items()):
                hit = by_id.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(m, attr, hit[1])
                    self._bindings.append((m, attr, val))

    def uninstall(self):
        for m, attr, orig in reversed(self._bindings):
            setattr(m, attr, orig)
        self._bindings.clear()

    def take(self):
        """The spans recorded so far; the tracer starts a fresh list."""
        out = list(self.spans)
        self.spans.clear()
        return out


def union_length(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans):
    """{sid: duration minus the time covered by the span's children}."""
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append((s.t0, s.t1))
    return {s.sid: (s.t1 - s.t0) - union_length(children.get(s.sid, ()), s.t0, s.t1)
            for s in spans}


def summarize(spans):
    """Raw sums for one batch of spans; ``finalize`` turns them into metrics."""
    sums = Counter()
    own = self_times(spans)
    name_of = {s.sid: s.name for s in spans}
    under = {anc: set() for _, anc in RATIOS.values()}
    for s in sorted(spans, key=lambda s: s.sid):      # parents start first
        for anc, sids in under.items():
            if name_of.get(s.parent) == anc or s.parent in sids:
                sids.add(s.sid)
    for s in spans:
        mod = s.name.split(".", 1)[0]
        sums[f"{s.name}.calls"] += 1
        sums[f"{s.name}.self_s"] += own[s.sid]
        sums[f"{mod}.calls"] += 1
        sums[f"{mod}.self_s"] += own[s.sid]
        sums[f"{mod}.fails"] += s.failed
        if s.tag is not None:
            sums[f"verify.{s.tag}.s"] += s.t1 - s.t0
        if s.evals is not None:
            sums["diff.evals"] += s.evals
            sums["diff.calls"] += 1
        for ratio, (counted, anc) in RATIOS.items():
            if s.name == counted and s.sid in under[anc]:
                sums[f"{ratio}.num"] += 1
    for ratio, (_, anc) in RATIOS.items():
        sums[f"{ratio}.den"] = sums[f"{anc}.calls"]
    return sums


def finalize(sums, passes):
    """Per-pass means of counts and times, and the three ratios."""
    out = {}
    for name, _ in layer_metric_names():
        if name in RATIOS:
            den = sums[f"{name}.den"]
            out[name] = sums[f"{name}.num"] / den if den else 0.0
        elif name == EVALS_PER_DIFF:
            den = sums["diff.calls"]
            out[name] = sums["diff.evals"] / den if den else 0.0
        elif name.startswith(("setup.", "trace.")):
            continue
        else:
            out[name] = sums[name] / passes if passes else 0.0
    return out


def write_spans(spans, path):
    """One CSV row per span, for inspection after the run."""
    with open(path, "w") as fh:
        fh.write("sid,name,t0,t1,parent,request,failed,evals,tag\n")
        for s in spans:
            fh.write(",".join("" if v is None else str(v) for v in s) + "\n")
