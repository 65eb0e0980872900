"""Per-layer spans and counters, recorded from outside the program.

The tracer replaces, for the duration of a ``with`` block, the module
attributes through which one mtwcheck module calls the next (for example
``geometry.jmul`` or ``dynamics._integrate``) with thin wrappers that
time each call and count it.  Nothing under ``src/`` is edited.

Spans are kept in memory as per-name aggregates: calls, summed duration
and the part of that duration covered by direct child spans on the same
thread, so a layer's self time is its span time minus its children.
Each thread has its own span stack and every update of the shared
tables takes a lock, so the checker's pool threads are counted too.
Times from several threads are summed, so a layer's time can exceed
the wall time of the operation that contains it.
"""

from __future__ import annotations

import math
import threading
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

INTEGRATION_MODES = ("plain", "transport", "velocity", "full")


class Tracer:
    """Wraps mtwcheck's inter-module call sites while it is entered."""

    def __init__(self, modules):
        self._m = modules
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches = []
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.calls = Counter()
            self.total = defaultdict(float)
            self.child = defaultdict(float)
            self.counts = Counter()

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _close(self, stack: list, t0: float) -> None:
        """End the innermost span on this thread's stack."""
        dt = perf_counter() - t0
        name = stack.pop()
        with self._lock:
            self.calls[name] += 1
            self.total[name] += dt
            if stack:
                self.child[stack[-1]] += dt

    def _count(self, hook, *args) -> None:
        # A counter that cannot read a call (its signature changed) skips
        # it rather than break the traced program.
        with self._lock:
            try:
                hook(self.counts, *args)
            except (TypeError, ValueError, IndexError, AttributeError):
                self.counts["unreadable_calls"] += 1

    def _wrap(self, owner, attr: str, name: str, on_call=None, on_return=None):
        """Replace ``owner.attr`` with a timed, counted wrapper; an
        attribute the program no longer has is left alone."""
        orig = getattr(owner, attr, None)
        if orig is None:
            return
        tracer = self

        def traced(*args, **kwargs):
            if on_call is not None:
                tracer._count(on_call, args, kwargs)
            stack = tracer._stack()
            stack.append(name)
            t0 = perf_counter()
            try:
                out = orig(*args, **kwargs)
            finally:
                tracer._close(stack, t0)
            if on_return is not None:
                tracer._count(on_return, out)
            return out

        self._patches.append((owner, attr, orig))
        setattr(owner, attr, traced)

    def _pool_class(self):
        """ThreadPoolExecutor whose ``map`` is a span on the caller's
        thread: the time the checker waits for its workers."""
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def map(self, fn, *iterables, **kwargs):
                stack = tracer._stack()
                stack.append("pool.wait")
                t0 = perf_counter()
                try:
                    # drain here so the wait falls inside the span
                    return iter(list(super().map(fn, *iterables, **kwargs)))
                finally:
                    tracer._close(stack, t0)

        return TracedPool

    def __enter__(self):
        m = self._m
        cli, mtw, geo, dyn = m["cli"], m["mtw"], m["geometry"], m["dynamics"]
        self._wrap(cli, "main", "cli.main")
        self._wrap(mtw, "check_a3w_necessary", "mtw.check")
        self._wrap(mtw, "_scan_point", "mtw.scan_point")
        self._wrap(mtw, "calibrate_normalization", "mtw.calibrate")
        self._wrap(mtw, "evaluate_condition", "mtw.zeroth")
        self._wrap(mtw, "g_quantity", "mtw.g_quantity")
        self._wrap(mtw, "discriminant_2d", "mtw.discriminant")
        self._wrap(mtw, "mtw_jacobi", "mtw.jacobi")
        self._wrap(mtw, "mtw_direct_cost", "mtw.direct_cost")
        self._wrap(mtw, "mtw_zeroth_simplified", "mtw.closed_form")
        self._wrap(mtw, "mtw_zeroth_general", "mtw.closed_form")
        self._wrap(mtw, "GeometryJet", "geometry.jet", on_call=_count_jet)
        if hasattr(mtw, "ThreadPoolExecutor"):
            self._patches.append((mtw, "ThreadPoolExecutor", mtw.ThreadPoolExecutor))
            mtw.ThreadPoolExecutor = self._pool_class()
        self._wrap(geo, "jmul", "jets.jmul", on_call=_count_jmul_pairs)
        self._wrap(geo, "jmatinv", "jets.jmatinv")
        self._wrap(geo, "taylor_coefficients", "expr.taylor")
        self._wrap(dyn, "_integrate", "dynamics.integrate",
                   on_call=_count_integration)
        if hasattr(dyn, "_PointEval"):
            self._wrap(dyn._PointEval, "__call__", "dynamics.point_eval")
        self._wrap(dyn, "shoot_velocity", "dynamics.shoot",
                   on_return=_count_newton)
        self._wrap(dyn, "cost", "dynamics.cost")
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)
        return False

    # -- reading -----------------------------------------------------------

    def self_time(self, prefix: str) -> float:
        """Summed self time of every span whose name starts with ``prefix``."""
        return sum((self.total[k] - self.child[k] for k in self.total
                    if k.startswith(prefix)), 0.0)

    def layer_metrics(self) -> dict:
        """Counts and times of one traced operation, by metric name."""
        c, t, n = self.calls, self.total, self.counts
        out = {
            "cli.calls": c["cli.main"],
            "cli.self_s": self.self_time("cli."),
            "mtw.check_s": t["mtw.check"],
            "mtw.self_s": self.self_time("mtw."),
            "mtw.pool_wait_s": t["pool.wait"],
        }
        for short in ("zeroth", "g_quantity", "discriminant", "jacobi",
                      "direct_cost", "closed_form"):
            out[f"mtw.{short}.calls"] = c[f"mtw.{short}"]
            out[f"mtw.{short}_s"] = t[f"mtw.{short}"]
        out["geometry.jet_builds"] = c["geometry.jet"]
        for order in (0, 1, 2):
            out[f"geometry.jet_builds.order{order}"] = n[f"jet_order{order}"]
        out["geometry.jet_build_s"] = t["geometry.jet"]
        out["geometry.jet_self_s"] = self.self_time("geometry.")
        out["jets.jmul.calls"] = c["jets.jmul"]
        out["jets.jmul_s"] = t["jets.jmul"]
        out["jets.jmul.pairs"] = n["jmul_pairs"]
        out["jets.jmatinv.calls"] = c["jets.jmatinv"]
        out["jets.jmatinv_s"] = t["jets.jmatinv"]
        out["expr.taylor.calls"] = c["expr.taylor"]
        out["expr.taylor_s"] = t["expr.taylor"]
        for mode in INTEGRATION_MODES:
            out[f"dynamics.integrations.{mode}"] = n[f"integrations_{mode}"]
        out["dynamics.rk4_steps"] = n["rk4_steps"]
        out["dynamics.integrate_s"] = t["dynamics.integrate"]
        out["dynamics.point_evals"] = c["dynamics.point_eval"]
        out["dynamics.point_eval_s"] = t["dynamics.point_eval"]
        out["dynamics.integrate_self_s"] = self.self_time("dynamics.integrate")
        out["dynamics.shoots"] = c["dynamics.shoot"]
        out["dynamics.newton_iters"] = n["newton_iters"]
        out["dynamics.shoot_s"] = t["dynamics.shoot"]
        out["dynamics.cost.calls"] = c["dynamics.cost"]
        out["dynamics.cost_s"] = t["dynamics.cost"]
        return out


# -- counters read from call arguments and results ---------------------------


def _count_jet(counts, args, kwargs):
    # GeometryJet(metric, x, potential=None, curvature_order=2)
    order = kwargs.get("curvature_order", args[3] if len(args) > 3 else 2)
    counts[f"jet_order{order}"] += 1


def _count_jmul_pairs(counts, args, kwargs):
    """Multiply-adds jmul performs: broadcast leading size x table length.

    A computed count from the argument shapes, not a measurement.
    """
    space, a, b = args
    sa, sb = a.shape[:-1], b.shape[:-1]
    if len(sa) < len(sb):
        sa, sb = sb, sa
    sb = (1,) * (len(sa) - len(sb)) + sb
    lead = math.prod(max(x, y) for x, y in zip(sa, sb))
    counts["jmul_pairs"] += lead * len(space._mul_a)


def _count_integration(counts, args, kwargs):
    # _integrate(metric, potential, x0, v0, steps, *, transport, variation)
    steps = kwargs.get("steps", args[4] if len(args) > 4 else None)
    variation = kwargs.get("variation")
    if variation is not None:
        mode = variation
    elif kwargs.get("transport"):
        mode = "transport"
    else:
        mode = "plain"
    counts[f"integrations_{mode}"] += 1
    counts["rk4_steps"] += steps


def _count_newton(counts, out):
    # shoot_velocity returns (velocity, newton iterations, endpoint error)
    counts["newton_iters"] += out[1]
