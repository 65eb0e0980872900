"""The benchmark's workloads: inputs from a seed, one timed operation,
and the correctness gates applied outside the timed section.

A workload object has
  run_once()          the timed operation (one CLI invocation, or one
                      pass over the routes);
  evaluations(res)    work units the operation completed;
  check(res)          per-operation gate -> (attempted, failures);
  trace_notes(counts) how the traced layer counts differ from what the
                      benchmark recorded at its definition (notes only:
                      a faster design may well change them);
  confirm()           once-per-run gate that calls the program again
                      -> (attempted, failures, relative errors);
  host_gauged         whether its timings are quoted at nominal host
                      speed (hostspeed.py).
Every program call a gate makes is an attempted operation, and every
mismatch is a failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import math

import numpy as np

REFERENCE_SEED = 42

# Seed-42 witness values may move by round-off when summation order
# changes; anything beyond this is a changed result.
WITNESS_RTOL = 1e-9
WITNESS_ATOL = 1e-12

# Route tolerances of tests/test_acceptance.py: calibration spread
# (criterion 3), the sphere case (criterion 3, also used for the other
# closed-form comparisons), direct cost (criterion 4), the conformal
# discriminant polynomial (criterion 1) and the flat null oracle.
CALIBRATION_SPREAD_TOL = 1e-3
CLOSED_FORM_TOL = 1e-4
DIRECT_COST_TOL = 1e-3
DISCRIMINANT_TOL = 1e-6
NULL_ABS_TOL = 1e-8
# Below this magnitude a reference value is treated as zero and compared
# absolutely; it then does not enter the relative-error maximum.
ZERO_REFERENCE = 1e-6

CONFORMAL_A = -3.5
INLINE_G = "exp(2*x*y*z) | 0 | 0 | exp(2*x*y*z) | 0 | exp(2*x*y*z)"
CHECK_ARGS = {
    "check-conformal2d": [
        "check", "--metric", "conformal2d", "--param", f"a={CONFORMAL_A}",
        "--region", "-0.2,0.2", "--points-per-axis", "8", "--samples", "16",
    ],
    "check-inline3d": [
        "check", "--metric", "inline", "--g-upper", INLINE_G,
        "--region", "-0.3,0.3", "--points-per-axis", "2", "--samples", "6",
    ],
}


def _close(got: float, want: float, rtol: float, atol: float) -> bool:
    return abs(got - want) <= rtol * abs(want) + atol


class CheckWorkload:
    """`mtw check` driven through ``cli.main`` in-process."""

    # the checker's pool computes on every CPU, and no reference kernel
    # tracked its time (see hostspeed.py): quoted as measured
    host_gauged = False

    def __init__(self, mods, name: str, seed: int, reference: dict):
        self.m = mods
        self.name = name
        self.argv = CHECK_ARGS[name] + ["--seed", str(seed)]
        self.reference = reference[name] if seed == REFERENCE_SEED else None
        self.first = None  # (exit code, report text) of the first operation

    def run_once(self):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.m["cli"].main(self.argv)
        return code, out.getvalue(), err.getvalue()

    @staticmethod
    def evaluations(result) -> int:
        try:
            return sum(r["evaluated"] for r in json.loads(result[1])["results"])
        except ValueError:
            return 0

    def check(self, result):
        code, text, err = result
        fails = []
        try:
            rows = json.loads(text)["results"]
        except ValueError:
            return 1, [f"exit {code}, no JSON report: {err.strip()[-200:]}"]
        violated = any(r["verdict"] == "violated" for r in rows)
        if code != (1 if violated else 0):
            fails.append(f"exit code {code} disagrees with the verdicts")
        if self.first is None:
            self.first = (code, text)
        elif (code, text) != self.first:
            fails.append("report differs from the first run of the same input")
        if self.reference is not None:
            fails += self._against_reference(code, rows)
        return 1, fails

    def _against_reference(self, code, rows):
        ref = self.reference
        fails = []
        if code != ref["exit_code"]:
            fails.append(f"exit code {code}, reference {ref['exit_code']}")
        got = {r["condition"]: r for r in rows}
        if sorted(got) != sorted(ref["conditions"]):
            return fails + [f"conditions {sorted(got)} differ from the reference"]
        for cond, want in ref["conditions"].items():
            r = got[cond]
            if r["verdict"] != want["verdict"] or r["evaluated"] != want["evaluated"]:
                fails.append(f"{cond}: {r['verdict']}/{r['evaluated']}, reference "
                             f"{want['verdict']}/{want['evaluated']}")
            value = r["worst_witness"] and r["worst_witness"]["value"]
            if (value is None) != (want["value"] is None) or (
                value is not None
                and not _close(value, want["value"], WITNESS_RTOL, WITNESS_ATOL)
            ):
                fails.append(f"{cond}: witness {value}, reference {want['value']}")
        return fails

    def trace_notes(self, counts):
        notes = [f"{k} = {v}; the check made no integrations when recorded"
                 for k, v in counts.items()
                 if k.startswith("dynamics.integrations.") and v]
        if self.reference is not None:
            notes += [f"{k} = {counts[k]}; recorded {v}"
                      for k, v in self.reference["trace_counts"].items()
                      if counts[k] != v]
        return notes

    def confirm(self):
        """Re-derive every worst witness through independent calls."""
        cli, mtw = self.m["cli"], self.m["mtw"]
        if self.first is None:
            return 0, [], []
        doc = json.loads(self.first[1])
        cfg = cli.RunConfig(**doc["config"])
        metric = cli.build_metric(cfg)
        pot = cli.build_potential(cfg, metric.dim)
        attempted, fails, rel_errs = 0, [], []
        for r in doc["results"]:
            wit = r["worst_witness"]
            if wit is None:
                continue
            cond, want = r["condition"], wit["value"]
            attempted += 1
            try:
                # the checker already applied the zero-curvature
                # precondition; this re-evaluates the value only
                got = mtw.evaluate_condition(
                    metric, pot, cond, wit["point"], u=wit["u"], v=wit["v"],
                    w=wit["w"], curvature_tol=math.inf,
                )
            except Exception as e:  # any raise is a failed operation
                fails.append(f"{cond}: witness re-evaluation raised {e!r}")
                continue
            if got != want:
                fails.append(f"{cond}: witness re-evaluates to {got!r}, "
                             f"report says {want!r}")
            if cond == "zeroth-order":
                attempted += 1
                try:
                    jac = mtw.mtw_jacobi(metric, pot, wit["point"], wit["u"],
                                         np.zeros(metric.dim), wit["w"]).value
                except Exception as e:
                    fails.append(f"zeroth-order: jacobi confirmation raised {e!r}")
                    continue
                if not _close(jac, want, 0.0, CLOSED_FORM_TOL * max(1.0, abs(want))):
                    fails.append(f"zeroth-order: jacobi {jac!r} vs closed {want!r}")
                if abs(want) >= ZERO_REFERENCE:
                    rel_errs.append(abs(jac - want) / abs(want))
        if self.name == "check-conformal2d":
            fails += self._conformal_closed_forms(doc["results"], rel_errs)
            attempted += 1
        return attempted, fails, rel_errs

    def _conformal_closed_forms(self, rows, rel_errs):
        cf = self.m["conformal"]
        verdicts = {r["condition"]: r for r in rows}
        fails = []
        cls = cf.classify(CONFORMAL_A)
        want = {"fails-zeroth": ("violated", None),
                "fails-second-order": ("pass", "violated"),
                "passes-necessary": ("pass", "pass")}[cls]
        got = (verdicts["zeroth-order"]["verdict"],
               verdicts["discriminant-2d"]["verdict"])
        if got[0] != want[0] or (want[1] is not None and got[1] != want[1]):
            fails.append(f"zeroth/discriminant verdicts {got} disagree with "
                         f"conformal.classify({CONFORMAL_A}) = {cls}")
        # the discriminant is only evaluated at the origin, where
        # lhs - rhs has a closed polynomial form
        wit = verdicts["discriminant-2d"]["worst_witness"]
        if wit is not None:
            if any(wit["point"]):
                fails.append(f"discriminant witness at {wit['point']}, not the origin")
            else:
                poly = cf.discriminant_polynomial(CONFORMAL_A, *wit["u"])
                err = abs(wit["value"] - poly) / max(1.0, abs(poly))
                if err >= DISCRIMINANT_TOL:
                    fails.append(f"discriminant {wit['value']!r} vs polynomial "
                                 f"{poly!r}")
                if abs(poly) >= ZERO_REFERENCE:
                    rel_errs.append(abs(wit["value"] - poly) / abs(poly))
        return fails


# ---------------------------------------------------------------------------
# routes: the three-route agreement, as library calls
# ---------------------------------------------------------------------------


def _rotated_frame(alpha: float, scale: np.ndarray):
    """Orthonormal (u, w) for a diagonal metric with entries 1/scale**2."""
    c, s = math.cos(alpha), math.sin(alpha)
    return (np.array([c, s]) * scale, np.array([-s, c]) * scale)


def _sphere_chart(p: np.ndarray) -> np.ndarray:
    return np.array([math.acos(max(-1.0, min(1.0, p[2]))), math.atan2(p[1], p[0])])


def _sphere_embed(theta: float, phi: float) -> np.ndarray:
    return np.array([math.sin(theta) * math.cos(phi),
                     math.sin(theta) * math.sin(phi), math.cos(theta)])


class RoutesWorkload:
    """calibration, jacobi vs closed form on the sphere and a conformal
    metric, direct cost vs closed form on a flat quartic, and a sphere
    cost vs the great-circle value; inputs drawn from the seed."""

    CALIBRATION_CASES = 6
    # the routes compute on the calling thread alone, so a one-thread
    # kernel on the same CPU tracks the host's speed for them
    host_gauged = True

    def __init__(self, mods, seed: int):
        self.m = mods
        rng = np.random.default_rng(seed)

        # sphere point away from the chart poles; metric diag(1, sin^2)
        th, ph = rng.uniform(0.6, math.pi - 0.6), rng.uniform(-1.0, 1.0)
        self.sph_x = np.array([th, ph])
        self.sph_uw = _rotated_frame(rng.uniform(0, 2 * math.pi),
                                     np.array([1.0, 1.0 / math.sin(th)]))

        # conformal a = -3 near the origin, off the diagonal x = y where
        # its curvature 6 exp(-2f) (x - y)^2 vanishes
        a = -3.0
        r, ang = rng.uniform(0.15, 0.3), rng.uniform(math.pi / 2, math.pi)
        x, y = r * math.cos(ang), r * math.sin(ang)
        f = x**3 * y + a * x * x * y * y + x * y**3
        self.conf_x = np.array([x, y])
        self.conf_uw = _rotated_frame(rng.uniform(0, 2 * math.pi),
                                      np.full(2, math.exp(-f)))

        # positive-definite symmetric quartic, so the value at (e1, e2)
        # is bounded away from zero
        q, _ = np.linalg.qr(rng.normal(size=(2, 2)))
        A = q @ np.diag(rng.uniform(0.5, 1.5, 2)) @ q.T
        self.quartic_A = 0.5 * (A + A.T)

        # sphere cost between points a known great-circle distance apart
        th, ph = rng.uniform(1.0, math.pi - 1.0), rng.uniform(-1.0, 1.0)
        self.dist = rng.uniform(0.4, 0.9)
        p = _sphere_embed(th, ph)
        e_th = np.array([math.cos(th) * math.cos(ph),
                         math.cos(th) * math.sin(ph), -math.sin(th)])
        e_ph = np.array([-math.sin(ph), math.cos(ph), 0.0])
        beta = rng.uniform(0, 2 * math.pi)
        t = math.cos(beta) * e_th + math.sin(beta) * e_ph
        self.cost_x = np.array([th, ph])
        self.cost_y = _sphere_chart(math.cos(self.dist) * p + math.sin(self.dist) * t)
        self.first = None

    def run_once(self):
        """Every route comparison as (label, got, want, tolerance, kind),
        kind 'rel' or 'abs', or (label, exception) when a call raised."""
        mtw, dyn, geo, cf = (self.m[k] for k in ("mtw", "dynamics", "geometry",
                                                 "conformal"))
        zero2, e1, e2 = np.zeros(2), np.array([1.0, 0.0]), np.array([0.0, 1.0])
        # fresh metric objects each pass, as a new process would build them
        sphere = geo.sphere_metric()
        conformal = cf.conformal_metric(cf.ConformalSpec(a=-3.0))
        flat = geo.euclidean_metric(2)
        quartic = geo.quartic_potential(self.quartic_A)
        out = []

        try:
            cal = mtw.calibrate_normalization()
            for case in cal.cases:
                if abs(case.closed_value) > ZERO_REFERENCE:
                    out.append((f"calibrate/{case.label}", case.jacobi_value,
                                case.closed_value, CALIBRATION_SPREAD_TOL, "rel"))
                else:
                    out.append((f"calibrate/{case.label}", case.jacobi_value,
                                case.closed_value, NULL_ABS_TOL, "abs"))
            if cal.kappa != 1.0:
                out = [(lbl, ValueError(f"kappa {cal.kappa}, expected 1"))
                       for lbl, *_ in out]
        except Exception as e:  # a raise fails every calibration case
            out += [(f"calibrate/{i}", e) for i in range(self.CALIBRATION_CASES)]

        def route(label, fn, tol):
            try:
                got, want = fn()
                out.append((label, got, want, tol, "rel"))
            except Exception as e:
                out.append((label, e))

        def jacobi_vs_closed(metric, x, uw):
            u, w = uw
            jac = mtw.mtw_jacobi(metric, None, x, u, zero2, w).value
            return jac, mtw.mtw_zeroth_general(metric, None, x, u, w)

        route("sphere-jacobi",
              lambda: jacobi_vs_closed(sphere, self.sph_x, self.sph_uw),
              CLOSED_FORM_TOL)
        route("conformal-jacobi",
              lambda: jacobi_vs_closed(conformal, self.conf_x, self.conf_uw),
              CLOSED_FORM_TOL)
        route("quartic-direct-cost",
              lambda: (mtw.mtw_direct_cost(flat, quartic, zero2, e1, zero2, e2,
                                           h_s=0.05, h_t=0.05).value,
                       mtw.mtw_zeroth_simplified(flat, quartic, zero2, e1, e2)),
              DIRECT_COST_TOL)
        route("sphere-cost",
              lambda: (dyn.cost(sphere, None, self.cost_x, self.cost_y).value,
                       0.5 * self.dist**2),
              CLOSED_FORM_TOL)
        return out

    @staticmethod
    def evaluations(result) -> int:
        return len(result)

    def check(self, result):
        fails = []
        for item in result:
            if len(item) == 2:
                fails.append(f"{item[0]}: raised {item[1]!r}")
                continue
            label, got, want, tol, kind = item
            err = abs(got - want) / (abs(want) if kind == "rel" else 1.0)
            if not err <= tol:
                fails.append(f"{label}: {got!r} vs {want!r} ({kind} error {err:.3e} "
                             f"> {tol:.0e})")
        if self.first is None:
            self.first = result
        elif repr(result) != repr(self.first):
            fails.append("route values differ from the first pass of the same input")
        return len(result), fails

    def trace_notes(self, counts):
        notes = []
        if not sum(v for k, v in counts.items()
                   if k.startswith("dynamics.integrations.")):
            notes.append("no trajectory integrations")
        if not counts["dynamics.newton_iters"]:
            notes.append("no Newton iterations")
        if counts["geometry.jet_builds"] != counts["mtw.closed_form.calls"]:
            notes.append(f"{counts['geometry.jet_builds']} jet builds for "
                         f"{counts['mtw.closed_form.calls']} closed-form calls; "
                         "each closed-form call built one when recorded")
        return notes

    def confirm(self):
        """The route comparisons ran in the timed pass; this only reports
        their relative errors."""
        errs = [abs(i[1] - i[2]) / abs(i[2]) for i in self.first or ()
                if len(i) == 5 and i[4] == "rel"]
        return 0, [], errs


def make(mods, name: str, seed: int, reference: dict):
    if name in CHECK_ARGS:
        return CheckWorkload(mods, name, seed, reference)
    if name == "routes":
        return RoutesWorkload(mods, seed)
    raise KeyError(name)


NAMES = (*CHECK_ARGS, "routes")
