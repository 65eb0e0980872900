"""Command-line front end.

Subcommands
-----------
eval            one cross-curvature evaluation (any method)
check           sample a region for necessary-condition violations
cost            two-point action cost by shooting
geodesic        integrate one least-action curve to CSV
curvature       sectional-curvature grid over a region to CSV
conformal-scan  classification sweep of the conformal family to CSV
lemma-tests     run the variation-identity suite
calibrate       determine the normalization constant from the oracles

Exit codes: 0 = ran, all checks passed; 1 = ran, found violations;
2 = usage or configuration error; 3 = numerical failure (conjugate
point, shooting divergence, calibration inconsistency); 4 = ``check``
ran and found no violation, but some condition was evaluated at no
sample ("vacuous").

A flat ``key = value`` config file can supply any long option
(``--config run.cfg``); explicit flags override file values.  Reports
are deterministic for a fixed config; wall-clock timings are only
included with ``--timings`` so that identical configs produce
byte-identical JSON.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import re
import sys
import time
from dataclasses import dataclass

import numpy as np

from .errors import MtwError, NumericalError
from .geometry import (
    GeometryBatch,
    MetricField,
    PotentialField,
    euclidean_metric,
    quartic_potential,
    sphere_metric,
)
from .expr import parse_field
from . import conformal as cf
from . import dynamics as dyn
from . import mtw

# Most rows one conformal-scan may make (a row takes about 5 us to
# classify): a wider range or a finer step is refused before any row.
CONFORMAL_SCAN_MAX_ROWS = 100_000

class UsageError(Exception):
    """Configuration or command-line problem (exit code 2)."""


@dataclass
class RunConfig:
    """Everything a run needs, in serialized (string) form.

    Vector/matrix-valued options stay as their textual form so the
    config round-trips losslessly through the flat file format.
    """

    command: str
    metric: str = "euclidean2"
    param: str = ""  # metric parameters, "a=-3.5,a4=0"
    g_upper: str = ""  # inline metric upper triangle, "|"-separated
    potential: str = "none"
    potential_expr: str = ""
    quartic: str = ""  # rows ";"-separated, entries ","-separated
    point: str = ""
    u: str = ""
    v: str = ""
    w: str = ""
    method: str = "jacobi"
    target: str = ""
    velocity: str = ""
    region: str = ""
    points_per_axis: int = 8
    samples: int = 16
    steps: int = dyn.DEFAULT_STEPS
    fd_step: float = mtw.DEFAULT_FD_STEP
    quad_panels: int = 1024
    seed: int = 42
    a_from: float = -4.0
    a_to: float = -2.5
    a_step: float = 0.05
    lemma_h: float = 1e-2
    output: str = ""
    csv: str = ""
    timings: bool = False

    def to_config_text(self) -> str:
        lines = []
        for f in dataclasses.fields(self):
            val = getattr(self, f.name)
            key = f.name.replace("_", "-")
            if isinstance(val, bool):
                val = "true" if val else "false"
            lines.append(f"{key} = {val}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_config_text(text: str) -> "RunConfig":
        data = _parse_config_text(text)
        if "command" not in data:
            raise UsageError("config text must include a 'command' entry")
        return _config_from_mapping(data)


def _parse_config_text(text: str) -> dict:
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"config line {lineno}: expected 'key = value'")
        key, val = line.split("=", 1)
        out[key.strip()] = val.strip()
    return out


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(RunConfig)}


def _coerce(name: str, value):
    """``value`` as the type of the RunConfig field ``name``; a value that
    does not convert raises UsageError naming the key and the value."""
    kind = _FIELD_TYPES[name]
    if kind == "bool" and isinstance(value, bool):
        return value
    try:
        if kind == "bool":
            return {"1": True, "true": True, "yes": True, "on": True, "0": False,
                    "false": False, "no": False, "off": False}[str(value).strip().lower()]
        if kind == "int":
            return int(value)
        if kind == "float":
            out = float(value)
            if not math.isfinite(out):
                raise UsageError(f"bad value {value!r} for {name.replace('_', '-')}: "
                                 "expected a finite number")
            return out
    except (KeyError, ValueError):
        want = {"bool": "true or false", "int": "an integer", "float": "a number"}[kind]
        raise UsageError(f"bad value {value!r} for {name.replace('_', '-')}: "
                         f"expected {want}") from None
    return str(value)


def _config_from_mapping(data: dict) -> RunConfig:
    kwargs = {}
    for key, val in data.items():
        name = key.replace("-", "_")
        if name not in _FIELD_TYPES:
            raise UsageError(f"unknown config key {key!r}")
        kwargs[name] = _coerce(name, val)
    return RunConfig(**kwargs)


# ---------------------------------------------------------------------------
# Value parsing
# ---------------------------------------------------------------------------


def _finite(vals: list, what: str) -> None:
    """Refuse inf and nan among ``vals``: no input of the program may be."""
    for v in vals:
        if not math.isfinite(v):
            raise UsageError(f"bad {what}: {v!r} is not finite")


def _parse_vector(text: str, dim: int, what: str) -> np.ndarray:
    text = text.strip()
    if not text:
        raise UsageError(f"missing {what}")
    if text == "0":
        return np.zeros(dim)
    try:
        vals = [float(p) for p in text.split(",")]
    except ValueError as e:
        raise UsageError(f"bad {what} {text!r}: {e}") from None
    _finite(vals, f"{what} {text!r}")
    if len(vals) != dim:
        raise UsageError(
            f"{what} has {len(vals)} components, metric dimension is {dim}"
        )
    return np.array(vals)


def _parse_matrix(text: str) -> np.ndarray:
    try:
        rows = [[float(p) for p in row.split(",")] for row in text.split(";")]
    except ValueError as e:
        raise UsageError(f"bad matrix {text!r}: {e}") from None
    _finite([v for row in rows for v in row], f"matrix {text!r}")
    arr = np.array(rows)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise UsageError(f"matrix {text!r} is not square")
    return arr


def _parse_params(text: str) -> dict:
    out = {}
    if not text.strip():
        return out
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise UsageError(f"bad metric parameter {part!r}, expected name=value")
        k, v = part.split("=", 1)
        try:
            value = float(v)
        except ValueError:
            raise UsageError(f"bad metric parameter value in {part!r}") from None
        _finite([value], f"metric parameter {part!r}")
        out[k.strip()] = value
    return out


def _parse_region(text: str, dim: int) -> tuple:
    if not text.strip():
        raise UsageError("missing --region")
    try:
        vals = [float(p) for p in text.split(",")]
    except ValueError as e:
        raise UsageError(f"bad region {text!r}: {e}") from None
    _finite(vals, f"region {text!r}")
    if len(vals) == 2:
        lo, hi = vals
        box = tuple((lo, hi) for _ in range(dim))
    elif len(vals) == 2 * dim:
        box = tuple((vals[2 * i], vals[2 * i + 1]) for i in range(dim))
    else:
        raise UsageError(
            f"region needs 2 or {2 * dim} comma-separated numbers, got {len(vals)}"
        )
    for lo, hi in box:
        if not lo < hi:
            raise UsageError(f"region bounds ({lo}, {hi}) are not increasing")
    return box


def build_metric(cfg: RunConfig) -> MetricField:
    name = cfg.metric.strip()
    params = _parse_params(cfg.param)
    m = re.fullmatch(r"euclidean(\d+)", name)
    if m:
        return euclidean_metric(int(m.group(1)))
    if name == "sphere2":
        return sphere_metric()
    if name == "conformal2d":
        if "a" not in params:
            raise UsageError("conformal2d needs --param a=<value>")
        return cf.conformal_metric(
            cf.ConformalSpec(a=params["a"], a4=params.get("a4", 0.0))
        )
    if name == "inline":
        if not cfg.g_upper.strip():
            raise UsageError("inline metric needs --g-upper with the entries")
        entries = [p.strip() for p in cfg.g_upper.split("|")]
        k = len(entries)
        dim = int((np.sqrt(8 * k + 1) - 1) / 2)
        if dim * (dim + 1) // 2 != k:
            raise UsageError(
                f"--g-upper has {k} entries, not a triangular count (1, 3, 6, ...)"
            )
        try:
            fields = [parse_field(e, dim) for e in entries]
        except MtwError as e:
            raise UsageError(f"bad metric entry: {e}") from None
        return MetricField.from_upper(fields, dim)
    raise UsageError(
        f"unknown metric {name!r} (euclideanN, sphere2, conformal2d, inline)"
    )


def build_potential(cfg: RunConfig, dim: int) -> PotentialField | None:
    name = cfg.potential.strip()
    if name == "none":
        return None
    if name == "quartic":
        if not cfg.quartic.strip():
            raise UsageError("quartic potential needs --quartic with the matrix")
        A = _parse_matrix(cfg.quartic)
        if A.shape[0] != dim:
            raise UsageError(
                f"quartic matrix is {A.shape[0]}x{A.shape[0]}, metric dimension {dim}"
            )
        return quartic_potential(A)
    if name == "inline":
        if not cfg.potential_expr.strip():
            raise UsageError("inline potential needs --potential-expr")
        try:
            return PotentialField(parse_field(cfg.potential_expr, dim), dim)
        except MtwError as e:
            raise UsageError(f"bad potential expression: {e}") from None
    raise UsageError(f"unknown potential {name!r} (none, quartic, inline)")


# ---------------------------------------------------------------------------
# Report output
# ---------------------------------------------------------------------------


def _jsonify(obj):
    if isinstance(obj, np.ndarray):
        return [float(x) for x in obj.ravel()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: _jsonify(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    return obj


def _emit_report(cfg: RunConfig, results, timings) -> None:
    doc = {
        "config": _jsonify(dataclasses.asdict(cfg)),
        "results": _jsonify(results),
        "timings": _jsonify(timings) if cfg.timings else None,
    }
    _emit(cfg.output, json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _emit_csv(cfg: RunConfig, columns, rows) -> None:
    lines = ["# columns: " + ",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _emit(cfg.csv, "\n".join(lines) + "\n")


def _emit(path: str, text: str) -> None:
    """Write ``text`` to the file ``path``, or to stdout when it is empty;
    a file that cannot be written raises UsageError."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as f:
            f.write(text)
    except OSError as e:
        raise UsageError(f"cannot write {path!r}: {e.strerror}") from None


def _fmt(v) -> str:
    if isinstance(v, str):
        return v
    return repr(float(v))


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------


def _steps_if_given(cfg: RunConfig, given: set) -> dict:
    """``steps`` as a keyword argument if the option was given: the jacobi
    and direct-cost routes choose their own step counts otherwise."""
    return {"steps": cfg.steps} if "steps" in given else {}


def _cmd_eval(cfg: RunConfig, given: set) -> int:
    metric = build_metric(cfg)
    pot = build_potential(cfg, metric.dim)
    x = _parse_vector(cfg.point, metric.dim, "--point")
    u = _parse_vector(cfg.u, metric.dim, "--u")
    v = _parse_vector(cfg.v or "0", metric.dim, "--v")
    w = _parse_vector(cfg.w, metric.dim, "--w")
    t0 = time.perf_counter()
    method = cfg.method
    if method == "jacobi":
        ev = mtw.mtw_jacobi(metric, pot, x, u, v, w, h=cfg.fd_step,
                            **_steps_if_given(cfg, given))
    elif method == "direct-cost":
        # the route keeps its own defaults unless the options are given
        kw = _steps_if_given(cfg, given)
        if "fd_step" in given:
            kw["h_s"] = kw["h_t"] = cfg.fd_step
        ev = mtw.mtw_direct_cost(metric, pot, x, u, v, w, **kw)
    elif method == "closed-form-0":
        if np.any(v != 0.0):
            raise UsageError("closed-form-0 is defined at v = 0; pass --v 0")
        val = mtw.mtw_zeroth_general(metric, pot, x, u, w,
                                     quad_panels=cfg.quad_panels)
        ev = mtw.MtwEvaluation(x=x, u=u, v=v, w=w, method=method, value=val)
    elif method == "closed-form-1":
        if pot is not None:
            raise UsageError("closed-form-1 applies to the pure metric case")
        val = mtw.mtw_first(metric, x, u, v, w)
        ev = mtw.MtwEvaluation(x=x, u=u, v=v, w=w, method=method, value=val)
    elif method == "closed-form-2":
        if pot is not None:
            raise UsageError("closed-form-2 applies to the pure metric case")
        val = mtw.mtw_second(metric, x, u, v, w)
        ev = mtw.MtwEvaluation(x=x, u=u, v=v, w=w, method=method, value=val)
    else:
        raise UsageError(
            f"unknown method {cfg.method!r} (jacobi, direct-cost, "
            "closed-form-0, closed-form-1, closed-form-2)"
        )
    timings = {"eval_seconds": time.perf_counter() - t0}
    _emit_report(cfg, [ev], timings)
    return 0


def _cmd_check(cfg: RunConfig) -> int:
    metric = build_metric(cfg)
    pot = build_potential(cfg, metric.dim)
    box = _parse_region(cfg.region, metric.dim)
    spec = mtw.SamplingSpec(
        box=box,
        points_per_axis=cfg.points_per_axis,
        directions=cfg.samples,
        seed=cfg.seed,
    )
    t0 = time.perf_counter()
    report = mtw.check_a3w_necessary(metric, pot, spec)
    timings = {"check_seconds": time.perf_counter() - t0}
    results = [
        {
            "condition": c.name,
            "verdict": ("violated" if not c.passed
                        else "pass" if c.evaluated else "vacuous"),
            "evaluated": c.evaluated,
            "threshold": c.threshold,
            "worst_witness": None if c.worst is None else {
                "point": c.worst.point,
                "u": c.worst.u,
                "v": c.worst.v,
                "w": c.worst.w,
                "value": c.worst.value,
            },
        }
        for c in report.conditions
    ]
    _emit_report(cfg, results, timings)
    if report.overall_pass:
        return 0
    return 1 if any(not c.passed for c in report.conditions) else 4


def _cmd_cost(cfg: RunConfig) -> int:
    metric = build_metric(cfg)
    pot = build_potential(cfg, metric.dim)
    x = _parse_vector(cfg.point, metric.dim, "--point")
    y = _parse_vector(cfg.target, metric.dim, "--target")
    t0 = time.perf_counter()
    res = dyn.cost(metric, pot, x, y, steps=cfg.steps)
    timings = {"cost_seconds": time.perf_counter() - t0}
    _emit_report(cfg, [{
        "value": res.value,
        "initial_velocity": res.initial_velocity,
        "iterations": res.iterations,
        "endpoint_error": res.endpoint_error,
        "steps": cfg.steps,
    }], timings)
    return 0


def _cmd_geodesic(cfg: RunConfig) -> int:
    metric = build_metric(cfg)
    pot = build_potential(cfg, metric.dim)
    x = _parse_vector(cfg.point, metric.dim, "--point")
    v = _parse_vector(cfg.velocity, metric.dim, "--velocity")
    path = dyn.least_action_curve(metric, pot, x, v, steps=cfg.steps)
    n = metric.dim
    cols = (["tau"] + [f"pos{i+1}" for i in range(n)]
            + [f"vel{i+1}" for i in range(n)])
    rows = [
        [path.tau[k]] + list(path.pos[k]) + list(path.vel[k])
        for k in range(path.steps + 1)
    ]
    _emit_csv(cfg, cols, rows)
    return 0


def _cmd_curvature(cfg: RunConfig) -> int:
    metric = build_metric(cfg)
    box = _parse_region(cfg.region, metric.dim)
    spec = mtw.SamplingSpec(box=box, points_per_axis=cfg.points_per_axis,
                            directions=cfg.samples, seed=cfg.seed)
    dirs = spec.direction_set(metric.dim)
    points, rows = spec.points(), []
    for b in mtw._chunks(len(points)):
        X = points[b]
        geo = GeometryBatch(metric, X, curvature_order=0)
        U, W, ok = mtw._orthonormal_pairs(geo, dirs)
        K = mtw.CONDITIONS["sectional-nonneg"].value(geo, U, None, W)
        k_min = np.min(K, axis=1, initial=np.inf, where=ok)
        k_max = np.max(K, axis=1, initial=-np.inf, where=ok)
        rows += [list(x) + [lo, hi] for x, lo, hi in zip(X, k_min, k_max)]
    cols = [f"x{i+1}" for i in range(metric.dim)] + ["K_min", "K_max"]
    _emit_csv(cfg, cols, rows)
    return 0


def _cmd_conformal_scan(cfg: RunConfig) -> int:
    if cfg.a_step <= 0:
        raise UsageError("--a-step must be positive")
    count = int(round((cfg.a_to - cfg.a_from) / cfg.a_step))
    if count + 1 > CONFORMAL_SCAN_MAX_ROWS:
        raise UsageError(
            f"conformal-scan would make {count + 1} rows, more than "
            f"{CONFORMAL_SCAN_MAX_ROWS}: narrow --a-from/--a-to or raise --step")
    rows = []
    for k in range(count + 1):
        a = cfg.a_from + k * cfg.a_step
        verdict = cf.classify(a)
        rows.append([
            a,
            verdict,
            "1" if cf.nonneg_curvature_threshold(cf.ConformalSpec(a)) else "0",
            cf.discriminant_polynomial(a, 1.0, 0.0),
        ])
    _emit_csv(cfg, ["a", "classification", "curvature_nonneg", "axis_gap"], rows)
    return 0


def _cmd_lemma_tests(cfg: RunConfig) -> int:
    metric = build_metric(cfg)
    pot = build_potential(cfg, metric.dim)
    if cfg.point.strip():
        x = _parse_vector(cfg.point, metric.dim, "--point")
    elif cfg.metric == "sphere2":
        x = np.array([np.pi / 2, 0.0])  # the equator, where the symbols vanish
    else:
        x = np.zeros(metric.dim)
    if metric.dim != 2 and not (cfg.v.strip() and cfg.w.strip()):
        raise UsageError(
            f"lemma-tests in dimension {metric.dim} needs --v and --w "
            "(the defaults are 2-vectors)"
        )
    u = (_parse_vector(cfg.u, metric.dim, "--u")
         if cfg.u.strip() else np.eye(metric.dim)[0])
    v = (_parse_vector(cfg.v, metric.dim, "--v")
         if cfg.v.strip() else np.array([0.6, -0.3]))
    w = (_parse_vector(cfg.w, metric.dim, "--w")
         if cfg.w.strip() else np.array([0.2, 0.9]))
    t0 = time.perf_counter()
    checks = dyn.lemma_suite(metric, pot, x, u, v, w,
                             h=cfg.lemma_h, steps=cfg.steps)
    timings = {"suite_seconds": time.perf_counter() - t0}
    tol = 1e-3
    results = [
        {
            "identity": c.name,
            "tau": c.tau,
            "error": c.error,
            "verdict": "pass" if c.error <= tol else "violated",
        }
        for c in checks
    ]
    _emit_report(cfg, results, timings)
    return 0 if all(c.error <= tol for c in checks) else 1


def _cmd_calibrate(cfg: RunConfig, given: set) -> int:
    t0 = time.perf_counter()
    res = mtw.calibrate_normalization(h=cfg.fd_step, **_steps_if_given(cfg, given))
    timings = {"calibrate_seconds": time.perf_counter() - t0}
    _emit_report(cfg, [{
        "kappa": res.kappa,
        "fitted": res.fitted,
        "spread": res.spread,
        "cases": [
            {"label": c.label, "jacobi": c.jacobi_value, "steps": c.steps,
             "closed": c.closed_value}
            for c in res.cases
        ],
    }], timings)
    return 0


_COMMANDS = {
    "check": _cmd_check,
    "cost": _cmd_cost,
    "geodesic": _cmd_geodesic,
    "curvature": _cmd_curvature,
    "conformal-scan": _cmd_conformal_scan,
    "lemma-tests": _cmd_lemma_tests,
}


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key=value config file; flags override")
    p.add_argument("--metric", help="euclideanN | sphere2 | conformal2d | inline")
    p.add_argument("--param", action="append", default=None,
                   help="metric parameter name=value (repeatable)")
    p.add_argument("--g-upper", dest="g_upper",
                   help="inline metric upper-triangle entries, '|'-separated")
    p.add_argument("--potential", help="none | quartic | inline")
    p.add_argument("--potential-expr", dest="potential_expr",
                   help="potential expression for --potential inline")
    p.add_argument("--quartic", help="quartic matrix, rows ';'-separated")
    p.add_argument("--steps", type=int,
                   help="integrator steps (default 200; jacobi and calibrate: "
                        "rungs 40–640 by step doubling; direct-cost 100)")
    p.add_argument("--fd-step", dest="fd_step", type=float,
                   help="finite-difference step (default 1e-2; direct-cost 0.1)")
    p.add_argument("--quad-panels", dest="quad_panels", type=int,
                   help="quadrature subintervals (default 1024)")
    p.add_argument("--seed", type=int, help="sampling seed (default 42)")
    p.add_argument("--output", help="JSON report path (default stdout)")
    p.add_argument("--csv", help="CSV output path (default stdout)")
    p.add_argument("--timings", action="store_const", const=True,
                   help="include wall-clock timings in the report")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="mtw",
        description="Necessary-condition checks for smooth optimal transport "
                    "maps of mechanical costs.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="one cross-curvature evaluation")
    _add_common(p)
    p.add_argument("--point", help="base point, comma-separated")
    p.add_argument("--u", help="first vector")
    p.add_argument("--v", help="middle vector ('0' for zero)")
    p.add_argument("--w", help="second vector")
    p.add_argument("--method", help="jacobi | direct-cost | closed-form-0|1|2")

    p = sub.add_parser("check", help="region necessary-condition check")
    _add_common(p)
    p.add_argument("--region", help="lo,hi (all axes) or per-axis bounds")
    p.add_argument("--points-per-axis", dest="points_per_axis", type=int)
    p.add_argument("--samples", type=int,
                   help="direction samples (default 16; at least 1, and raised "
                        "to the dimension if below it)")

    p = sub.add_parser("cost", help="two-point action cost")
    _add_common(p)
    p.add_argument("--point", help="start point")
    p.add_argument("--target", help="end point")

    p = sub.add_parser("geodesic", help="least-action curve to CSV")
    _add_common(p)
    p.add_argument("--point", help="start point")
    p.add_argument("--velocity", help="initial velocity")

    p = sub.add_parser("curvature", help="sectional-curvature grid to CSV")
    _add_common(p)
    p.add_argument("--region", help="lo,hi (all axes) or per-axis bounds")
    p.add_argument("--points-per-axis", dest="points_per_axis", type=int)
    p.add_argument("--samples", type=int,
                   help="direction samples (default 16; at least 1, and raised "
                        "to the dimension if below it)")

    p = sub.add_parser("conformal-scan", help="classification sweep to CSV")
    _add_common(p)
    p.add_argument("--a-from", dest="a_from", type=float)
    p.add_argument("--a-to", dest="a_to", type=float)
    p.add_argument("--step", "--a-step", dest="a_step", type=float,
                   help="scan step (default 0.05)")

    p = sub.add_parser("lemma-tests", help="variation-identity suite")
    _add_common(p)
    p.add_argument("--point", help="base point (default per metric)")
    p.add_argument("--u", help="reference vector")
    p.add_argument("--v", help="t-direction vector")
    p.add_argument("--w", help="s-direction vector")
    p.add_argument("--lemma-h", dest="lemma_h", type=float,
                   help="family step (default 1e-2)")

    p = sub.add_parser("calibrate", help="fit the normalization constant")
    _add_common(p)

    return top


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built on first use: building it costs
    more than a short command, and parsing leaves it unchanged."""
    return build_parser()


def make_config(args: argparse.Namespace, given: set | None = None) -> RunConfig:
    """The run configuration from the config file and the flags; flags win.

    The names of the options the file or the flags set are added to
    ``given``.
    """
    file_values = {}
    if getattr(args, "config", None):
        try:
            with open(args.config) as f:
                file_values = _parse_config_text(f.read())
        except OSError as e:
            raise UsageError(f"cannot read config file: {e}") from None
        file_values.pop("command", None)

    cfg = _config_from_mapping(
        {**file_values, "command": args.command}
    )
    if given is not None:
        given.update(key.replace("-", "_") for key in file_values)
    for f in dataclasses.fields(RunConfig):
        if f.name == "command":
            continue
        if not hasattr(args, f.name):
            continue
        val = getattr(args, f.name)
        if val is None:
            continue
        if f.name == "param" and isinstance(val, list):
            val = ",".join(val)
        setattr(cfg, f.name, _coerce(f.name, val))
        if given is not None:
            given.add(f.name)
    return cfg


# Flags whose values can legitimately begin with a minus sign; their
# values are folded into --flag=value form so argparse does not mistake
# "-0.2,0.2" for an option.
_NEGATIVE_VALUE_FLAGS = {
    "--region", "--point", "--u", "--v", "--w", "--target", "--velocity",
    "--a-from", "--a-to", "--step", "--a-step", "--fd-step", "--lemma-h",
    "--quartic", "--param", "--g-upper",
}


def _merge_negative_values(argv: list[str]) -> list[str]:
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if tok in _NEGATIVE_VALUE_FLAGS and nxt and re.match(r"-[\d.]", nxt):
            out.append(f"{tok}={nxt}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parser().parse_args(_merge_negative_values(list(argv)))
    try:
        given: set = set()
        cfg = make_config(args, given)
        if cfg.command == "eval":
            return _cmd_eval(cfg, given)
        if cfg.command == "calibrate":
            return _cmd_calibrate(cfg, given)
        return _COMMANDS[cfg.command](cfg)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    except MtwError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
