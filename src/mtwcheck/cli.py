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

Each subcommand accepts only the options it reads, and ``eval`` only
the route options (``steps``, ``fd_step``, ``quad_panels``) of its
method.  A flat ``key = value`` config file (``--config run.cfg``) can
supply any of them, and explicit flags override file values.  A JSON report's
``config`` block states them, with ``null`` where the route chose the
value.  Reports are deterministic for a fixed config; wall-clock
timings are only included with ``--timings`` so that identical configs
produce byte-identical JSON.
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
    """The option values of a run, in serialized (string) form.

    Vector/matrix-valued options stay in their textual form, as a flag
    or a config file gives them.  ``steps`` and ``fd_step`` are None
    where the route chooses them.  ``read`` names the options the
    subcommand declares: the keys of its report's config block.
    """

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
    steps: int | None = dyn.DEFAULT_STEPS
    fd_step: float | None = mtw.DEFAULT_FD_STEP
    quad_panels: int = 1024
    seed: int = 42
    a_from: float = -4.0
    a_to: float = -2.5
    a_step: float = 0.05
    lemma_h: float = 1e-2
    output: str = ""
    csv: str = ""
    timings: bool = False
    read: tuple[str, ...] = ()


# Options whose value the route chooses when it is not given: None in the
# RunConfig, null in the report's config block.
_ROUTE_CHOOSES = {"eval": ("steps", "fd_step"), "calibrate": ("steps",)}

# The route options of eval that each method reads; an eval whose method
# does not read one refuses it and leaves it out of the config block.
_METHOD_READS = {
    "jacobi": ("steps", "fd_step"),
    "direct-cost": ("steps", "fd_step"),
    "closed-form-0": ("quad_panels",),
    "closed-form-1": (),
    "closed-form-2": (),
}

_FIELD_TYPES = {f.name: type(f.default) for f in dataclasses.fields(RunConfig)}


def _coerce(name: str, value):
    """``value`` as the type of the RunConfig field ``name``; a value that
    does not convert raises UsageError naming the key and the value."""
    kind = _FIELD_TYPES[name]
    if kind is bool and isinstance(value, bool):
        return value
    try:
        if kind is bool:
            return {"1": True, "true": True, "yes": True, "on": True, "0": False,
                    "false": False, "no": False, "off": False}[str(value).strip().lower()]
        if kind is int:
            return int(value)
        if kind is float:
            out = float(value)
            if not math.isfinite(out):
                raise UsageError(f"bad value {value!r} for {name.replace('_', '-')}: "
                                 "expected a finite number")
            return out
    except (KeyError, ValueError):
        want = {bool: "true or false", int: "an integer", float: "a number"}[kind]
        raise UsageError(f"bad value {value!r} for {name.replace('_', '-')}: "
                         f"expected {want}") from None
    return str(value)


def _read_config(path: str) -> dict:
    """The ``key = value`` lines of the config file ``path``."""
    try:
        with open(path) as f:
            text = f.read()
    except OSError as e:
        raise UsageError(f"cannot read config file: {e}") from None
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
        "config": {name: getattr(cfg, name) for name in cfg.read},
        "results": _jsonify(results),
    }
    if cfg.timings:
        doc["timings"] = timings
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


def _given(**kwargs) -> dict:
    """The keyword arguments that are not None: the route chooses the others."""
    return {k: v for k, v in kwargs.items() if v is not None}


def _cmd_eval(cfg: RunConfig) -> int:
    metric = build_metric(cfg)
    pot = build_potential(cfg, metric.dim)
    x = _parse_vector(cfg.point, metric.dim, "--point")
    u = _parse_vector(cfg.u, metric.dim, "--u")
    v = _parse_vector(cfg.v or "0", metric.dim, "--v")
    w = _parse_vector(cfg.w, metric.dim, "--w")
    t0 = time.perf_counter()
    method = cfg.method
    if method == "jacobi":
        ev = mtw.mtw_jacobi(metric, pot, x, u, v, w,
                            **_given(h=cfg.fd_step, steps=cfg.steps))
    elif method == "direct-cost":
        ev = mtw.mtw_direct_cost(metric, pot, x, u, v, w, **_given(
            h_s=cfg.fd_step, h_t=cfg.fd_step, steps=cfg.steps))
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
    if cfg.a_to < cfg.a_from:
        raise UsageError(f"--a-to {cfg.a_to} is below --a-from {cfg.a_from}")
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


def _cmd_calibrate(cfg: RunConfig) -> int:
    t0 = time.perf_counter()
    res = mtw.calibrate_normalization(h=cfg.fd_step, steps=cfg.steps)
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
    "eval": _cmd_eval,
    "check": _cmd_check,
    "cost": _cmd_cost,
    "geodesic": _cmd_geodesic,
    "curvature": _cmd_curvature,
    "conformal-scan": _cmd_conformal_scan,
    "lemma-tests": _cmd_lemma_tests,
    "calibrate": _cmd_calibrate,
}


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_metric(p: argparse.ArgumentParser) -> None:
    p.add_argument("--metric", help="euclideanN | sphere2 | conformal2d | inline")
    p.add_argument("--param", action="append",
                   help="metric parameter name=value (repeatable)")
    p.add_argument("--g-upper",
                   help="inline metric upper-triangle entries, '|'-separated")


def _add_potential(p: argparse.ArgumentParser) -> None:
    p.add_argument("--potential", help="none | quartic | inline")
    p.add_argument("--potential-expr",
                   help="potential expression for --potential inline")
    p.add_argument("--quartic", help="quartic matrix, rows ';'-separated")


def _add_sampling(p: argparse.ArgumentParser) -> None:
    p.add_argument("--region", help="lo,hi (all axes) or per-axis bounds")
    p.add_argument("--points-per-axis", type=int,
                   help="grid points per axis (default 8)")
    p.add_argument("--samples", type=int,
                   help="direction samples (default 16; at least 1, and raised "
                        "to the dimension if below it)")
    p.add_argument("--seed", type=int, help="sampling seed (default 42)")


def _add_report(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output", help="JSON report path (default stdout)")
    p.add_argument("--timings", action="store_const", const=True,
                   help="include wall-clock timings in the report")


def _add_csv(p: argparse.ArgumentParser) -> None:
    p.add_argument("--csv", help="CSV output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    """The ``mtw`` parser.  Each subparser declares the options its command
    reads: they are its flags, its config-file keys and the keys of its
    report's config block."""
    top = argparse.ArgumentParser(
        prog="mtw",
        description="Necessary-condition checks for smooth optimal transport "
                    "maps of mechanical costs.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def command(name, help, *groups):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="flat key = value config file; flags override")
        for add in groups:
            add(p)
        return p

    p = command("eval", "one cross-curvature evaluation",
                _add_metric, _add_potential, _add_report)
    p.add_argument("--point", help="base point, comma-separated")
    p.add_argument("--u", help="first vector")
    p.add_argument("--v", help="middle vector ('0' for zero)")
    p.add_argument("--w", help="second vector")
    p.add_argument("--method", help="jacobi | direct-cost | closed-form-0|1|2")
    p.add_argument("--steps", type=int,
                   help="RK4 steps (default: jacobi climbs rungs 40–640 by step "
                        "doubling; direct-cost 100)")
    p.add_argument("--fd-step", type=float,
                   help="finite-difference step (default: jacobi 1e-2; "
                        "direct-cost 0.1)")
    p.add_argument("--quad-panels", type=int,
                   help="closed-form-0 quadrature subintervals (default 1024)")

    command("check", "region necessary-condition check",
            _add_metric, _add_potential, _add_sampling, _add_report)

    p = command("cost", "two-point action cost",
                _add_metric, _add_potential, _add_report)
    p.add_argument("--point", help="start point")
    p.add_argument("--target", help="end point")
    p.add_argument("--steps", type=int, help="RK4 steps (default 200)")

    p = command("geodesic", "least-action curve to CSV",
                _add_metric, _add_potential, _add_csv)
    p.add_argument("--point", help="start point")
    p.add_argument("--velocity", help="initial velocity")
    p.add_argument("--steps", type=int, help="RK4 steps (default 200)")

    command("curvature", "sectional-curvature grid to CSV",
            _add_metric, _add_sampling, _add_csv)

    p = command("conformal-scan", "classification sweep to CSV", _add_csv)
    p.add_argument("--a-from", type=float, help="first a (default -4)")
    p.add_argument("--a-to", type=float, help="last a, at least --a-from (default -2.5)")
    p.add_argument("--step", "--a-step", dest="a_step", type=float,
                   help="scan step (default 0.05)")

    p = command("lemma-tests", "variation-identity suite",
                _add_metric, _add_potential, _add_report)
    p.add_argument("--point", help="base point (default per metric)")
    p.add_argument("--u", help="reference vector")
    p.add_argument("--v", help="t-direction vector")
    p.add_argument("--w", help="s-direction vector")
    p.add_argument("--lemma-h", type=float, help="family step (default 1e-2)")
    p.add_argument("--steps", type=int, help="RK4 steps (default 200)")

    p = command("calibrate", "fit the normalization constant", _add_report)
    p.add_argument("--steps", type=int,
                   help="RK4 steps (default: each case climbs rungs 40–640 by "
                        "step doubling)")
    p.add_argument("--fd-step", type=float,
                   help="finite-difference step (default 1e-2)")

    return top


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built on first use: building it costs
    more than a short command, and parsing leaves it unchanged."""
    return build_parser()


def make_config(args: argparse.Namespace) -> RunConfig:
    """The run configuration of the parsed ``args``: the values of the
    options its subcommand declares, from the flags, else from the config
    file, else the defaults.  A file key that the subcommand does not
    declare raises UsageError, and so does a route option that eval's
    method does not read (:data:`_METHOD_READS`), given either way."""
    read = tuple(name for name in vars(args) if name not in ("command", "config"))
    values = dict.fromkeys(_ROUTE_CHOOSES.get(args.command, ()))
    given = {}  # each option given, as it was given
    for key, val in (_read_config(args.config) if args.config else {}).items():
        name = key.replace("-", "_")
        if name not in read:
            raise UsageError(f"{args.command} does not read config key {key!r}")
        values[name], given[name] = _coerce(name, val), f"config key {key!r}"
    for name in read:
        val = getattr(args, name)
        if val is not None:
            values[name] = _coerce(name, ",".join(val) if name == "param" else val)
            given[name] = "--" + name.replace("_", "-")
    method = values.get("method", RunConfig.method)
    if args.command == "eval" and method in _METHOD_READS:
        unread = set().union(*_METHOD_READS.values()) - set(_METHOD_READS[method])
        refused = [given[name] for name in read if name in unread and name in given]
        if refused:
            raise UsageError(f"eval --method {method} does not read {', '.join(refused)}")
        read = tuple(name for name in read if name not in unread)
    return RunConfig(**values, read=read)


def _merge_negative_values(argv: list[str]) -> list[str]:
    """``argv`` with the value after each long option folded into
    ``--option=value`` where it begins with a minus sign and a digit or a
    point, so that argparse does not mistake "-0.2,0.2" for an option."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if (tok.startswith("--") and "=" not in tok and nxt
                and re.match(r"-[\d.]", nxt)):
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
        return _COMMANDS[args.command](make_config(args))
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
