"""Command-line interface: parsing, reports, exit codes, determinism."""

import importlib.util
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import mtwcheck
from mtwcheck.cli import (
    RunConfig,
    UsageError,
    build_metric,
    build_potential,
    main,
    make_config,
    build_parser,
    _merge_negative_values,
    _parse_region,
    _parse_vector,
)
from mtwcheck import conformal as cf
from mtwcheck.geometry import (
    _TAYLOR_PLAN_CACHE_SIZE,
    GeometryBatch,
    euclidean_metric,
    quartic_potential,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------


def test_config_round_trip(capsys, tmp_path):
    # a report's config block, written as a config file without its null
    # keys, reproduces the report byte for byte
    cfg_file = tmp_path / "run.cfg"
    for argv in [
        ("check", "--metric", "conformal2d", "--param", "a=-3.5", "--region",
         "-0.2,0.2", "--samples", "12", "--points-per-axis", "5"),
        ("eval", "--metric", "sphere2", "--point", "1.2,0.3", "--u", "1,0",
         "--v", "0.2,0.1", "--w", "0,1", "--method", "jacobi"),
    ]:
        first = run_cli(capsys, *argv)
        block = json.loads(first[1])["config"]
        cfg_file.write_text("".join(
            f"{key} = {str(val).lower() if isinstance(val, bool) else val}\n"
            for key, val in block.items() if val is not None))
        assert run_cli(capsys, argv[0], "--config", str(cfg_file)) == first


def test_config_file_defaults_and_flag_override(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "# comment\n"
        "metric = conformal2d\n"
        "param = a=-3.5\n"
        "region = -0.2,0.2\n"
        "samples = 12\n"
    )
    parser = build_parser()
    args = parser.parse_args(_merge_negative_values(
        ["check", "--config", str(cfg_file), "--samples", "6"]
    ))
    cfg = make_config(args)
    assert cfg.metric == "conformal2d"
    assert cfg.param == "a=-3.5"
    assert cfg.region == "-0.2,0.2"
    assert cfg.samples == 6  # flag wins over file


def test_unknown_config_key_rejected(capsys, tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("nonsense = 1\n")
    code, out, err = run_cli(capsys, "check", "--config", str(cfg_file))
    assert (code, out, err) == (2, "", "error: check does not read config key 'nonsense'\n")


# a command that reads each key below
_READER = {"steps": "cost", "points-per-axis": "check", "fd-step": "eval",
           "a-to": "conformal-scan", "timings": "check"}


@pytest.mark.parametrize("line, message", [
    ("steps = 1.5", "bad value '1.5' for steps: expected an integer"),
    ("points-per-axis = many",
     "bad value 'many' for points-per-axis: expected an integer"),
    ("fd-step = small", "bad value 'small' for fd-step: expected a number"),
    ("a-to = inf", "bad value 'inf' for a-to: expected a finite number"),
    ("timings = maybe", "bad value 'maybe' for timings: expected true or false"),
])
def test_config_value_of_wrong_type_exits_two(capsys, tmp_path, line, message):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(line + "\n")
    command = _READER[line.split(" = ")[0]]
    code, out, err = run_cli(capsys, command, "--config", str(cfg_file))
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("word, value", [
    ("true", True), ("On", True), ("1", True), ("yes", True),
    ("false", False), ("OFF", False), ("0", False), ("no", False),
])
def test_config_bool_words(capsys, tmp_path, word, value):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"timings = {word}\n")
    code, out, _ = run_cli(capsys, "check", "--config", str(cfg_file), "--metric",
                           "euclidean2", "--region", "-1,1", "--points-per-axis", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["timings"] is value
    assert ("timings" in doc) is value


@pytest.mark.parametrize("flag", ["--output", "--csv"])
def test_unwritable_output_exits_two(capsys, tmp_path, flag):
    path = tmp_path / "missing" / "out.txt"
    command = "check" if flag == "--output" else "curvature"
    code, out, err = run_cli(capsys, command, "--metric", "euclidean2",
                             "--region", "-1,1", "--points-per-axis", "2",
                             flag, str(path))
    assert (code, out) == (2, "")
    assert err == f"error: cannot write {str(path)!r}: No such file or directory\n"
    assert not path.parent.exists()


def test_vector_and_region_parsing():
    assert np.allclose(_parse_vector("0", 3, "v"), np.zeros(3))
    assert np.allclose(_parse_vector("1.5,-2", 2, "v"), [1.5, -2.0])
    with pytest.raises(UsageError):
        _parse_vector("1,2,3", 2, "v")
    assert _parse_region("-1,2", 2) == ((-1.0, 2.0), (-1.0, 2.0))
    assert _parse_region("0,1,2,3", 2) == ((0.0, 1.0), (2.0, 3.0))
    with pytest.raises(UsageError):
        _parse_region("5,1", 2)


def test_metric_registry():
    assert build_metric(RunConfig(metric="euclidean3")).dim == 3
    assert build_metric(RunConfig(metric="sphere2")).dim == 2
    con = build_metric(RunConfig(metric="conformal2d",
                                 param="a=-3,a4=0.5"))
    assert con.dim == 2
    inline = build_metric(RunConfig(metric="inline",
                                    g_upper="1 + x^2 | 0 | 1"))
    assert inline.dim == 2
    assert inline.matrix([2.0, 0.0])[0, 0] == 5.0
    with pytest.raises(UsageError):
        build_metric(RunConfig(metric="nosuch"))
    with pytest.raises(UsageError):
        build_metric(RunConfig(metric="conformal2d"))


def test_potential_registry():
    cfg = RunConfig(potential="quartic", quartic="1,0;0,1")
    V = build_potential(cfg, 2)
    assert V is not None
    assert build_potential(RunConfig(), 2) is None
    inline = build_potential(
        RunConfig(potential="inline", potential_expr="x^2*y"), 2
    )
    assert inline is not None
    with pytest.raises(UsageError):
        build_potential(RunConfig(potential="quartic"), 2)


def test_negative_value_merging():
    argv = ["check", "--region", "-0.2,0.2", "--samples", "16"]
    merged = _merge_negative_values(argv)
    assert merged == ["check", "--region=-0.2,0.2", "--samples", "16"]


# ---------------------------------------------------------------------------
# Subcommands and exit codes
# ---------------------------------------------------------------------------


def test_check_violation_exit_code_and_report(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--metric", "conformal2d", "--param", "a=-3.5",
        "--region", "-0.2,0.2", "--samples", "8", "--points-per-axis", "4",
    )
    assert code == 1
    doc = json.loads(out)
    by_name = {r["condition"]: r for r in doc["results"]}
    assert by_name["discriminant-2d"]["verdict"] == "violated"
    witness = by_name["discriminant-2d"]["worst_witness"]
    assert np.allclose(witness["point"], [0.0, 0.0], atol=1e-12)
    assert witness["value"] == pytest.approx(40.0, rel=1e-6)
    assert "timings" not in doc


@pytest.mark.parametrize("a", ["-3.5", "-3.2"])
def test_check_that_evaluates_a_condition_nowhere_is_vacuous(capsys, a):
    # the box misses the zero-curvature locus at the origin, so the three
    # locus conditions are evaluated at no sample; both metrics fail the
    # second-order condition, which no sample can show: their verdicts
    # read "vacuous", not "pass", and the exit code is 4, not 0
    assert cf.classify(float(a)) == "fails-second-order"
    code, out, _ = run_cli(
        capsys, "check", "--metric", "conformal2d", "--param", f"a={a}",
        "--region=-0.17,0.23", "--points-per-axis", "8", "--samples", "16",
    )
    assert code == 4
    rows = {r["condition"]: r for r in json.loads(out)["results"]}
    vacuous = ["first-order-vanishing", "g-nonneg", "discriminant-2d"]
    for name, row in rows.items():
        assert (row["evaluated"] == 0) == (name in vacuous)
        assert row["verdict"] == ("vacuous" if name in vacuous else "pass")
        assert (row["worst_witness"] is None) == (name in vacuous)


def test_check_flat_passes(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--metric", "euclidean2", "--region", "-1,1",
        "--samples", "4", "--points-per-axis", "3",
    )
    assert code == 0
    doc = json.loads(out)
    assert all(r["verdict"] == "pass" for r in doc["results"])


def test_eval_sphere_json_fields(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--metric", "sphere2",
        "--point", "1.5707963267948966,0.5", "--u", "1,0", "--v", "0",
        "--w", "0,1", "--method", "jacobi",
    )
    assert code == 0
    doc = json.loads(out)
    result = doc["results"][0]
    assert result["method"] == "jacobi"
    assert result["value"] == pytest.approx(1.0, abs=1e-4)
    assert result["h_s"] == 0.01
    # the step count the jacobi ladder accepted; the config states that
    # the route chose it
    assert result["steps"] == 40
    assert (doc["config"]["steps"], doc["config"]["fd_step"]) == (None, None)


def test_eval_direct_cost_honours_steps_and_fd_step(capsys, tmp_path):
    from mtwcheck import mtw

    base = ["eval", "--metric", "euclidean2", "--potential", "quartic",
            "--quartic", "1,0.2;0.2,0.8", "--point", "0,0", "--u", "1,0",
            "--v", "0", "--w", "0,1", "--method", "direct-cost"]

    def result(*extra):
        code, out, _ = run_cli(capsys, *base, *extra)
        assert code == 0
        return json.loads(out)["results"][0]

    # without the options the route keeps its own defaults, not the CLI's
    r = result()
    assert (r["steps"], r["h_s"], r["h_t"]) == (
        mtw.DIRECT_COST_STEPS, mtw.DIRECT_COST_STEP, mtw.DIRECT_COST_STEP)
    r = result("--steps", "60", "--fd-step", "0.05")
    assert (r["steps"], r["h_s"], r["h_t"]) == (60, 0.05, 0.05)
    want = mtw.mtw_direct_cost(
        euclidean_metric(2), quartic_potential(np.array([[1.0, 0.2], [0.2, 0.8]])),
        [0, 0], [1, 0], [0, 0], [0, 1], h_s=0.05, h_t=0.05, steps=60)
    assert r["value"] == want.value
    # a value equal to the CLI default still counts when given, also from
    # a config file
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("fd-step = 0.01\n")
    r = result("--config", str(cfg_file))
    assert (r["steps"], r["h_s"]) == (mtw.DIRECT_COST_STEPS, 0.01)


def test_eval_closed_form_requires_zero_v(capsys):
    code, _, err = run_cli(
        capsys, "eval", "--metric", "sphere2", "--point", "1.5,0.2",
        "--u", "1,0", "--v", "0.1,0", "--w", "0,1", "--method", "closed-form-0",
    )
    assert code == 2
    assert "closed-form-0" in err


def test_usage_errors_exit_two(capsys):
    code, _, _ = run_cli(capsys, "check", "--metric", "nosuch",
                         "--region", "0,1")
    assert code == 2
    code, _, _ = run_cli(capsys, "eval", "--metric", "sphere2",
                         "--point", "1,0", "--u", "1,0", "--v", "0",
                         "--w", "0,1", "--method", "bogus")
    assert code == 2


@pytest.mark.parametrize("flag, value, name", [
    ("--points-per-axis", "-2", "points_per_axis"),
    ("--points-per-axis", "0", "points_per_axis"),
    ("--samples", "-3", "directions"),
])
@pytest.mark.parametrize("command", ["check", "curvature"])
def test_empty_sampling_plan_exits_two(capsys, command, flag, value, name):
    code, out, err = run_cli(capsys, command, "--metric", "euclidean2",
                             "--region", "-1,1", flag, value)
    assert code == 2
    assert out == ""
    assert err == f"error: {name} must be at least 1, got {value}\n"


SPHERE_EVAL = ("eval", "--metric", "sphere2", "--point", "1.5,0", "--u", "1,0",
               "--v", "0", "--w", "0,1")


@pytest.mark.parametrize("argv, message", [
    # the jacobi route's pair (steps // 2, steps) needs 2 steps or more
    (SPHERE_EVAL + ("--steps", "0"), "steps must be at least 2, got 0"),
    (("cost", "--metric", "sphere2", "--point", "1.5,0", "--target", "1.5,0.3",
      "--steps", "0"), "steps must be at least 1, got 0"),
    (("geodesic", "--metric", "sphere2", "--point", "1.5,0", "--velocity", "0,1",
      "--steps", "0"), "steps must be at least 1, got 0"),
    (("calibrate", "--steps", "0"), "steps must be at least 2, got 0"),
    (SPHERE_EVAL + ("--steps", "-3"), "steps must be at least 2, got -3"),
    (SPHERE_EVAL + ("--fd-step", "0"),
     "the finite-difference step h must be positive and finite, got 0.0"),
    (SPHERE_EVAL + ("--method", "closed-form-0", "--quad-panels", "3"),
     "quad_panels must be an even integer of at least 2, got 3"),
    (("lemma-tests", "--metric", "sphere2", "--steps", "7"),
     "tau=0.2 is not on the integration grid with 7 steps"),
    (("lemma-tests", "--metric", "sphere2", "--lemma-h", "0"),
     "the family step h must be positive and finite, got 0.0"),
], ids=["eval-steps-0", "cost-steps-0", "geodesic-steps-0", "calibrate-steps-0",
        "eval-steps-negative", "fd-step-0", "quad-panels-odd", "lemma-steps-off-grid",
        "lemma-h-0"])
def test_bad_discretization_exits_two(capsys, argv, message):
    # exit 1 reads as "violations found" and 3 as a numerical verdict, so
    # a step or size out of range is a configuration error
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (("check", "--metric", "conformal2d", "--param", "a=-3.5",
      "--region", "-0.5,0.5", "--seed", "-1"), "seed must be non-negative, got -1"),
    (("eval", "--metric", "euclidean0", "--point", "0", "--u", "0", "--w", "0"),
     "dimension must be at least 1, got 0"),
    (("check", "--metric", "euclidean1", "--region", "-1,1"),
     "sampled 2-planes need dimension at least 2, got 1"),
    (("curvature", "--metric", "euclidean1", "--region", "-1,1"),
     "sampled 2-planes need dimension at least 2, got 1"),
], ids=["negative-seed", "dimension-0", "check-1d", "curvature-1d"])
def test_bad_sampling_or_dimension_exits_two(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv, unread, count", [
    (SPHERE_EVAL + ("--method", "closed-form-1"), "seed", 17),
    (("check", "--metric", "euclidean2", "--region", "-1,1", "--points-per-axis", "2"),
     "steps", 13),
    (("cost", "--metric", "euclidean2", "--point", "0,0", "--target", "0.6,0.8"),
     "seed", 12),
    (("geodesic", "--metric", "euclidean2", "--point", "0,0", "--velocity", "1,2"),
     "output", 11),
    (("curvature", "--metric", "euclidean2", "--region", "-1,1",
      "--points-per-axis", "2"), "potential", 9),
    (("conformal-scan",), "seed", 5),
    (("lemma-tests", "--metric", "euclidean2", "--steps", "100"), "seed", 15),
    (("calibrate",), "metric", 5),
], ids=lambda x: x[0] if isinstance(x, tuple) else None)
def test_each_command_reads_only_its_options(capsys, tmp_path, argv, unread, count):
    command = argv[0]
    declared = set(vars(build_parser().parse_args([command]))) - {"command"}
    assert len(declared) == count
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    if out.startswith("{"):
        # closed-form-1 reads none of eval's route options
        route = {"steps", "fd_step", "quad_panels"} if command == "eval" else set()
        assert set(json.loads(out)["config"]) == declared - {"config"} - route
    # an option the command does not read is refused as a flag ...
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--" + unread.replace("_", "-"), "1"])
    assert exc.value.code == 2
    capsys.readouterr()
    # ... and as a config-file key
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"{unread} = 1\n")
    assert run_cli(capsys, *argv, "--config", str(cfg_file)) == (
        2, "", f"error: {command} does not read config key '{unread}'\n")


@pytest.mark.parametrize("method, reads", [
    ("jacobi", ["steps", "fd_step"]),
    ("direct-cost", ["steps", "fd_step"]),
    ("closed-form-0", ["quad_panels"]),
    ("closed-form-1", []),
    ("closed-form-2", []),
])
def test_eval_reads_only_its_methods_route_options(capsys, tmp_path, method, reads):
    # steps and fd_step are read by jacobi and direct-cost alone, and
    # quad_panels by closed-form-0 alone: the block states the method's
    # own, and another one exits 2 naming it, as a flag or a config key
    values = {"steps": 6, "fd_step": 0.02, "quad_panels": 8}
    argv = SPHERE_EVAL + ("--method", method)
    flags = [a for name in reads for a in ("--" + name.replace("_", "-"), str(values[name]))]
    code, out, _ = run_cli(capsys, *argv, *flags)
    assert code == 0
    block = json.loads(out)["config"]
    assert {name: block[name] for name in values if name in block} == {
        name: values[name] for name in reads}
    cfg_file = tmp_path / "run.cfg"
    for name in values.keys() - set(reads):
        key = name.replace("_", "-")
        assert run_cli(capsys, *argv, "--" + key, str(values[name])) == (
            2, "", f"error: eval --method {method} does not read --{key}\n")
        cfg_file.write_text(f"{key} = {values[name]}\n")
        assert run_cli(capsys, *argv, "--config", str(cfg_file)) == (
            2, "", f"error: eval --method {method} does not read config key '{key}'\n")
    if not reads:
        assert run_cli(capsys, *argv, "--steps", "5", "--fd-step", "0.5",
                       "--quad-panels", "7") == (
            2, "", f"error: eval --method {method} does not read --steps, --fd-step, "
                   f"--quad-panels\n")


CHECK_2D = ("check", "--region", "-0.5,0.5", "--points-per-axis", "2")


@pytest.mark.parametrize("argv, message", [
    (CHECK_2D + ("--metric", "conformal2d", "--param", "a=inf"),
     "bad metric parameter 'a=inf': inf is not finite"),
    (CHECK_2D + ("--metric", "conformal2d", "--param", "a=nan"),
     "bad metric parameter 'a=nan': nan is not finite"),
    (CHECK_2D + ("--metric", "euclidean2", "--potential", "quartic",
                 "--quartic", "inf,0;0,1"),
     "bad matrix 'inf,0;0,1': inf is not finite"),
    (CHECK_2D + ("--metric", "euclidean2", "--potential", "quartic",
                 "--quartic", "nan,0;0,1"),
     "bad matrix 'nan,0;0,1': nan is not finite"),
    (CHECK_2D + ("--metric", "inline", "--g-upper", "1 + 1e400*x | 0 | 1"),
     "bad metric entry: constant inf is not finite (at offset 4)"),
    (CHECK_2D + ("--metric", "inline", "--g-upper", "1e308*10 | 0 | 1"),
     "bad metric entry: constant inf is not finite (at offset 5)"),
    (CHECK_2D + ("--metric", "euclidean2", "--potential", "inline",
                 "--potential-expr", "0 - 10^400*x^2"),
     "bad potential expression: constant overflows the float range (at offset 6)"),
    (("check", "--metric", "euclidean2", "--region", "0.5,inf"),
     "bad region '0.5,inf': inf is not finite"),
    (("eval", "--metric", "sphere2", "--point", "nan,0.3", "--u", "1,0",
      "--v", "0", "--w", "0,1"), "bad --point 'nan,0.3': nan is not finite"),
    (("conformal-scan", "--a-step", "nan"),
     "bad value nan for a-step: expected a finite number"),
], ids=["param-inf", "param-nan", "quartic-inf", "quartic-nan", "literal-inf",
        "folded-inf", "power-overflow", "region-inf", "point-nan", "scan-step-nan"])
def test_non_finite_input_exits_two(capsys, argv, message):
    # inf and nan are bad input: neither a traceback (exit 1) nor a
    # numerical verdict about the metric (exit 3)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_samples_below_dimension_are_raised_to_it(capsys):
    # the coordinate axes are always sampled: --samples 1 in 3-D is 3
    code, out, _ = run_cli(capsys, "check", "--metric", "euclidean3",
                           "--region", "-1,1", "--points-per-axis", "2",
                           "--samples", "1")
    assert code == 0
    assert json.loads(out)["results"][0]["evaluated"] == 9 * 3


POLE_EVAL = ("eval", "--metric", "sphere2", "--point", "0,0", "--u", "1,0",
             "--v", "0", "--w", "0,1", "--method")


@pytest.mark.parametrize("argv, message", [
    (("eval", "--metric", "sphere2", "--point", "1.5707963267948966,0.5",
      "--u", "1,0", "--v", "0,3.141592653589793", "--w", "0,1",
      "--method", "jacobi", "--steps", "2000"), "conjugate"),
    # the sphere chart's metric diag(1, sin^2 x) is singular at x = 0: at
    # the start of a curve, and at the last RK4 stage of 0.5 - t
    (("geodesic", "--metric", "sphere2", "--point", "0,0", "--velocity", "1,0"),
     "not positive definite at [0.0, 0.0]"),
    (("geodesic", "--metric", "sphere2", "--point", "0.5,0", "--velocity", "-1,0",
      "--steps", "2"), "not positive definite at [0.0, 0.0]"),
    (("cost", "--metric", "sphere2", "--point", "0,0", "--target", "0.5,0.5"),
     "not positive definite at [0.0, 0.0]"),
    (POLE_EVAL + ("jacobi",), "not positive definite at [0.0, 0.0]"),
    (POLE_EVAL + ("closed-form-0",), "not positive definite at [0.0, 0.0]"),
    # g = diag(1 + x, 1 + y): the curve crosses y = -1, where no stage's
    # metric is singular, and the first grid point past it names the error
    (("geodesic", "--metric", "inline", "--g-upper", "1 + x | 0 | 1 + y",
      "--point", "0,0", "--velocity", "0,-0.8"), "not positive definite at [0.0, -1.0"),
    # g = [[1, x], [x, 1]]: the curve's connection overflows past |x| = 1;
    # it stops at its first non-finite state, and the first failing point
    # before it names the error, a stage point of step 88 (the grid points
    # around it stay inside |x| < 1)
    (("geodesic", "--metric", "inline", "--g-upper", "1 | x | 1", "--point", "0,0",
      "--velocity=-1.8,-1.7"), "not positive definite at [-1.0044748872812392, -1.24795"),
    # the same metric is singular at x = 1, where stage 2 of the first of
    # two steps lands exactly (0 + 0.5 * 0.5 * 4): the stage's det is 0
    (("geodesic", "--metric", "inline", "--g-upper", "1 | x | 1", "--point", "0,0",
      "--velocity", "4,0", "--steps", "2"),
     "not positive definite at [1.0, 0.0]: min eigenvalue 0.000e+00"),
    # the same in 4-D, where the stage inverts g with np.linalg.inv
    (("geodesic", "--metric", "inline", "--g-upper", "1 | x | 0 | 0 | 1 | 0 | 0 | 1 | 0 | 1",
      "--point", "0,0,0,0", "--velocity", "4,0,0,0", "--steps", "2"),
     "not positive definite at [1.0, 0.0, 0.0, 0.0]: min eigenvalue 0.000e+00"),
], ids=["conjugate", "geodesic-start", "geodesic-stage", "cost", "jacobi",
        "closed-form-0", "geodesic-grid", "geodesic-overflow", "geodesic-singular-stage",
        "geodesic-singular-stage-4d"])
def test_numerical_failure_exit_three(capsys, argv, message):
    # a numerical failure reaches the terminal as its one error line,
    # with no NumPy RuntimeWarning before it
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, _, err = run_cli(capsys, *argv)
    assert code == 3
    assert err.startswith("numerical failure:")
    assert message in err.lower()


def test_indefinite_constant_metric_one_error_everywhere(capsys):
    metric = ("--metric", "inline", "--g-upper", "1|2|1")
    code, _, err = run_cli(capsys, "eval", *metric, "--point", "0,0",
                           "--u", "1,0", "--v", "0", "--w", "0,1")
    assert code == 3
    # the check's first sample point is the same (0, 0)
    assert run_cli(capsys, "check", *metric, "--region", "0,0.1",
                   "--points-per-axis", "2", "--samples", "4")[::2] == (code, err)
    assert err == ("numerical failure: metric not positive definite at "
                   "[0.0, 0.0]: min eigenvalue -1.000e+00\n")


@pytest.mark.parametrize("g_upper", ["1|2|1", "1|1|1"])
@pytest.mark.parametrize("argv", [
    ("check", "--region", "-0.1,0.1", "--points-per-axis", "2", "--samples", "4"),
    ("curvature", "--region", "-0.1,0.1", "--points-per-axis", "2"),
    ("geodesic", "--point", "0,0", "--velocity", "1,0"),
    ("cost", "--point", "0,0", "--target", "0.1,0"),
    ("lemma-tests",),
    *[("eval", "--point", "0,0", "--u", "1,0", "--v", "0", "--w", "0,1",
       "--method", m) for m in ("jacobi", "direct-cost", "closed-form-0",
                                "closed-form-1", "closed-form-2")],
], ids=lambda argv: "-".join(argv[:1] + argv[-1:]))
def test_degenerate_metric_exits_three_in_every_subcommand(capsys, argv, g_upper):
    code, _, err = run_cli(capsys, *argv, "--metric", "inline", "--g-upper", g_upper)
    assert code == 3
    assert "metric not positive definite" in err


def test_cost_command(capsys):
    code, out, _ = run_cli(
        capsys, "cost", "--metric", "euclidean2", "--point", "0,0",
        "--target", "0.6,0.8",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"][0]["value"] == pytest.approx(0.5, abs=1e-10)


def test_geodesic_csv(capsys):
    code, out, _ = run_cli(
        capsys, "geodesic", "--metric", "euclidean2", "--point", "0,0",
        "--velocity", "1,2", "--steps", "4",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "# columns: tau,pos1,pos2,vel1,vel2"
    assert len(lines) == 6  # header + 5 grid rows
    last = [float(p) for p in lines[-1].split(",")]
    assert last == [1.0, 1.0, 2.0, 1.0, 2.0]


def test_conformal_scan_transitions(capsys):
    code, out, _ = run_cli(
        capsys, "conformal-scan", "--a-from", "-4", "--a-to", "-2.5",
        "--step", "0.05",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# columns: a,")
    rows = [line.split(",") for line in lines[1:]]
    verdicts = {round(float(r[0]), 4): r[1] for r in rows}
    assert verdicts[-3.7] == "passes-necessary"
    assert verdicts[-3.65] == "fails-second-order"
    assert verdicts[-3.0] == "fails-second-order"
    assert verdicts[-2.95] == "fails-zeroth"


def test_conformal_scan_row_bound(capsys, monkeypatch):
    # 2e7 rows are refused at once, before any row is classified
    from mtwcheck import cli

    def classify(a):
        raise AssertionError("a row was computed")

    monkeypatch.setattr(cf, "classify", classify)
    code, out, err = run_cli(capsys, "conformal-scan", "--a-from", "-4",
                             "--a-to", "1e6")
    assert (code, out) == (2, "")
    assert f"20000081 rows, more than {cli.CONFORMAL_SCAN_MAX_ROWS}" in err
    monkeypatch.undo()
    # the bound itself is allowed, one row more is not
    monkeypatch.setattr(cli, "CONFORMAL_SCAN_MAX_ROWS", 4)
    scan = ("conformal-scan", "--a-from", "-4", "--a-to", "-2.5", "--step")
    code, out, _ = run_cli(capsys, *scan, "0.5")
    assert code == 0 and len(out.strip().splitlines()) == 1 + 4
    code, out, err = run_cli(capsys, *scan, "0.375")
    assert (code, out) == (2, "")
    assert "5 rows, more than 4" in err


def test_conformal_scan_refuses_a_decreasing_range(capsys, monkeypatch):
    def classify(a):
        raise AssertionError("a row was computed")

    monkeypatch.setattr(cf, "classify", classify)
    code, out, err = run_cli(capsys, "conformal-scan", "--a-from", "-2", "--a-to", "-4")
    assert (code, out, err) == (2, "", "error: --a-to -4.0 is below --a-from -2.0\n")
    monkeypatch.undo()
    # a range of one point is one row
    code, out, _ = run_cli(capsys, "conformal-scan", "--a-from", "-3", "--a-to", "-3")
    assert code == 0 and len(out.strip().splitlines()) == 1 + 1


def test_lemma_tests_sphere(capsys):
    code, out, _ = run_cli(capsys, "lemma-tests", "--metric", "sphere2",
                           "--steps", "100")
    assert code == 0
    doc = json.loads(out)
    assert all(r["verdict"] == "pass" for r in doc["results"])


def test_lemma_tests_sphere_honours_point(capsys):
    # off the equator the sphere's Christoffel symbols do not vanish
    code, _, err = run_cli(capsys, "lemma-tests", "--metric", "sphere2",
                           "--point", "1,0", "--steps", "100")
    assert code == 2
    assert "vanishing Christoffel symbols" in err


def test_lemma_tests_outside_2d_need_v_and_w(capsys):
    code, _, err = run_cli(capsys, "lemma-tests", "--metric", "euclidean3")
    assert code == 2
    assert "--v" in err and "--w" in err
    code, out, _ = run_cli(capsys, "lemma-tests", "--metric", "euclidean3",
                           "--v", "0.6,-0.3,0.1", "--w", "0.2,0.9,-0.4",
                           "--steps", "100")
    assert code == 0
    assert all(r["verdict"] == "pass" for r in json.loads(out)["results"])


def test_calibrate_command(capsys):
    code, out, _ = run_cli(capsys, "calibrate")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"][0]["kappa"] == 1.0
    assert doc["results"][0]["spread"] <= 1e-3
    # each case's accepted step count; a given --steps pins its pair
    assert [c["steps"] for c in doc["results"][0]["cases"]] == [40] * 6
    code, out, _ = run_cli(capsys, "calibrate", "--steps", "41")
    assert code == 0
    assert [c["steps"] for c in json.loads(out)["results"][0]["cases"]] == [41] * 6


def test_eval_jacobi_passes_steps_only_when_given(capsys, tmp_path):
    def steps(*extra):
        code, out, _ = run_cli(capsys, *SPHERE_EVAL, "--method", "jacobi", *extra)
        assert code == 0
        return json.loads(out)["results"][0]["steps"]

    assert steps() == 40
    assert steps("--steps", "41") == 41
    # the CLI's default of 200, given in a config file, still pins a pair
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("steps = 200\n")
    assert steps("--config", str(cfg_file)) == 200


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------


def test_reports_byte_identical(tmp_path):
    out = tmp_path / "report.json"
    argv = ["check", "--metric", "conformal2d", "--param", "a=-3.5",
            "--region", "-0.2,0.2", "--samples", "8",
            "--points-per-axis", "4", "--output", str(out)]
    assert main(list(argv)) == 1
    first = out.read_bytes()
    out.unlink()
    assert main(list(argv)) == 1
    assert out.read_bytes() == first


def _benchmark_check_args() -> dict:
    # the argument lists of the benchmark's check workloads, read from
    # perfbench/workloads.py as the CI step reads them, not copied here
    path = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                        "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.CHECK_ARGS


CHECK_ARGS = _benchmark_check_args()
CHECK_CONFORMAL2D = CHECK_ARGS["check-conformal2d"]
CHECK_INLINE3D = CHECK_ARGS["check-inline3d"]


def test_repeated_checks_build_one_taylor_plan(capsys, plan_cache, plan_builds):
    # every call parses the metric afresh; its plans are keyed by content,
    # so only the first check builds any: the metric's jets of degree 3
    # (curvature order 1 at every point) and 4 (order 2 at the locus)
    first = run_cli(capsys, *CHECK_CONFORMAL2D)
    assert [space.degree for space in plan_builds] == [3, 4]
    reports = {run_cli(capsys, *CHECK_CONFORMAL2D) for _ in range(39)}
    assert reports == {first}
    assert len(plan_builds) == 2


@pytest.mark.parametrize("argv", [CHECK_CONFORMAL2D, CHECK_INLINE3D],
                         ids=["conformal2d", "inline3d"])
def test_reports_byte_identical_through_plan_cache_states(
        capsys, plan_cache, plan_builds, argv):
    cold = run_cli(capsys, *argv)
    built = len(plan_builds)
    assert built >= 1
    assert run_cli(capsys, *argv) == cold
    assert len(plan_builds) == built
    for k in range(2 * _TAYLOR_PLAN_CACHE_SIZE):
        GeometryBatch(cf.conformal_metric(cf.ConformalSpec(a=-1.0 - 0.01 * k)),
                      np.zeros((1, 2)), curvature_order=0)
    evicted = len(plan_builds)
    assert run_cli(capsys, *argv) == cold
    assert len(plan_builds) == evicted + built


def test_repeated_main_calls_reuse_one_parser(capsys):
    # main builds its parser once per process and parsing leaves it as
    # it was, so a command gives the same report before and after others
    from mtwcheck import cli

    check = ["check", "--metric", "conformal2d", "--param", "a=-3.5",
             "--region", "-0.2,0.2", "--samples", "4", "--points-per-axis", "3"]
    first = run_cli(capsys, *check)
    run_cli(capsys, "cost", "--metric", "euclidean2", "--point", "0,0",
            "--target", "0.6,0.8", "--steps", "20")
    run_cli(capsys, "check", "--metric", "nosuch", "--region", "0,1")
    with pytest.raises(SystemExit):
        main(["check", "--no-such-flag"])
    capsys.readouterr()
    assert run_cli(capsys, *check) == first
    assert cli._parser() is cli._parser()


def test_import_builds_no_parser():
    src = os.path.dirname(os.path.dirname(mtwcheck.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = "import mtwcheck.cli as c; print(c._parser.cache_info().currsize)"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "0"


def test_timings_flag_breaks_no_fields(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--metric", "euclidean2", "--region", "-1,1",
        "--samples", "4", "--points-per-axis", "3", "--timings",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["timings"] is not None
    assert doc["timings"]["check_seconds"] > 0


def test_import_leaves_scipy_unloaded():
    # the package depends on NumPy alone; a fresh interpreter shows it
    src = os.path.dirname(os.path.dirname(mtwcheck.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = "import sys, mtwcheck, mtwcheck.cli; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"
