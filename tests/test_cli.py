"""Command-line interface: parsing, reports, exit codes, determinism."""

import json
import os
import subprocess
import sys

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


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------


def test_config_round_trip():
    cfg = RunConfig(command="check", metric="conformal2d", param="a=-3.5",
                    region="-0.2,0.2", samples=12, points_per_axis=5,
                    fd_step=0.02, timings=True)
    again = RunConfig.from_config_text(cfg.to_config_text())
    assert again == cfg


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


def test_unknown_config_key_rejected():
    with pytest.raises(UsageError):
        RunConfig.from_config_text("command = check\nnonsense = 1\n")


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
    assert build_metric(RunConfig(command="eval", metric="euclidean3")).dim == 3
    assert build_metric(RunConfig(command="eval", metric="sphere2")).dim == 2
    con = build_metric(RunConfig(command="eval", metric="conformal2d",
                                 param="a=-3,a4=0.5"))
    assert con.dim == 2
    inline = build_metric(RunConfig(command="eval", metric="inline",
                                    g_upper="1 + x^2 | 0 | 1"))
    assert inline.dim == 2
    assert inline.matrix([2.0, 0.0])[0, 0] == 5.0
    with pytest.raises(UsageError):
        build_metric(RunConfig(command="eval", metric="nosuch"))
    with pytest.raises(UsageError):
        build_metric(RunConfig(command="eval", metric="conformal2d"))


def test_potential_registry():
    cfg = RunConfig(command="eval", potential="quartic", quartic="1,0;0,1")
    V = build_potential(cfg, 2)
    assert V is not None
    assert build_potential(RunConfig(command="eval"), 2) is None
    inline = build_potential(
        RunConfig(command="eval", potential="inline", potential_expr="x^2*y"), 2
    )
    assert inline is not None
    with pytest.raises(UsageError):
        build_potential(RunConfig(command="eval", potential="quartic"), 2)


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
    assert doc["timings"] is None


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
    assert result["steps"] == 200
    assert doc["config"]["seed"] == 42


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


def test_numerical_failure_exit_three(capsys):
    code, _, err = run_cli(
        capsys, "eval", "--metric", "sphere2",
        "--point", "1.5707963267948966,0.5", "--u", "1,0",
        "--v", "0,3.141592653589793", "--w", "0,1", "--method", "jacobi",
        "--steps", "2000",
    )
    assert code == 3
    assert "conjugate" in err.lower()


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
