"""The output checks accept real runs and reject tampered ones."""

import json
import shutil

import pytest

import ringform.cli as cli
from workloads import (
    SPECTRAL_REFERENCE,
    WORKLOADS,
    Workload,
    check_run,
    formation_reference,
)

TRIANGLE = {
    "mode": "pipeline", "seed": 5, "alpha": 0.3, "dt": 0.2, "max_steps": 250,
    "initial_box": 3.0, "stride": 20,
    "topology": {"n_total": 7, "vertex_set": [0, 2, 5]},
    "r_star": [[1.0, -2.0], [2.0, 2.0], [-3.0, 0.0]],
    "estimation": {"alpha": 0.1, "dt": 1.0, "strategy": "S2"},
}
SMALL_RING = {
    "mode": "form", "seed": 9, "alpha": 0.4, "dt": 0.1, "sigma": 1,
    "max_steps": 150, "stride": 40, "initial_box": 2.0,
    "topology": {"n_total": 30, "vertex_set": [0, 10, 20]},
    "r_star": [[3.0, 0.0], [-1.5, 2.5], [-1.5, -2.5]],
}
SMALL_SWEEP = {
    "mode": "sweep", "seed": 2, "dt": 0.01,
    "sweep": {"n_min": 5, "n_max": 6, "reps": 1, "scale_per_n": True},
}


def _execute(config, out):
    return cli.execute(cli.parse_config(dict(config, output_dir=str(out))))


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipeline") / "out"
    return out, _execute(TRIANGLE, out)


@pytest.fixture
def tampered(pipeline_run, tmp_path):
    out, code = pipeline_run
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    return copy, code


PIPELINE = Workload("pipeline", "pipeline", 0)


def test_pipeline_run_passes(pipeline_run):
    out, code = pipeline_run
    assert check_run(PIPELINE, TRIANGLE, out, code, None) == []


def test_wrong_estimate_is_rejected(tampered):
    out, code = tampered
    path = out / "estimate.csv"
    lines = path.read_text().splitlines()
    index = next(i for i, line in enumerate(lines) if line.endswith(",true"))
    fields = lines[index].split(",")
    fields[4] = str(int(fields[4]) + 1)
    lines[index] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    problems = check_run(PIPELINE, TRIANGLE, out, code, None)
    assert any("true size" in p for p in problems)


def test_truncated_errors_csv_is_rejected(tampered):
    out, code = tampered
    path = out / "errors.csv"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[: len(lines) // 2]) + "\n")
    problems = check_run(PIPELINE, TRIANGLE, out, code, None)
    assert any("errors.csv" in p for p in problems)


def test_unexpected_exit_code_is_rejected(pipeline_run):
    out, _ = pipeline_run
    problems = check_run(PIPELINE, TRIANGLE, out, 4, None)
    assert problems == ["exit code 4, expected 0"]


def test_form_run_matches_the_reference_simulation(tmp_path):
    form = Workload("form", "form", 4)
    code = _execute(SMALL_RING, tmp_path / "out")
    reference = formation_reference(SMALL_RING, SMALL_RING["seed"])
    assert check_run(form, SMALL_RING, tmp_path / "out", code, reference) == []
    problems = check_run(form, SMALL_RING, tmp_path / "out", code, reference * (1 + 1e-6))
    assert any("final max edge error" in p for p in problems)


def test_sweep_run_passes_and_a_wrong_cell_is_rejected(tmp_path):
    sweep = WORKLOADS["sweep"]
    out = tmp_path / "out"
    code = _execute(SMALL_SWEEP, out)
    assert check_run(sweep, SMALL_SWEEP, out, code, None) == []
    path = out / "sweep.csv"
    path.write_text(path.read_text().replace(",true\n", ",false\n", 1))
    assert any("not all correct" in p for p in check_run(sweep, SMALL_SWEEP, out, code, None))


def test_spectral_radii_are_compared_with_the_recorded_values(tmp_path):
    spectral = WORKLOADS["spectral_large"]
    (tmp_path / "spectral.json").write_text(json.dumps(SPECTRAL_REFERENCE))
    assert check_run(spectral, spectral.config, tmp_path, 0, None) == []
    report = dict(SPECTRAL_REFERENCE, rho_Af=SPECTRAL_REFERENCE["rho_Af"] * (1 + 1e-7))
    (tmp_path / "spectral.json").write_text(json.dumps(report))
    assert any("rho_Af" in p for p in check_run(spectral, spectral.config, tmp_path, 0, None))
