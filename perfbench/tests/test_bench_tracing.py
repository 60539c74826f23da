"""Span arithmetic and the install/restore contract of the tracer."""

import sys

import numpy as np
import pytest

import tracing
from tracing import ROOT, Tracer, layer_metrics, self_times

import ringform.cli as cli


def test_self_times_on_a_synthetic_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; b has child c [6, 7]
    parent = [-1, 0, 0, 2]
    start = [0.0, 1.0, 5.0, 6.0]
    end = [10.0, 4.0, 9.0, 7.0]
    np.testing.assert_allclose(self_times(parent, start, end), [3.0, 3.0, 3.0, 1.0])


def test_layer_split_counts_uncovered_time_as_other():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 5.0, 8.0, 10.0])
    tracer = Tracer("synthetic", clock=lambda: next(ticks))
    tracer.layer_of.update(run_formation="formation", check_finite="core")
    root = tracer.begin(ROOT)            # 0
    form = tracer.begin("run_formation")  # 1
    check = tracer.begin("check_finite")  # 2
    tracer.end(check)                   # 3
    tracer.end(form)                    # 5
    second = tracer.begin("check_finite")  # 8
    tracer.end(second)                  # 10
    tracer.span_end[root] = 12.0        # execute returns at 12
    metrics = layer_metrics(tracer, {})
    assert metrics["formation.self_s"] == pytest.approx(3.0)
    assert metrics["core.self_s"] == pytest.approx(3.0)
    assert metrics["other.self_s"] == pytest.approx(6.0)
    assert metrics["formation.busy_s"] == pytest.approx(4.0)
    assert metrics["core.check_finite_calls"] == 2
    assert metrics["core.check_finite_s"] == pytest.approx(3.0)


def _bindings():
    return {
        (key, name): value
        for key, module in sys.modules.items()
        if key == "ringform" or key.startswith("ringform.")
        for name, value in vars(module).items()
    }


TRIANGLE = {
    "mode": "pipeline", "seed": 3, "alpha": 0.3, "dt": 0.2, "max_steps": 300,
    "initial_box": 3.0, "stride": 10,
    "topology": {"n_total": 7, "vertex_set": [0, 2, 5]},
    "r_star": [[1.0, -2.0], [2.0, 2.0], [-3.0, 0.0]],
    "estimation": {"alpha": 0.1, "dt": 1.0, "strategy": "S2"},
}


def _run(tmp_path, name, tracer=None):
    cfg = cli.parse_config(dict(TRIANGLE, output_dir=str(tmp_path / name)))
    root = tracer.begin(ROOT) if tracer else None
    assert cli.execute(cfg) == 0
    if tracer:
        tracer.end(root)
    # the manifest holds the wall time, the resolved config the output dir
    return {p.name: p.read_bytes() for p in (tmp_path / name).glob("*.csv")}


def test_wrappers_patch_every_lookup_and_restore_them(tmp_path):
    before = _bindings()
    tracer = Tracer("test")
    tracer.install()
    try:
        import ringform.formation
        import ringform.harness
        for module, name in [
            (cli, "run_formation"), (ringform.formation, "run_formation"),
            (ringform.formation, "run_estimation"), (ringform.harness, "run_estimation"),
            (ringform.estimation, "step_estimator"),
            (ringform.harness, "spectral_radius"), (ringform.spectral, "spectral_radius"),
            (ringform.estimation, "check_finite"), (ringform.formation, "check_finite"),
        ]:
            assert getattr(module, name) is not before[(module.__name__, name)]
        traced = _run(tmp_path, "traced", tracer)
    finally:
        tracer.restore()
    assert _bindings() == before
    assert traced == _run(tmp_path, "plain")
    names = {tracer.names[i] for i in tracer.span_name}
    assert {"run_pipeline", "run_estimation", "run_formation", "write_csv",
            "check_finite", "spectral_radius"} <= names
    assert tracer.calls["step_formation"] == TRIANGLE["max_steps"]


def test_every_target_names_a_public_function():
    for layer, name, _ in tracing.SPANNED + tracing.COUNTED:
        assert not name.startswith("_")
        assert callable(getattr(sys.modules[f"ringform.{layer}"], name))
