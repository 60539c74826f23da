import copy
import json
import tracemalloc
import warnings
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

import numpy as np

from helpers import CONFIGS, reference_formation_csvs
from ringform import cli, formation, spectral
from ringform.cli import (
    _FIELDS,
    ERRORS_HEADER,
    TRACE_HEADER,
    ConfigError,
    EXIT_CONFIG,
    EXIT_DIVERGED,
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    MODES,
    RunConfig,
    execute,
    load_config,
    main,
    parse_config,
    write_csv,
    write_errors_csv,
    write_estimate_csv,
    write_resolved_config,
    write_trace_csv,
)
from ringform.core import DivergenceError, SwarmState, make_generator, uniform_box
from ringform.estimation import EstimateTrace
from ringform.formation import run_formation, seeded_placement
from ringform.harness import SensitivityCurve, SensitivityRow, SweepResult, SweepRow
from ringform.topology import cut_ring

TRIANGLE = {
    "mode": "pipeline",
    "seed": 42,
    "alpha": 0.3,
    "dt": 0.2,
    "sigma": 1,
    "max_steps": 600,
    "initial_box": 3.0,
    "stride": 10,
    "topology": {"n_total": 7, "vertex_set": [0, 2, 5]},
    "r_star": [[1.0, -2.0], [2.0, 2.0], [-3.0, 0.0]],
    "estimation": {"alpha": 0.1, "dt": 1.0, "strategy": "S2", "max_steps": 5000},
}


def write_config(tmp_path, mapping, name="run.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(mapping))
    return path


def with_value(mapping, path, value):
    """Deep copy of ``mapping`` with the dotted ``path`` set to ``value``."""
    out = copy.deepcopy(mapping)
    *sections, key = path.split(".")
    node = out
    for section in sections:
        node = node.setdefault(section, {})
    node[key] = value
    return out


# (field path, bad value): each must give exit 2 naming the path.
PROBES = [
    ("sigma", 1.7),
    ("sweep.scale_per_n", "no"),
    ("seed", True),
    ("max_steps", 1.9),
    ("max_steps", 0),
    ("topology.n_total", "abc"),
    ("topology.vertex_set", ["a", 2, 5]),
    ("topology.vertex_set", [0, 2, 7]),  # index 7 is outside the 7-robot ring
    ("excitation", ["a", 0]),
    ("excitation", [1.0e-170, 0.0]),  # x*x + y*y underflows to 0
    ("excitation", [1.0e300, 0.0]),  # x*x + y*y overflows to inf
    ("r_star", [["x", -2.0], [2.0, 2.0], [-3.0, 0.0]]),
    ("tolerances.closure", "x"),
    ("tolerances.closure", 1e-3),  # looser than the closure check FormationConfig makes
    ("sweep.n_min", "x"),
    ("initial_box", float("inf")),
    ("alpha", 20),  # beta = 20 * 0.2 / 2 = 2
    ("estimation.alpha", 5),  # estimation beta = 5 * 1.0 / 2 = 2.5
    ("estimation.stop_window", 1),
    ("estimation.max_steps", "x"),
    ("estimation.alpha", "x"),
]


class TestConfigValidation:
    def test_valid_triangle(self, tmp_path):
        cfg = load_config(write_config(tmp_path, TRIANGLE))
        assert cfg.mode == "pipeline"
        assert cfg.vertex_set == (0, 2, 5)

    def test_hexagon_config_is_valid(self):
        cfg = load_config(Path(__file__).parent.parent / "configs" / "hexagon.yaml")
        assert cfg.n_total == 120

    def test_unknown_top_level_field(self, tmp_path):
        bad = dict(TRIANGLE, typo_field=1)
        with pytest.raises(ConfigError, match="typo_field"):
            load_config(write_config(tmp_path, bad))

    def test_unknown_nested_field(self, tmp_path):
        bad = dict(TRIANGLE, topology={"n_total": 7, "vertex_set": [0, 2, 5], "x": 1})
        with pytest.raises(ConfigError, match="topology"):
            load_config(write_config(tmp_path, bad))

    def test_open_polygon_rejected_with_diagnostic(self, tmp_path):
        bad = dict(TRIANGLE, r_star=[[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ConfigError, match="does not close"):
            load_config(write_config(tmp_path, bad))

    def test_sigma_domain(self, tmp_path):
        bad = dict(TRIANGLE, sigma=3)
        with pytest.raises(ConfigError, match="sigma"):
            load_config(write_config(tmp_path, bad))

    def test_missing_mode(self):
        with pytest.raises(ConfigError, match="mode"):
            parse_config({"alpha": 0.5})

    def test_missing_topology_for_pipeline(self, tmp_path):
        bad = {k: v for k, v in TRIANGLE.items() if k != "topology"}
        with pytest.raises(ConfigError, match="n_total"):
            load_config(write_config(tmp_path, bad))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.yaml")

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = write_config(tmp_path, dict(TRIANGLE, sigma=9))
        code = main(["pipeline", "--config", str(bad)])
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_mode_mismatch_is_config_error(self, tmp_path):
        path = write_config(tmp_path, TRIANGLE)
        code = main(["estimate", "--config", str(path)])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("path,value", PROBES, ids=[f"{p}={v!r}" for p, v in PROBES])
    def test_bad_value_exits_with_field_path(self, tmp_path, capsys, path, value):
        config = write_config(tmp_path, with_value(TRIANGLE, path, value))
        code = main(["pipeline", "--config", str(config)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        # the cross-field gain rule for phase 1 names its section
        expected = "estimation" if (path, value) == ("estimation.alpha", 5) else path
        assert f"config error: {expected}:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("section", ["estimation", "topology", "tolerances", "sweep"])
    def test_null_section_means_defaults(self, tmp_path, section):
        # yaml.safe_dump writes a None section as ``section: null``
        path = write_config(tmp_path, {"mode": "sweep", section: None})
        assert f"{section}: null" in path.read_text()
        assert load_config(path) == parse_config({"mode": "sweep"})

    def test_unreadable_config_is_config_error(self, tmp_path, capsys):
        binary = tmp_path / "binary.yaml"
        binary.write_bytes(b"mode: pipeline\nseed: \xff\xfe\n")
        for path in (tmp_path, binary):
            code = main(["pipeline", "--config", str(path)])
            err = capsys.readouterr().err
            assert code == EXIT_CONFIG
            assert f"config error: cannot read {path}" in err
            assert "Traceback" not in err

    @pytest.mark.parametrize("flag,value", [("--seed", "-1"), ("--stride", "0")])
    def test_bad_override_is_config_error(self, tmp_path, capsys, flag, value):
        path = write_config(tmp_path, TRIANGLE)
        code = main(["pipeline", "--config", str(path), flag, value])
        assert code == EXIT_CONFIG
        assert f"config error: {flag[2:]}:" in capsys.readouterr().err


def _apply(mapping, changes):
    for path, value in changes:
        mapping = with_value(mapping, path, value)
    return mapping


# Every key of the field table, so generated mappings hit real fields,
# and values at the edges of each parser's domain.
KEYS = sorted({part for path in _FIELDS for part in path})
EDGES = (None, True, False, 0, -1, 1, 2, 2 ** 64, 10 ** 400, 0.5, 1e-300, 1e300,
         float("inf"), float("nan"), "", "x", "S1", "S2") + MODES
SCALARS = st.sampled_from(EDGES) | st.integers() | st.floats() | st.text(max_size=4)
VALUES = st.recursive(
    SCALARS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=3),
                                     inner, max_size=4)),
    max_leaves=12,
)
EDGE_VALUES = st.sampled_from(EDGES) | st.lists(st.sampled_from(EDGES), max_size=3)
MAPPINGS = st.one_of(
    st.dictionaries(st.sampled_from(KEYS), VALUES, max_size=8),
    # the triangle config with up to three fields changed
    st.lists(st.tuples(st.sampled_from(sorted(".".join(p) for p in _FIELDS)), EDGE_VALUES),
             max_size=3).map(lambda changes: _apply(TRIANGLE, changes)),
)


@settings(max_examples=300, deadline=None)
@given(MAPPINGS)
@example({"mode": "sweep", "alpha": 10 ** 400})  # int beyond float range
@example({"mode": "pipeline", "topology": [7]})
def test_any_mapping_parses_or_raises_config_error(raw):
    try:
        assert isinstance(parse_config(raw), RunConfig)
    except ConfigError:
        pass


@pytest.fixture(scope="module")
def triangle_out(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("triangle")
    cfg = dict(TRIANGLE, output_dir=str(tmp / "out"))
    path = write_config(tmp, cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(["pipeline", "--config", str(path)])
    return code, tmp / "out"


class TestPipelineRun:
    def test_exit_code_ok(self, triangle_out):
        code, _ = triangle_out
        assert code == EXIT_OK

    def test_output_files_exist(self, triangle_out):
        _, out = triangle_out
        for name in ("estimate.csv", "trace.csv", "errors.csv",
                     "resolved_config.yaml", "manifest.json"):
            assert (out / name).exists()

    def test_headers_exact(self, triangle_out):
        _, out = triangle_out
        assert (out / "estimate.csv").read_text().splitlines()[0] == \
            "step,chain_id,ratio,estimate_raw,estimate_rounded,converged"
        assert (out / "trace.csv").read_text().splitlines()[0] == \
            "step,time,robot_id,px,py,vx,vy"
        assert (out / "errors.csv").read_text().splitlines()[0] == \
            "step,time,edge_id,error"

    def test_estimate_rows_step_major(self, triangle_out):
        _, out = triangle_out
        rows = (out / "estimate.csv").read_text().splitlines()[1:]
        parsed = [row.split(",") for row in rows]
        keys = [(int(r[0]), int(r[1])) for r in parsed]
        assert keys == sorted(keys)

    def test_pipeline_cuts_the_ring_once(self, tmp_path, monkeypatch):
        cuts = []

        def counted(*args):
            cuts.append(args)
            return cut_ring(*args)

        monkeypatch.setattr(formation, "cut_ring", counted)
        path = write_config(tmp_path, dict(TRIANGLE, output_dir=str(tmp_path / "out")))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["pipeline", "--config", str(path)]) == EXIT_OK
        assert len(cuts) == 1

    def test_manifest_contents(self, triangle_out):
        _, out = triangle_out
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["mode"] == "pipeline"
        assert manifest["seed"] == 42
        assert "wall_time_s" in manifest
        assert "estimate.csv" in manifest["outputs"]

    @pytest.mark.parametrize("config", sorted(CONFIGS.glob("*.yaml")),
                             ids=lambda path: path.stem)
    def test_resolved_config_round_trips(self, tmp_path, config):
        cfg = load_config(config)
        write_resolved_config(tmp_path, cfg)
        resolved = (tmp_path / "resolved_config.yaml").read_text()
        assert parse_config(yaml.safe_load(resolved)) == cfg


class TestDeterminism:
    def test_two_runs_byte_identical(self, tmp_path):
        out = tmp_path / "out"
        cfg = dict(TRIANGLE, output_dir=str(out), max_steps=200)
        path = write_config(tmp_path, cfg)
        names = ("estimate.csv", "trace.csv", "errors.csv", "resolved_config.yaml")
        snapshots = []
        for _ in range(2):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                code = main(["pipeline", "--config", str(path)])
            assert code == EXIT_OK
            snapshots.append({name: (out / name).read_bytes() for name in names})
        assert snapshots[0] == snapshots[1]

    def test_seed_override_changes_outputs(self, tmp_path):
        texts = []
        for seed in (1, 2):
            cfg = dict(TRIANGLE, output_dir=str(tmp_path / f"s{seed}"), max_steps=200)
            path = write_config(tmp_path, cfg, name=f"s{seed}.yaml")
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                main(["pipeline", "--config", str(path), "--seed", str(seed)])
            texts.append((tmp_path / f"s{seed}" / "trace.csv").read_text())
        assert texts[0] != texts[1]


@pytest.mark.parametrize("name", ["estimate20", "triangle", "sweep_small", "spectral19"])
def test_no_run_path_builds_a_dense_chain_matrix(tmp_path, monkeypatch, name):
    # Every radius a run needs comes from the modal blocks; the dense chain
    # matrices are the toolkit's reference layer only.
    def refuse(*args):
        raise AssertionError("dense chain matrix built on a run path")

    monkeypatch.setattr(spectral, "_chain_matrix", refuse)
    config = CONFIGS / f"{name}.yaml"
    mode = yaml.safe_load(config.read_text())["mode"]
    assert main([mode, "--config", str(config), "--out", str(tmp_path / "out")]) == EXIT_OK


class TestOtherModes:
    def test_estimate_mode(self, tmp_path):
        cfg = {
            "mode": "estimate", "seed": 7, "alpha": 0.5, "dt": 0.01,
            "strategy": "S1", "max_steps": 20000, "stop_window": 700,
            "output_dir": str(tmp_path / "out"),
            "topology": {"n_total": 20},
        }
        path = write_config(tmp_path, cfg)
        code = main(["estimate", "--config", str(path)])
        assert code == EXIT_OK
        lines = (tmp_path / "out" / "estimate.csv").read_text().splitlines()
        last = lines[-1].split(",")
        assert last[4] == "19"
        assert last[5] == "true"

    def test_form_mode_non_convergence_exit(self, tmp_path):
        cfg = {
            "mode": "form", "seed": 3, "alpha": 0.3, "dt": 0.2, "sigma": 1,
            "max_steps": 5,  # far too short
            "output_dir": str(tmp_path / "out"),
            "topology": {"n_total": 7, "vertex_set": [0, 2, 5]},
            "r_star": [[1.0, -2.0], [2.0, 2.0], [-3.0, 0.0]],
        }
        path = write_config(tmp_path, cfg)
        code = main(["form", "--config", str(path)])
        assert code == EXIT_NOT_CONVERGED
        # outputs still written and truncated at a row boundary
        trace = (tmp_path / "out" / "trace.csv").read_text()
        assert trace.splitlines()[0].startswith("step,")
        assert trace.endswith("\n")

    def test_estimate_divergence_exit(self, tmp_path):
        # beta = 0.95 is inside the parameter domain but far outside the
        # stability region for a 10-robot chain; the run must abort with
        # exit 3 and still leave a readable partial estimate.csv.
        cfg = {
            "mode": "estimate", "seed": 0, "alpha": 1.9, "dt": 1.0,
            "strategy": "S1", "max_steps": 5000,
            "output_dir": str(tmp_path / "out"),
            "topology": {"n_total": 11},
        }
        path = write_config(tmp_path, cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(["estimate", "--config", str(path)])
        assert code == EXIT_DIVERGED
        lines = (tmp_path / "out" / "estimate.csv").read_text().splitlines()
        assert lines[0].startswith("step,")
        assert len(lines) > 1

    def test_pipeline_estimation_divergence_exit(self, tmp_path, capsys):
        # beta = 0.95 makes the phase-1 chains blow up; the three chains
        # run as one batch, so each one's partial trace lands in
        # estimate.csv, all ending at the step before the divergence, and
        # formation never starts.
        cfg = dict(TRIANGLE, output_dir=str(tmp_path / "out"),
                   estimation={"alpha": 1.9, "dt": 1.0, "strategy": "S1"})
        path = write_config(tmp_path, cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(["pipeline", "--config", str(path)])
        assert code == EXIT_DIVERGED
        err = capsys.readouterr().err
        assert "diverged" in err
        assert "of segment" in err
        lines = (tmp_path / "out" / "estimate.csv").read_text().splitlines()
        assert lines[0] == "step,chain_id,ratio,estimate_raw,estimate_rounded,converged"
        rows = [tuple(map(int, line.split(",")[:2])) for line in lines[1:]]
        last = rows[-1][0] if rows else 0
        assert last >= 1
        assert rows == [(step, chain) for step in range(1, last + 1) for chain in range(3)]
        assert not (tmp_path / "out" / "trace.csv").exists()

    def test_pipeline_divergence_keeps_finished_chains(self, tmp_path, capsys):
        # Chain 0 (2 robots) converges at step 74; chain 1 (5 robots) then
        # diverges at step 192.  Both chains' rows must reach estimate.csv.
        # Chain 2 (3 robots) runs in the same batch: it is partial at the
        # divergence, and every chain's stability warning comes out.
        cfg = dict(TRIANGLE, seed=1, output_dir=str(tmp_path / "out"),
                   topology={"n_total": 10, "vertex_set": [0, 2, 7]},
                   estimation={"alpha": 0.3, "dt": 1.0, "strategy": "S2",
                               "max_steps": 3000, "stop_window": 50})
        path = write_config(tmp_path, cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(["pipeline", "--config", str(path)])
        assert code == EXIT_DIVERGED
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("ringform: chain positions of segment 1 diverged at step 192: ")
        assert [line.split(" at chain order ")[1][0] for line in err[1:]] == ["2", "5", "3"]
        assert all(line.startswith("ringform: warning: alpha*dt = 0.3 >= sufficient bound")
                   for line in err[1:])
        lines = (tmp_path / "out" / "estimate.csv").read_text().splitlines()[1:]
        rows = [line.split(",") for line in lines]
        chain0 = [r for r in rows if r[1] == "0"]
        chain1 = [r for r in rows if r[1] == "1"]
        assert chain0[-1][5] == "true" and chain0[-1][4] == "2"
        assert [r[5] for r in chain0[:-1]] == ["false"] * (len(chain0) - 1)
        assert [int(r[0]) for r in chain1] == list(range(1, len(chain1) + 1))
        assert len(chain1) > len(chain0)
        assert not (tmp_path / "out" / "trace.csv").exists()
        chain2 = [r for r in rows if r[1] == "2"]
        assert [int(r[0]) for r in chain2] == list(range(1, 192))
        assert [int(r[0]) for r in chain1] == list(range(1, 192))
        assert "true" not in {r[5] for r in chain1 + chain2}
        assert len(rows) == len(chain0) + len(chain1) + len(chain2)
        # the same divergence through the API: every chain's trace as partial
        raw = dict(cfg, output_dir=str(tmp_path / "api"))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(DivergenceError) as diverged:
                formation.run_pipeline(**parse_config(raw).pipeline_arguments())
        partial = diverged.value.partial
        assert all(isinstance(trace, EstimateTrace) for trace in partial)
        assert [len(trace.steps) for trace in partial] == [len(chain0), 191, 191]
        assert [trace.steps_to_convergence for trace in partial] == [len(chain0), None, None]

    def test_overflowing_excitation_is_a_config_error(self, tmp_path, capsys):
        # x*x overflows to inf: a run from it would read every ratio as 0
        # or NaN and stop at step 1 with overflow warnings.
        cfg = {"mode": "estimate", "excitation": [1.0e300, 0.0],
               "output_dir": str(tmp_path / "out"), "topology": {"n_total": 5}}
        path = write_config(tmp_path, cfg)
        code = main(["estimate", "--config", str(path)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("ringform: config error: excitation: must have finite x*x + y*y > 0")
        assert "warning" not in err and "diverged" not in err

    def test_pipeline_formation_divergence_keeps_estimates(self, tmp_path, capsys):
        # sigma 2 at alpha 1.5 blows the ring up at step 124, after every
        # chain converged; phase 1 reads only estimation.*, so estimate.csv
        # is the shipped triangle's.
        shipped = tmp_path / "shipped"
        raw = yaml.safe_load((CONFIGS / "triangle.yaml").read_text())
        path = write_config(tmp_path, dict(raw, alpha=1.5, sigma=2,
                                           output_dir=str(tmp_path / "out")))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["pipeline", "--config", str(CONFIGS / "triangle.yaml"),
                         "--out", str(shipped)]) == EXIT_OK
            code = main(["pipeline", "--config", str(path)])
        assert code == EXIT_DIVERGED
        assert "ring velocities diverged at step 124" in capsys.readouterr().err
        out = tmp_path / "out"
        assert (out / "estimate.csv").read_bytes() == (shipped / "estimate.csv").read_bytes()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == ["resolved_config.yaml", "estimate.csv",
                                       "trace.csv", "errors.csv"]
        # the errors end at the last step before the divergence
        assert (out / "errors.csv").read_text().splitlines()[-1].startswith("123,")

    def test_form_divergence_matches_pipeline(self, tmp_path, capsys):
        # form mode starts the ring from the same seeded placement as
        # pipeline mode, so with the same (correctly estimated) chain sizes
        # its divergence leaves the same partial trace.csv and errors.csv.
        raw = dict(yaml.safe_load((CONFIGS / "triangle.yaml").read_text()),
                   alpha=1.5, sigma=2)
        pipeline = write_config(tmp_path, dict(raw, output_dir=str(tmp_path / "pipeline")),
                                "pipeline.yaml")
        form = write_config(tmp_path, dict(raw, mode="form", output_dir=str(tmp_path / "form")),
                            "form.yaml")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["pipeline", "--config", str(pipeline)]) == EXIT_DIVERGED
            capsys.readouterr()
            code = main(["form", "--config", str(form)])
        assert code == EXIT_DIVERGED
        assert "ring velocities diverged at step 124" in capsys.readouterr().err
        out = tmp_path / "form"
        for name in ("trace.csv", "errors.csv"):
            assert (out / name).read_bytes() == (tmp_path / "pipeline" / name).read_bytes()
        assert json.loads((out / "manifest.json").read_text())["outputs"] == \
            ["resolved_config.yaml", "trace.csv", "errors.csv"]
        assert (out / "errors.csv").read_text().splitlines()[-1].startswith("123,")
        # the step-0 rows are stream (seed, 0) of the documented placement
        rows = [line.split(",") for line in (out / "trace.csv").read_text().splitlines()[1:]
                if line.startswith("0,")]
        start = uniform_box(make_generator(raw["seed"], 0), 7, raw["initial_box"])
        assert [[float(r[3]), float(r[4])] for r in rows] == start.tolist()

    @pytest.mark.parametrize("extra,window", [({}, 460517025), ({"stop_window": 3000}, 3000)],
                             ids=["automatic", "given"])
    def test_stop_window_not_below_max_steps_is_config_error(self, tmp_path, capsys,
                                                             extra, window):
        # At alpha = 1e-6 the automatic S1 window, from the modal blocks, is
        # 460 517 025 steps (the dense chain matrix gave 460 517 020, a
        # 50-digit evaluation 460 517 014); a window at or past max_steps
        # (3000 by default) is refused at once.
        cfg = dict({"mode": "estimate", "alpha": 1.0e-6, "dt": 0.01, "strategy": "S1",
                    "output_dir": str(tmp_path / "out"), "topology": {"n_total": 5}},
                   **extra)
        code = main(["estimate", "--config", str(write_config(tmp_path, cfg))])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert (f"config error: estimation.max_steps: must exceed the stop window of "
                f"{window} steps, got 3000") in err
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "estimate.csv").exists()

    def test_degenerate_s1_frame_does_not_converge(self, tmp_path, capsys):
        # At beta = 5e-303 the S1 readout frame degenerates (fb1 == fb2):
        # every readout is NaN, so the run uses up max_steps.
        cfg = {
            "mode": "estimate", "alpha": 1.0e-300, "dt": 0.01, "strategy": "S1",
            "output_dir": str(tmp_path / "out"), "topology": {"n_total": 5},
        }
        path = write_config(tmp_path, cfg)
        code = main(["estimate", "--config", str(path)])
        err = capsys.readouterr().err
        assert code == EXIT_NOT_CONVERGED
        assert "Traceback" not in err
        lines = (tmp_path / "out" / "estimate.csv").read_text().splitlines()
        assert len(lines) == 1 + 3000
        assert lines[-1].split(",")[3:] == ["nan", "nan", "false"]

    def test_spectral_mode(self, tmp_path):
        cfg = {
            "mode": "spectral", "alpha": 0.5, "dt": 0.01, "n_prime": 19,
            "output_dir": str(tmp_path / "out"),
        }
        path = write_config(tmp_path, cfg)
        code = main(["spectral", "--config", str(path)])
        assert code == EXIT_OK
        report = json.loads((tmp_path / "out" / "spectral.json").read_text())
        assert report["satisfies_s1"] is True
        assert report["satisfies_s2"] is False
        assert report["rho_A"] < 1.0
        assert report["rho_Ar"] < 1.0
        assert report["rho_Af"] < 1.0
        assert report["rho_Af_lagged"] > 1.0

    def test_sweep_mode(self, tmp_path):
        cfg = {
            "mode": "sweep", "seed": 0, "dt": 0.01,
            "output_dir": str(tmp_path / "out"),
            "sweep": {"n_min": 5, "n_max": 7, "reps": 1, "scale_per_n": True},
        }
        path = write_config(tmp_path, cfg)
        code = main(["sweep", "--config", str(path)])
        assert code == EXIT_OK
        sweep = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert sweep[0] == "n,strategy,reps,mean_steps,all_correct"
        assert len(sweep) == 1 + 3 * 2
        sens = (tmp_path / "out" / "sensitivity.csv").read_text().splitlines()
        assert sens[0] == \
            "n_prime,ratio_s1_closed,ratio_s2_closed,ratio_s1_sim,ratio_s2_sim"

    def test_sweep_divergence_names_step_and_cell(self, tmp_path, capsys):
        # Placements in a 1e7 box: at the step-64 position check the
        # lock-step batch finds n=7 S1 rep 0 first (in cell order) beyond
        # the 1e6 limit.  No chain trace is kept, so no estimate.csv.
        out = tmp_path / "out"
        path = write_config(tmp_path, {
            "mode": "sweep", "initial_box": 1.0e7, "output_dir": str(out),
            "sweep": {"n_min": 5, "n_max": 8, "reps": 2, "scale_per_n": True},
        })
        code = main(["sweep", "--config", str(path)])
        err = capsys.readouterr().err
        assert code == EXIT_DIVERGED
        assert err == ("ringform: chain positions of sweep cell n=7 S1 rep 0 diverged at "
                       "step 64: max magnitude 1.191e+06 exceeds 1e+06\n")
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json",
                                                        "resolved_config.yaml"]

    @pytest.mark.parametrize("mode,size,mapping", [
        ("spectral", "n_prime", {"n_prime": 10 ** 15}),
        ("form", "topology.n_total", {
            "topology": {"n_total": 10 ** 14, "vertex_set": [0, 1, 2]},
            "r_star": [[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]],
        }),
        ("estimate", "topology.n_total", {"topology": {"n_total": 10 ** 14}}),
        ("pipeline", "topology.n_total", {
            "topology": {"n_total": 10 ** 14, "vertex_set": [0, 1, 2]},
            "r_star": [[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]],
        }),
    ], ids=["spectral", "form", "estimate", "pipeline"])
    def test_size_past_the_address_space_is_a_config_error(self, tmp_path, capsys, mode,
                                                            size, mapping):
        # Petabytes of arrays, more than a 64-bit process can address: numpy
        # refuses them at once, before any memory is touched.
        out = tmp_path / "out"
        path = write_config(tmp_path, dict(mapping, mode=mode, output_dir=str(out)))
        code = main([mode, "--config", str(path)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith(f"ringform: config error: {size}: too large to allocate: ")
        assert "Traceback" not in err
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json",
                                                        "resolved_config.yaml"]

    def test_stride_override(self, tmp_path):
        cfg = dict(TRIANGLE, output_dir=str(tmp_path / "out"), max_steps=100)
        path = write_config(tmp_path, cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            main(["pipeline", "--config", str(path), "--stride", "50"])
        lines = (tmp_path / "out" / "trace.csv").read_text().splitlines()[1:]
        steps = sorted({int(line.split(",")[0]) for line in lines})
        assert steps == [0, 50, 100]


NAN = float("nan")


class TestValueFormats:
    """Each writer's text against rows spelled out with ``repr``: shortest
    round-trip floats, ``nan``, integer rounded estimates, true/false."""

    def test_estimate_csv(self, tmp_path):
        chain0 = EstimateTrace(
            strategy="S1", n_prime_true=2, steps=np.array([1, 2, 3]),
            ratios=np.array([0.1 + 0.2, -0.0, 5e-324]), raw=np.array([NAN, 1e16, 2.4]),
            rounded=np.array([NAN, 1e16, 2.0]), converged=True, estimate=2,
            steps_to_convergence=3, first_correct_step=3,
        )
        chain1 = EstimateTrace(
            strategy="S1", n_prime_true=5, steps=np.array([1, 2]),
            ratios=np.array([1e16, 0.5]), raw=np.array([4.6, 5.25]),
            rounded=np.array([5, 5]),
        )
        path = tmp_path / "estimate.csv"
        write_estimate_csv(path, [chain0, chain1])
        assert path.read_text() == "".join(line + "\n" for line in [
            "step,chain_id,ratio,estimate_raw,estimate_rounded,converged",
            f"1,0,{0.1 + 0.2!r},nan,nan,false",
            f"1,1,{1e16!r},{4.6!r},5,false",
            f"2,0,{-0.0!r},{1e16!r},10000000000000000,false",
            f"2,1,{0.5!r},{5.25!r},5,false",
            f"3,0,{5e-324!r},{2.4!r},2,true",
        ])

    def test_trace_and_errors_csv(self, tmp_path):
        first = SwarmState(positions=[[-0.0, 5e-324], [1e16, 0.1 + 0.2]],
                           velocities=[[NAN, 1.5], [0.0, -2.0]])
        last = SwarmState(positions=[[1.0, 2.0], [3.0, 4.0]],
                          velocities=[[0.1, 0.2], [0.3, 0.4]], step=3)
        with write_csv(tmp_path / "trace.csv", TRACE_HEADER) as out:
            write_trace_csv(out, first, 0.1)
            write_trace_csv(out, last, 0.1)
        with write_csv(tmp_path / "errors.csv", ERRORS_HEADER) as out:
            write_errors_csv(out, np.array([0, 3]), np.array([[1e16, -0.0], [5e-324, NAN]]),
                             0.1)
        t3 = 3 * 0.1
        assert (tmp_path / "trace.csv").read_text() == "".join(line + "\n" for line in [
            "step,time,robot_id,px,py,vx,vy",
            f"0,{0.0!r},0,{-0.0!r},{5e-324!r},nan,{1.5!r}",
            f"0,{0.0!r},1,{1e16!r},{0.1 + 0.2!r},{0.0!r},{-2.0!r}",
            f"3,{t3!r},0,{1.0!r},{2.0!r},{0.1!r},{0.2!r}",
            f"3,{t3!r},1,{3.0!r},{4.0!r},{0.3!r},{0.4!r}",
        ])
        assert (tmp_path / "errors.csv").read_text() == "".join(line + "\n" for line in [
            "step,time,edge_id,error",
            f"0,{0.0!r},0,{1e16!r}",
            f"0,{0.0!r},1,{-0.0!r}",
            f"3,{t3!r},0,{5e-324!r}",
            f"3,{t3!r},1,nan",
        ])

    def test_sweep_and_sensitivity_csv(self, tmp_path, monkeypatch):
        sweep = SweepResult(rows=[SweepRow(n=5, strategy="S1", reps=2, mean_steps=0.1 + 0.2,
                                           all_correct=True),
                                  SweepRow(n=5, strategy="S2", reps=2, mean_steps=1e16,
                                           all_correct=False)])
        curve = SensitivityCurve(
            rows=[SensitivityRow(n_prime=4, beta=0.0025, ratio_s1_closed=-0.0,
                                 ratio_s2_closed=5e-324, ratio_s1_sim=NAN,
                                 ratio_s2_sim=1e16)],
            total_variation_s1=0.0, total_variation_s2=0.0, more_sensitive="S1",
        )
        monkeypatch.setattr(cli, "sweep_and_curves", lambda *args, **kwargs: (sweep, curve))
        out = tmp_path / "out"
        config = write_config(tmp_path, {"mode": "sweep", "output_dir": str(out)})
        assert main(["sweep", "--config", str(config)]) == EXIT_NOT_CONVERGED
        assert (out / "sweep.csv").read_text() == "".join(line + "\n" for line in [
            "n,strategy,reps,mean_steps,all_correct",
            f"5,S1,2,{0.1 + 0.2!r},true",
            f"5,S2,2,{1e16!r},false",
        ])
        assert (out / "sensitivity.csv").read_text() == "".join(line + "\n" for line in [
            "n_prime,ratio_s1_closed,ratio_s2_closed,ratio_s1_sim,ratio_s2_sim",
            f"4,{-0.0!r},{5e-324!r},nan,{1e16!r}",
        ])


FORM = dict(TRIANGLE, mode="form")


def execute_form(out, **changes):
    """Run the triangle ``form`` config with ``changes`` into ``out``."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return execute(parse_config(dict(FORM, output_dir=str(out), **changes)))


class TestStreamedOutputs:
    """``trace.csv`` and ``errors.csv`` are written while the ring runs."""

    def test_any_abort_leaves_the_rows_written_so_far(self, tmp_path, monkeypatch):
        block = formation.BLOCK_STEPS
        horizon, stride, failing_step = 2 * block + 500, 100, 2 * block + 200
        assert execute_form(tmp_path / "full", max_steps=horizon, stride=stride) == EXIT_OK
        step_formation = formation.step_formation
        names = ("errors.csv", "trace.csv")
        on_disk = {}

        def fail_part_way(state, config, rings=None):
            if state.step + 1 == failing_step:
                on_disk.update((name, (tmp_path / "cut" / name).read_text()) for name in names)
                raise RuntimeError("power cut")
            return step_formation(state, config, rings)

        monkeypatch.setattr(formation, "step_formation", fail_part_way)
        with pytest.raises(RuntimeError, match="power cut"):
            execute_form(tmp_path / "cut", max_steps=horizon, stride=stride)
        steps = {}
        for name, fields in zip(names, (4, 7)):
            # the rows were flushed before the raise; closing adds none
            text = on_disk[name]
            assert (tmp_path / "cut" / name).read_text() == text
            assert text.endswith("\n")
            rows = [row.split(",") for row in text.splitlines()[1:]]
            assert {len(row) for row in rows} == {fields}
            steps[name] = sorted({int(row[0]) for row in rows})
            # a prefix of the complete run's file
            assert (tmp_path / "full" / name).read_text().startswith(text)
        # errors.csv ends with the last finished block, trace.csv with the
        # last snapshot taken.
        assert steps["errors.csv"] == list(range(2 * block))
        assert steps["trace.csv"] == list(range(0, failing_step, stride))

    def test_memory_does_not_grow_with_the_horizon(self, tmp_path):
        def peak(horizon):
            tracemalloc.start()
            try:
                execute_form(tmp_path / str(horizon), max_steps=horizon, stride=horizon)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        horizon = formation.BLOCK_STEPS + 76
        peak(horizon)  # first-call allocations (caches, lazy imports)
        short, long = peak(horizon), peak(10 * horizon)
        # One block of the triangle's vertex rows and edge errors; a record
        # of every step would add 9 * horizon * 3 * 16 bytes.
        one_block = formation.BLOCK_STEPS * 3 * (2 + 1) * 8
        assert abs(long - short) < one_block

    @pytest.mark.parametrize("block", [7, None], ids=["block7", "default-block"])
    @pytest.mark.parametrize("stride,changes", [(1, {}), (7, {}),
                                                (1, {"alpha": 1.5, "sigma": 2})],
                             ids=["stride1", "stride7", "diverges"])
    def test_streamed_files_are_the_collected_trace_written_out(self, tmp_path, monkeypatch,
                                                                block, stride, changes):
        if block is not None:
            monkeypatch.setattr(formation, "BLOCK_STEPS", block)
        raw = dict(yaml.safe_load((CONFIGS / "triangle.yaml").read_text()), mode="form",
                   stride=stride, **changes)
        cfg = parse_config(dict(raw, output_dir=str(tmp_path)))
        config = cfg.formation_config()
        initial = seeded_placement(config.ring, cfg.seed, cfg.initial_box)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = execute(cfg)
            try:
                trace = run_formation(initial, config, cfg.max_steps, stride=stride,
                                      error_tolerance=cfg.formation_tolerance)
            except DivergenceError as err:
                trace = err.partial
        assert code == (EXIT_DIVERGED if changes else EXIT_OK)
        want_trace, want_errors = reference_formation_csvs(trace)
        assert (tmp_path / "trace.csv").read_bytes() == want_trace.encode()
        assert (tmp_path / "errors.csv").read_bytes() == want_errors.encode()
