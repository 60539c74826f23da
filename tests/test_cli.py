import copy
import json
import tracemalloc
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

import numpy as np

from helpers import CONFIGS, form_of, reference_formation_csvs
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
from ringform.estimation import EstimateTrace, batch_bytes
from ringform.formation import run_formation, run_pipeline, seeded_placement, summarize
from ringform.harness import SensitivityCurve, SensitivityRow, SweepResult, SweepRow

# The shipped triangle, its output directory left to each test.
TRIANGLE = yaml.safe_load((CONFIGS / "triangle.yaml").read_text())
del TRIANGLE["output_dir"]


def write_config(tmp_path, mapping, name="run.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(mapping))
    return path


# The shipped triangle at sigma 2 with stable gains (alpha*dt 0.12 < 0.134) in a
# 1.05e6 box: its transient growth passes the position limit at step 36.
FAR_RING = dict(yaml.safe_load((CONFIGS / "triangle.yaml").read_text()),
                alpha=0.6, sigma=2, initial_box=1.05e6)


def refused(tmp_path, capsys, mapping):
    """The config error, unprefixed, of ``mapping``: exit 2 before any output."""
    path = write_config(tmp_path, dict(mapping, output_dir=str(tmp_path / "refused")), "x.yaml")
    assert main([mapping["mode"], "--config", str(path)]) == EXIT_CONFIG
    assert not (tmp_path / "refused").exists()
    err = capsys.readouterr().err
    assert err.startswith("ringform: config error: ") and err.count("\n") == 1
    return err.removeprefix("ringform: config error: ").rstrip("\n")


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
    ("r_star", [["x", -2.0], [2.0, 2.0], [-3.0, 0.0]]),
    ("sweep.n_min", "x"),
    ("initial_box", float("inf")),
    ("alpha", 20),  # beta = 20 * 0.2 / 2 = 2
    ("estimation.alpha", 5),  # estimation beta = 5 * 1.0 / 2 = 2.5, named after alpha
    ("r_star", [[1.0, -2.0], [-1.0, 2.0]]),  # two rows for three vertices
    ("topology.n_total", 2),  # too few robots for a ring
    ("estimation.stop_window", 1),
    ("estimation.max_steps", "x"),
    ("estimation.alpha", "x"),
    ("alpha", "1e-3"),  # YAML 1.1 reads both as text, not floats
    ("initial_box", "1.0e3"),
]


# The fields each mode reads, and so accepts, checks and echoes: 53 pairs.
# A pipeline names its phase-1 strategy and stop window only in its section.
RING = ["topology.n_total", "topology.vertex_set", "r_star", "sigma", "stride"]
READS = {
    "estimate": {"mode", "output_dir", "alpha", "dt", "seed", "initial_box", "max_steps",
                 "topology.n_total", "strategy", "stop_window"},
    "form": {"mode", "output_dir", "alpha", "dt", "seed", "initial_box", "max_steps", *RING},
    "pipeline": {"mode", "output_dir", "alpha", "dt", "seed", "initial_box", "max_steps", *RING,
                 "estimation.alpha", "estimation.dt", "estimation.strategy",
                 "estimation.max_steps", "estimation.stop_window"},
    "sweep": {"mode", "output_dir", "dt", "seed", "initial_box", "sweep.n_min", "sweep.n_max",
              "sweep.reps", "sweep.scale_per_n"},
    "spectral": {"mode", "output_dir", "alpha", "dt", "n_prime"},
}
# A valid mapping of each mode, and a non-null value of every field.
BASES = {
    "estimate": {"mode": "estimate", "topology": {"n_total": 5}},
    "form": form_of(TRIANGLE),
    "pipeline": TRIANGLE,
    "sweep": {"mode": "sweep", "sweep": {"n_min": 5, "n_max": 6, "reps": 1}},
    "spectral": {"mode": "spectral", "n_prime": 19},
}
GIVEN = {
    "alpha": 300, "dt": 0.01, "sigma": 2, "strategy": "S2", "seed": 5, "initial_box": 1.0,
    "output_dir": "out", "stride": 3, "max_steps": 10, "stop_window": 50,
    "topology.n_total": 7, "topology.vertex_set": [0, 2, 5],
    "r_star": TRIANGLE["r_star"], "n_prime": 19, "estimation.alpha": 300,
    "estimation.dt": 1.0, "estimation.strategy": "S1", "estimation.max_steps": 100,
    "estimation.stop_window": 50, "sweep.n_min": 5, "sweep.n_max": 6, "sweep.reps": 2,
    "sweep.scale_per_n": True,
}
UNREAD = [(mode, path) for mode in MODES for path in sorted(GIVEN) if path not in READS[mode]]
# (mode, field path, bad value, the one config error line): each rule the library
# states, in each mode that reads a field it constrains.  beta = alpha*dt/2 names alpha.
BETA = "beta = alpha*dt/2 = {} (alpha {}, dt {}) must lie in (0, 1)"
STRATEGY = "must be one of ('S1', 'S2'), got 'S3'"
OPEN = [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]
CLOSE = "r_star: polygon does not close; sum of displacements is (1.000e+00, 1.000e+00)"
RULES = [
    ("estimate", "alpha", 300, "alpha: " + BETA.format(1.5, 300.0, 0.01)),
    ("form", "alpha", 20, "alpha: " + BETA.format(2, 20.0, 0.2)),
    ("pipeline", "estimation.dt", 25.0, "estimation.alpha: " + BETA.format(1.25, 0.1, 25.0)),
    ("spectral", "alpha", 300, "alpha: " + BETA.format(1.5, 300.0, 0.01)),
    ("sweep", "dt", 5e-324, "alpha: " + BETA.format("inf", "inf", 5e-324)),  # alpha = bound / dt
    ("estimate", "alpha", 0, "alpha: must be positive, got 0.0"),
    ("form", "dt", -0.5, "dt: must be positive, got -0.5"),
    ("pipeline", "estimation.alpha", -1, "estimation.alpha: must be positive, got -1.0"),
    ("pipeline", "estimation.dt", 0, "estimation.dt: must be positive, got 0.0"),
    ("spectral", "alpha", -1, "alpha: must be positive, got -1.0"),
    ("sweep", "dt", 0, "dt: must be positive, got 0.0"),
    ("estimate", "strategy", "S3", f"strategy: {STRATEGY}"),
    ("pipeline", "estimation.strategy", "S3", f"estimation.strategy: {STRATEGY}"),
    ("estimate", "stop_window", 1, "stop_window: must be >= 2, got 1"),
    ("pipeline", "estimation.stop_window", 1, "estimation.stop_window: must be >= 2, got 1"),
    ("estimate", "stop_window", 3000,
     "max_steps: must exceed the stop window of 3000 steps, got 3000"),
    ("pipeline", "estimation.stop_window", 5000,
     "estimation.max_steps: must exceed the stop window of 5000 steps, got 5000"),
    ("form", "sigma", 3, "sigma: must be 1 or 2, got 3"),
    ("pipeline", "sigma", 0, "sigma: must be 1 or 2, got 0"),
    ("form", "topology.vertex_set", [-1, 2, 5],
     "topology.vertex_set: vertex indices out of range [0, 7)"),
    ("pipeline", "topology.vertex_set", [0, 2, 7],
     "topology.vertex_set: vertex indices out of range [0, 7)"),
    ("form", "r_star", OPEN, CLOSE),
    ("pipeline", "r_star", OPEN, CLOSE),
    ("sweep", "sweep.n_min", 1, "sweep.n_min: must be at least 2, got 1"),
    ("sweep", "sweep.n_max", 4, "sweep.n_max: must be at least the smallest n, 5, got 4"),
    ("sweep", "sweep.reps", 0, "sweep.reps: must be at least 1, got 0"),
    ("spectral", "n_prime", 0, "n_prime: must be >= 1, got 0"),
]
# No ``tolerances`` section in any mode: the closure and formation tolerances
# are the constants ``formation.CLOSURE_TOL`` and ``formation.FORMATION_TOL``,
# and a null section is refused like a mapping, not read as defaults.  No
# ``excitation`` either: phase 1 drives its chains with ``estimation.EXCITATION``.
UNKNOWN = {"typo": ("typo_field", 1), "tolerances": ("tolerances", {"closure": 1e-10}),
           "tolerances-null": ("tolerances", None), "excitation": ("excitation", [1.0, 0.0])}


def test_each_field_names_the_modes_that_read_it():
    assert {mode: {".".join(path) for path, f in _FIELDS.items() if mode in f.metadata["modes"]}
            for mode in MODES} == READS
    assert sum(map(len, READS.values())) == 53 and len(UNREAD) == 120 - 53


class TestConfigValidation:
    @pytest.mark.parametrize("mode,path", UNREAD, ids=[f"{m}-{p}" for m, p in UNREAD])
    def test_field_the_mode_does_not_read_is_refused(self, tmp_path, capsys, mode, path):
        raw = with_value(BASES[mode], path, GIVEN[path])
        assert refused(tmp_path, capsys, raw) == f"{path}: is not read in {mode} mode"
        assert parse_config(with_value(BASES[mode], path, None)) == parse_config(BASES[mode])

    @pytest.mark.parametrize("mode,flag", [("spectral", "--seed"), ("estimate", "--stride"),
                                           ("sweep", "--stride"), ("spectral", "--stride")])
    def test_override_of_a_field_the_mode_does_not_read_is_refused(self, tmp_path, capsys,
                                                                   mode, flag):
        path = write_config(tmp_path, dict(BASES[mode], output_dir=str(tmp_path / "out")))
        assert main([mode, "--config", str(path), flag, "3"]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"ringform: config error: {flag[2:]}: is not read in {mode} mode\n")
        assert not (tmp_path / "out").exists()

    def test_valid_triangle(self, tmp_path):
        cfg = load_config(write_config(tmp_path, TRIANGLE))
        assert cfg.mode == "pipeline"
        assert cfg.vertex_set == (0, 2, 5)

    def test_hexagon_config_is_valid(self):
        cfg = load_config(Path(__file__).parent.parent / "configs" / "hexagon.yaml")
        assert cfg.n_total == 120

    @pytest.mark.parametrize("mode,case", [(m, c) for m in MODES for c in UNKNOWN],
                             ids=[f"{m}-{c}" for m in MODES for c in UNKNOWN])
    def test_unknown_top_level_field(self, tmp_path, capsys, mode, case):
        key, value = UNKNOWN[case]
        bad = dict(BASES[mode], **{key: value})
        assert refused(tmp_path, capsys, bad) == f"config: unknown fields [{key!r}]"

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
        assert f"config error: {path}:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("text,hint", [("1e-3", True), ("1E-3", True), ("1.0e3", True),
                                           ("1e400", False), ("e3", False)])
    def test_yaml_exponent_text_is_refused_with_a_hint(self, tmp_path, capsys, text, hint):
        # YAML 1.1 reads an exponent as a float only with a decimal point and
        # a signed one; other spellings stay text, refused but explained.
        path = tmp_path / "run.yaml"
        path.write_text(f"mode: spectral\nn_prime: 5\nalpha: {text}\n")
        assert main(["spectral", "--config", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"ringform: config error: alpha: must be a number, got {text!r}"
            + " (YAML reads an exponent without a decimal point and sign as text: "
              "write 1.0e-3)" * hint + "\n")
        path.write_text("mode: spectral\nn_prime: 5\nalpha: 1.0e-3\n")
        assert load_config(path).alpha == 1.0e-3

    def test_pipeline_phase1_strategy_is_read_from_its_section(self):
        # S1 unless ``estimation.strategy`` says otherwise; the top-level
        # ``strategy`` is an estimate run's, refused in a pipeline.
        section = {k: v for k, v in TRIANGLE["estimation"].items() if k != "strategy"}
        for estimation, strategy in ((section, "S1"), (None, "S1"),
                                     (dict(section, strategy="S2"), "S2")):
            cfg = parse_config(dict(TRIANGLE, estimation=estimation))
            assert cfg.est_strategy == strategy and cfg.strategy is None
            assert cfg.pipeline_arguments()["est_config"].strategy == strategy
        with pytest.raises(ConfigError, match="^strategy: is not read in pipeline mode$"):
            parse_config(dict(TRIANGLE, strategy="S2"))

    @pytest.mark.parametrize("mode,path,value,line", RULES,
                             ids=[f"{m}-{p}={v!r}" for m, p, v, _ in RULES])
    def test_each_library_rule_names_the_field_in_each_mode(self, tmp_path, capsys, mode, path,
                                                            value, line):
        # The library states each parameter's domain; the CLI only names the
        # YAML path of the field that sets the parameter.
        assert refused(tmp_path, capsys, with_value(BASES[mode], path, value)) == line

    def test_order_is_named_before_the_gains(self, tmp_path, capsys):
        bad = dict(BASES["spectral"], n_prime=0, alpha=-1)
        assert refused(tmp_path, capsys, bad) == "n_prime: must be >= 1, got 0"

    @pytest.mark.parametrize("vertex_set,message", [
        ([], "topology.vertex_set: polygon needs at least 3 vertex robots"),
        ([0], "topology.vertex_set: polygon needs at least 3 vertex robots"),
        ([0, 9], "topology.vertex_set: vertex indices out of range [0, 7)"),
        ([9, 2, 0], "topology.vertex_set: vertex indices out of range [0, 7)"),
    ])
    def test_vertex_set_with_several_faults_names_one(self, tmp_path, capsys, vertex_set,
                                                      message):
        # an index past the ring is named before the ring's own checks run
        bad = with_value(TRIANGLE, "topology.vertex_set", vertex_set)
        assert refused(tmp_path, capsys, bad) == message

    @pytest.mark.parametrize("case,reason", [
        ("existing-file", "File exists"),
        ("under-a-file", "Not a directory"),
        ("surrogate", "surrogates not allowed"),
    ])
    def test_output_dir_that_cannot_be_made_is_a_config_error(self, tmp_path, capsys, case,
                                                              reason):
        blocker = tmp_path / "blocker"
        blocker.write_text("kept\n")
        out = {"existing-file": blocker, "under-a-file": blocker / "out",
               "surrogate": tmp_path / "x\ud800y"}[case]
        if case == "existing-file":
            path, flags = write_config(tmp_path, TRIANGLE), ["--out", str(out)]
        else:
            path, flags = write_config(tmp_path, dict(TRIANGLE, output_dir=str(out))), []
        assert main(["pipeline", "--config", str(path), *flags]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"ringform: config error: output_dir: cannot create {str(out)!r}: ")
        assert err.endswith(f"{reason}\n") and err.count("\n") == 1
        assert blocker.read_text() == "kept\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker", "run.yaml"]

    @pytest.mark.parametrize("blocked,written", [
        ("resolved_config.yaml", []),
        ("trace.csv", ["resolved_config.yaml", "estimate.csv"]),
        ("errors.csv", ["resolved_config.yaml", "estimate.csv", "trace.csv"]),
    ])
    def test_output_file_that_cannot_be_written_is_a_config_error(self, tmp_path, capsys,
                                                                  blocked, written):
        # A directory in the way of one output file inside an existing
        # output directory: the files before it stay, and the manifest
        # lists them.
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        path = write_config(tmp_path, TRIANGLE)
        assert main(["pipeline", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"ringform: config error: output_dir: cannot write {str(out / blocked)!r}: "
            "Is a directory\n")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == written
        assert sorted(p.name for p in out.iterdir()) == sorted(
            [blocked, "manifest.json", *written])
        if written:
            lines = (out / "estimate.csv").read_text().splitlines()
            assert lines[0].startswith("step,") and len(lines) > 1
        if "trace.csv" in written:
            assert (out / "trace.csv").read_text() == ",".join(TRACE_HEADER) + "\n"

    def test_manifest_that_cannot_be_written_is_a_config_error(self, tmp_path, capsys):
        # The run and every other output finish; only the manifest fails.
        out = tmp_path / "out"
        (out / "manifest.json").mkdir(parents=True)
        path = write_config(tmp_path, TRIANGLE)
        assert main(["pipeline", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"ringform: config error: output_dir: cannot write {str(out / 'manifest.json')!r}: "
            "Is a directory\n")
        assert sorted(p.name for p in out.iterdir()) == [
            "errors.csv", "estimate.csv", "manifest.json", "resolved_config.yaml", "trace.csv"]

    def test_ring_past_its_exact_limit_exits_before_any_step(self, tmp_path, capsys):
        # alpha*dt is 0.99 of the sufficient S2 bound of the 21-robot
        # segments, but past the exact limit of their sigma = 2 chains: run,
        # this ring diverges at step 41 496.
        ring = {"mode": "form", "seed": 3, "alpha": 0.067, "dt": 0.05, "sigma": 2,
                "max_steps": 100000, "topology": {"n_total": 63, "vertex_set": [0, 21, 42]},
                "r_star": [[-4, -8], [8, 0], [-4, 8]]}
        assert refused(tmp_path, capsys, ring) == (
            "alpha: alpha*dt = 0.00335 (alpha 0.067, dt 0.05) must be below 0.0027962, the "
            "exact stability limit of the lagged_formation chain of order 21")

    @pytest.mark.parametrize("mode,section", [
        (mode, section) for mode in MODES
        for section in ("estimation", "topology", "sweep")
        if section != "topology" or "topology.n_total" not in READS[mode]])
    def test_null_section_means_defaults(self, tmp_path, mode, section):
        # yaml.safe_dump writes a None section as ``section: null``; the
        # section may hold fields the mode reads, or none of them.
        base = {k: v for k, v in BASES[mode].items() if k != section}
        path = write_config(tmp_path, dict(base, **{section: None}))
        assert f"{section}: null" in path.read_text()
        assert load_config(path) == parse_config(base)

    def test_unreadable_config_is_config_error(self, tmp_path, capsys, monkeypatch):
        binary = tmp_path / "binary.yaml"
        binary.write_bytes(b"mode: pipeline\nseed: \xff\xfe\n")
        unparsable = [tmp_path / f"{name}.yaml" for name in ("deep", "digits", "date")]
        for path, value in zip(unparsable, ("[" * 600 + "]" * 600, "1" * 5000, "2001-13-01")):
            path.write_text(f"mode: pipeline\nseed: {value}\n")
        locked = write_config(tmp_path, TRIANGLE)
        read_text = Path.read_text

        def denied(path, *args, **kwargs):  # root reads any file, so deny it here
            if path == locked:
                raise PermissionError(13, "Permission denied", str(path))
            return read_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", denied)
        for path, failure in ((tmp_path, "read"), (binary, "read"), (locked, "read"),
                              *((path, "parse") for path in unparsable)):
            code = main(["pipeline", "--config", str(path)])
            err = capsys.readouterr().err
            assert code == EXIT_CONFIG
            assert f"config error: cannot {failure} {path}" in err
            assert "Traceback" not in err

    def test_quoted_values_are_bounded(self, tmp_path, capsys):
        # Seven levels of nine-way aliases, whose repr runs to ~17 MB, and a
        # hex int past the 4 300-digit limit of str() print as their type;
        # short values are quoted whole, a list met inside itself as [...].
        levels = ["&l0 [" + ", ".join(["0"] * 9) + "]"]
        levels += [f"&l{i} [" + ", ".join([f"*l{i - 1}"] * 9) + "]" for i in range(1, 7)]
        integer, unsigned = "must be an integer", "must be an unsigned 64-bit integer"
        path = tmp_path / "quoted.yaml"
        for value, rule, shown in (
                ("[" + ", ".join(levels) + "]", integer, "<list too long to print>"),
                ("0x" + "f" * 5000, unsigned, "<int too long to print>"),
                ("[1, {b: 2, a: 3}]", integer, "[1, {'b': 2, 'a': 3}]"),
                ("&a [*a]", integer, "[[...]]"),
                ("x" * 198, integer, repr("x" * 198)),
                ("x" * 199, integer, "<str too long to print>")):
            path.write_text(f"mode: form\nseed: {value}\n")
            assert main(["form", "--config", str(path)]) == EXIT_CONFIG
            assert capsys.readouterr().err == f"ringform: config error: seed: {rule}, got {shown}\n"
        # the library's rules and the size rule quote a value the same way
        huge, too_long = "0x" + "f" * 5000, "<int too long to print>"
        for text, line in (
                (f"sigma: {huge}\ntopology: {{n_total: 7, vertex_set: [0, 2, 5]}}",
                 f"sigma: must be 1 or 2, got {too_long}"),
                (f"topology: {{n_total: 7, vertex_set: [0, 2, {huge}]}}",
                 "topology.vertex_set: vertex indices out of range [0, 7)"),
                (f"topology: {{n_total: {huge}, vertex_set: [0, 2, 5]}}",
                 f"topology.n_total: must be at most {np.iinfo(np.intp).max // 72}, past which "
                 f"numpy cannot index its arrays, got {too_long}")):
            path.write_text(f"mode: form\nr_star: {TRIANGLE['r_star']}\n{text}\n")
            assert main(["form", "--config", str(path)]) == EXIT_CONFIG
            assert capsys.readouterr().err == f"ringform: config error: {line}\n"
        path.write_text(f"mode: estimate\ntopology: {{n_total: 5}}\nstop_window: {huge}\n")
        assert main(["estimate", "--config", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == ("ringform: config error: max_steps: must exceed the "
                                           f"stop window of {too_long} steps, got 3000\n")

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
@example(with_value(TRIANGLE, "topology.n_total", 10 ** 400))  # past the float range
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
        cut = formation.FormationConfig.__post_init__

        def counted(config):
            cuts.append(config.n_total)
            cut(config)

        monkeypatch.setattr(formation.FormationConfig, "__post_init__", counted)
        path = write_config(tmp_path, dict(TRIANGLE, output_dir=str(tmp_path / "out")))
        assert main(["pipeline", "--config", str(path)]) == EXIT_OK
        assert len(cuts) == 1

    def test_manifest_contents(self, triangle_out):
        _, out = triangle_out
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["mode"] == "pipeline"
        assert manifest["seed"] == 42
        assert "wall_time_s" in manifest
        assert "estimate.csv" in manifest["outputs"]

    def test_manifest_seed_is_null_where_the_mode_reads_none(self, tmp_path):
        # A seed set on the parsed config, past the per-mode rule, is not echoed.
        cfg = load_config(CONFIGS / "spectral19.yaml", {"output_dir": str(tmp_path)})
        cfg.seed = 7
        assert execute(cfg) == EXIT_OK
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["seed"] is None
        assert "seed" not in manifest["config"]

    @pytest.mark.parametrize("config", sorted(CONFIGS.glob("*.yaml")),
                             ids=lambda path: path.stem)
    def test_resolved_config_round_trips(self, tmp_path, config):
        cfg = load_config(config)
        write_resolved_config(tmp_path, cfg)
        resolved = yaml.safe_load((tmp_path / "resolved_config.yaml").read_text())
        assert parse_config(resolved) == cfg
        # the echo holds exactly the fields the mode reads
        echoed = {f"{key}.{sub}" if isinstance(value, dict) else key
                  for key, value in resolved.items()
                  for sub in (value if isinstance(value, dict) else [None])}
        assert echoed == READS[cfg.mode]


class TestManifestFigures:
    """A formation that runs to its horizon leaves ``summarize``'s figures in
    the manifest; no other run does."""

    @pytest.mark.parametrize("mode,max_steps,code", [
        ("form", 600, EXIT_OK), ("form", 20, EXIT_NOT_CONVERGED), ("pipeline", 600, EXIT_OK),
        ("pipeline", 20, EXIT_NOT_CONVERGED)])
    def test_figures_are_the_summary_of_the_same_library_run(self, tmp_path, mode, max_steps,
                                                             code):
        raw = TRIANGLE if mode == "pipeline" else form_of(TRIANGLE)
        cfg = parse_config(dict(raw, output_dir=str(tmp_path), max_steps=max_steps))
        assert execute(cfg) == code
        config = cfg.formation_config
        if mode == "pipeline":
            trace = run_pipeline(**cfg.pipeline_arguments()).formation
        else:
            initial = seeded_placement(config.n_total, cfg.seed, cfg.initial_box)
            trace = run_formation(initial, config, max_steps)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["figures"] == json.loads(json.dumps(summarize(trace, config)))

    @pytest.mark.parametrize("mapping,code", [
        (BASES["estimate"], EXIT_OK),
        (BASES["sweep"], EXIT_OK),
        (BASES["spectral"], EXIT_OK),
        (FAR_RING, EXIT_DIVERGED),
        (form_of(FAR_RING), EXIT_DIVERGED),
        (dict(TRIANGLE, estimation=dict(TRIANGLE["estimation"], max_steps=52, stop_window=50)),
         EXIT_NOT_CONVERGED),
    ], ids=["estimate", "sweep", "spectral", "pipeline-diverges", "form-diverges",
            "phase1-fails"])
    def test_no_figures_without_a_finished_formation(self, tmp_path, mapping, code):
        assert execute(parse_config(dict(mapping, output_dir=str(tmp_path)))) == code
        assert "figures" not in json.loads((tmp_path / "manifest.json").read_text())


class TestDeterminism:
    def test_two_runs_byte_identical(self, tmp_path):
        out = tmp_path / "out"
        cfg = dict(TRIANGLE, output_dir=str(out), max_steps=200)
        path = write_config(tmp_path, cfg)
        names = ("estimate.csv", "trace.csv", "errors.csv", "resolved_config.yaml")
        snapshots = []
        for _ in range(2):
            code = main(["pipeline", "--config", str(path)])
            assert code == EXIT_OK
            snapshots.append({name: (out / name).read_bytes() for name in names})
        assert snapshots[0] == snapshots[1]

    def test_seed_override_changes_outputs(self, tmp_path):
        texts = []
        for seed in (1, 2):
            cfg = dict(TRIANGLE, output_dir=str(tmp_path / f"s{seed}"), max_steps=200)
            path = write_config(tmp_path, cfg, name=f"s{seed}.yaml")
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

    def test_estimate_divergence_exit(self, tmp_path, capsys):
        # Stable gains, placements in a 1e7 box: the step-64 position check
        # aborts the run with exit 3, and a readable partial estimate.csv
        # stays.  A lone chain is unnamed in the message.
        cfg = {
            "mode": "estimate", "seed": 0, "alpha": 0.5, "dt": 0.01,
            "strategy": "S1", "max_steps": 5000, "initial_box": 1.0e7,
            "output_dir": str(tmp_path / "out"),
            "topology": {"n_total": 11},
        }
        path = write_config(tmp_path, cfg)
        code = main(["estimate", "--config", str(path)])
        assert code == EXIT_DIVERGED
        assert capsys.readouterr().err.splitlines()[0] == (
            "ringform: chain positions diverged at step 64: max magnitude 7.123e+06 exceeds 1e+06")
        lines = (tmp_path / "out" / "estimate.csv").read_text().splitlines()
        assert lines[0].startswith("step,")
        assert len(lines) > 1
        # beta = 0.95: alpha*dt = 1.9 is past the S1 limit 1
        assert refused(tmp_path, capsys, dict(cfg, alpha=1.9, dt=1.0)) == (
            "alpha: alpha*dt = 1.9 (alpha 1.9, dt 1.0) must be below 1, the exact "
            "stability limit of the estimator chain of order 10")

    def test_floating_point_warnings_are_echoed_after_the_message(self, tmp_path, capsys):
        # alpha*dt = 0.75 is stable, but alpha alone overflows the first
        # step's velocities; both overflow warnings follow the message.
        path = write_config(tmp_path, {
            "mode": "estimate", "alpha": 1.0e155, "dt": 7.5e-156, "initial_box": 1.0,
            "output_dir": str(tmp_path / "out"), "topology": {"n_total": 5},
        })
        assert main(["estimate", "--config", str(path)]) == EXIT_DIVERGED
        assert capsys.readouterr().err == (
            "ringform: chain velocities diverged at step 1: max magnitude 1.195e+155 "
            "exceeds 1e+06\n"
            + "ringform: warning: overflow encountered in multiply\n" * 2)

    def test_pipeline_estimation_divergence_exit(self, tmp_path, capsys):
        # Placements in a 1e9 box blow the phase-1 chains up at step 64;
        # the three chains run as one batch, so each one's partial trace
        # lands in estimate.csv, all ending at the step before the
        # divergence, and formation never starts.
        cfg = dict(TRIANGLE, output_dir=str(tmp_path / "out"), initial_box=1.0e9)
        path = write_config(tmp_path, cfg)
        code = main(["pipeline", "--config", str(path)])
        assert code == EXIT_DIVERGED
        assert capsys.readouterr().err == (
            "ringform: chain positions of segment 1 diverged at step 64: "
            "max magnitude 3.096e+06 exceeds 1e+06\n")
        lines = (tmp_path / "out" / "estimate.csv").read_text().splitlines()
        assert lines[0] == "step,chain_id,ratio,estimate_raw,estimate_rounded,converged"
        rows = [tuple(map(int, line.split(",")[:2])) for line in lines[1:]]
        assert rows == [(step, chain) for step in range(1, 64) for chain in range(3)]
        assert not (tmp_path / "out" / "trace.csv").exists()
        unstable = dict(TRIANGLE, estimation={"alpha": 1.9, "dt": 1.0, "strategy": "S1"})
        assert refused(tmp_path, capsys, unstable).startswith("estimation: alpha*dt = 1.9 ")

    def test_pipeline_divergence_keeps_finished_chains(self, tmp_path, capsys):
        # Chain 0 (2 robots) converges at step 81; chain 1 (12 robots) then
        # fails the step-128 position check, from a 1e7 box.  Both chains'
        # rows must reach estimate.csv.  Chain 2 (3 robots) runs in the
        # same batch: it is partial at the divergence.
        cfg = dict(TRIANGLE, seed=1, output_dir=str(tmp_path / "out"), initial_box=1.0e7,
                   topology={"n_total": 17, "vertex_set": [0, 2, 14]},
                   estimation={"alpha": 0.2, "dt": 1.0, "strategy": "S1",
                               "max_steps": 3000, "stop_window": 10})
        path = write_config(tmp_path, cfg)
        code = main(["pipeline", "--config", str(path)])
        assert code == EXIT_DIVERGED
        assert capsys.readouterr().err.startswith(
            "ringform: chain positions of segment 1 diverged at step 128: ")
        lines = (tmp_path / "out" / "estimate.csv").read_text().splitlines()[1:]
        rows = [line.split(",") for line in lines]
        chain0 = [r for r in rows if r[1] == "0"]
        chain1 = [r for r in rows if r[1] == "1"]
        assert chain0[-1][5] == "true" and chain0[-1][4] == "2"
        assert [r[5] for r in chain0[:-1]] == ["false"] * (len(chain0) - 1)
        assert [int(r[0]) for r in chain1] == list(range(1, len(chain1) + 1))
        assert len(chain1) > len(chain0) == 81
        assert not (tmp_path / "out" / "trace.csv").exists()
        chain2 = [r for r in rows if r[1] == "2"]
        assert [int(r[0]) for r in chain1] == [int(r[0]) for r in chain2] == list(range(1, 128))
        assert "true" not in {r[5] for r in chain1 + chain2}
        assert len(rows) == len(chain0) + len(chain1) + len(chain2)
        # the same divergence through the API: every chain's trace as partial
        raw = dict(cfg, output_dir=str(tmp_path / "api"))
        with pytest.raises(DivergenceError) as diverged:
            formation.run_pipeline(**parse_config(raw).pipeline_arguments())
        partial = diverged.value.partial
        assert all(isinstance(trace, EstimateTrace) for trace in partial)
        assert [len(trace.steps) for trace in partial] == [len(chain0), 127, 127]
        assert [trace.steps_to_convergence for trace in partial] == [len(chain0), None, None]
        # S2 at alpha*dt = 0.3 is past the limit of the 5-robot chain of [0, 2, 7]
        assert refused(tmp_path, capsys, dict(
            cfg, topology={"n_total": 10, "vertex_set": [0, 2, 7]},
            estimation={"alpha": 0.3, "dt": 1.0, "strategy": "S2"})) == (
            "estimation: alpha*dt = 0.3 (alpha 0.3, dt 1.0) must be below 0.133975, the "
            "exact stability limit of the lagged_estimator chain of order 5")

    def test_pipeline_formation_divergence_keeps_estimates(self, tmp_path, capsys):
        # The ring diverges after phase 1 converged; a horizon cut before the
        # divergence leaves phase 1, and so estimate.csv, as it is.
        out, cut = tmp_path / "out", tmp_path / "cut"
        path = write_config(tmp_path, dict(FAR_RING, output_dir=str(out)))
        short = write_config(tmp_path, dict(FAR_RING, output_dir=str(cut), max_steps=30),
                             "cut.yaml")
        assert main(["pipeline", "--config", str(short)]) == EXIT_NOT_CONVERGED
        capsys.readouterr()
        code = main(["pipeline", "--config", str(path)])
        assert code == EXIT_DIVERGED
        assert capsys.readouterr().err == ("ringform: ring positions diverged at step 36: "
                                           "max magnitude 1.002e+06 exceeds 1e+06\n")
        assert (out / "estimate.csv").read_bytes() == (cut / "estimate.csv").read_bytes()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == ["resolved_config.yaml", "estimate.csv",
                                       "trace.csv", "errors.csv"]
        # the errors end at the last step before the divergence
        assert (out / "errors.csv").read_text().splitlines()[-1].startswith("35,")
        # sigma 2 at alpha 1.5: alpha*dt = 0.3 is past the ring's limit
        assert refused(tmp_path, capsys, dict(FAR_RING, alpha=1.5)) == (
            "alpha: alpha*dt = 0.3 (alpha 1.5, dt 0.2) must be below 0.133975, the exact "
            "stability limit of the lagged_formation chain of order 3")

    def test_form_divergence_matches_pipeline(self, tmp_path, capsys):
        # form mode starts the ring from the same seeded placement as
        # pipeline mode, so with the same (correctly estimated) chain sizes
        # its divergence leaves the same partial trace.csv and errors.csv.
        raw = FAR_RING
        pipeline = write_config(tmp_path, dict(raw, output_dir=str(tmp_path / "pipeline")),
                                "pipeline.yaml")
        form = write_config(tmp_path, form_of(raw, output_dir=str(tmp_path / "form")),
                            "form.yaml")
        assert main(["pipeline", "--config", str(pipeline)]) == EXIT_DIVERGED
        capsys.readouterr()
        code = main(["form", "--config", str(form)])
        assert code == EXIT_DIVERGED
        assert "ring positions diverged at step 36" in capsys.readouterr().err
        out = tmp_path / "form"
        for name in ("trace.csv", "errors.csv"):
            assert (out / name).read_bytes() == (tmp_path / "pipeline" / name).read_bytes()
        assert json.loads((out / "manifest.json").read_text())["outputs"] == \
            ["resolved_config.yaml", "trace.csv", "errors.csv"]
        assert (out / "errors.csv").read_text().splitlines()[-1].startswith("35,")
        assert refused(tmp_path, capsys, form_of(raw, alpha=1.5)).startswith(
            "alpha: alpha*dt = 0.3 ")
        # the step-0 rows are stream (seed, 0) of the documented placement
        rows = [line.split(",") for line in (out / "trace.csv").read_text().splitlines()[1:]
                if line.startswith("0,")]
        start = uniform_box(make_generator(raw["seed"], 0), 7, raw["initial_box"])
        assert [[float(r[3]), float(r[4])] for r in rows] == start.tolist()

    @pytest.mark.parametrize("extra,window", [({}, 460517014), ({"stop_window": 3000}, 3000)],
                             ids=["automatic", "given"])
    def test_stop_window_not_below_max_steps_is_config_error(self, tmp_path, capsys,
                                                             extra, window):
        # At alpha = 1e-6 the automatic S1 window, from the closed-form
        # roots of the modal blocks, is 460 517 014 steps, as a 50-digit
        # evaluation gives (LAPACK's radii, one and two ulps above, gave
        # 460 517 020 from the dense chain matrix and 460 517 025 from the
        # blocks); a window at or past max_steps (3000 by default) is
        # refused at once, naming the field that sets the limit.
        cfg = dict({"mode": "estimate", "alpha": 1.0e-6, "dt": 0.01, "strategy": "S1",
                    "output_dir": str(tmp_path / "out"), "topology": {"n_total": 5}},
                   **extra)
        code = main(["estimate", "--config", str(write_config(tmp_path, cfg))])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err == (f"ringform: config error: max_steps: must exceed the stop window of "
                       f"{window} steps, got 3000\n")
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "estimate.csv").exists()
        # a given window is checked with the config, an automatic one when the run sizes it
        assert (tmp_path / "out").exists() == (not extra)

    @pytest.mark.parametrize("phase1,path,limit", [({}, "max_steps", 600),
                                                   ({"max_steps": 700}, "estimation.max_steps", 700)])
    def test_pipeline_stop_window_names_the_limit_it_meets(self, tmp_path, capsys, phase1, path,
                                                           limit):
        estimation = {"alpha": 0.1, "dt": 1.0, "strategy": "S2", "stop_window": 700, **phase1}
        config = write_config(tmp_path, dict(TRIANGLE, estimation=estimation,
                                             output_dir=str(tmp_path / "out")))
        assert main(["pipeline", "--config", str(config)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (f"ringform: config error: {path}: must exceed the "
                                           f"stop window of 700 steps, got {limit}\n")
        assert not (tmp_path / "out").exists()  # the given window is checked with the config

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

    def test_sweep_past_physical_memory_is_refused_before_the_run(self, tmp_path, capsys,
                                                                  monkeypatch):
        monkeypatch.setattr(cli, "_physical_memory", lambda: 8 * 2 ** 30)
        sweep = {"mode": "sweep", "sweep": {"n_min": 5, "n_max": 6, "reps": 10 ** 9}}
        assert refused(tmp_path, capsys, sweep) == (
            "sweep: its lock-step batch needs 1.27e+04 GiB, more than the 8 GiB of "
            "physical memory")

    def test_sweep_scales_its_own_gains_at_any_dt(self, tmp_path, capsys):
        # No top-level alpha is read, so no top-level beta rule applies; the
        # sweep's gains are scaled to its chains' bound at dt = 4 too.
        out = tmp_path / "out"
        path = write_config(tmp_path, dict(BASES["sweep"], dt=4.0, output_dir=str(out)))
        assert main(["sweep", "--config", str(path)]) == EXIT_OK
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        assert [row.split(",")[-1] for row in rows] == ["true"] * 4

    @pytest.mark.parametrize("n_max,reps", [(6, 2 ** 32 + 1), (2 ** 30, 101)])
    def test_sweep_reps_past_the_stream_keys_are_refused(self, tmp_path, capsys, monkeypatch,
                                                         n_max, reps):
        # reps from 100 on take keys 2**63 + ((2n + strategy) << 32) + rep
        monkeypatch.setattr(cli, "_physical_memory", lambda: 2 ** 80)
        sweep = {"mode": "sweep", "sweep": {"n_min": n_max - 1, "n_max": n_max, "reps": reps}}
        assert refused(tmp_path, capsys, sweep).startswith("sweep.reps: must be at most 2**32")
        fewer = with_value(sweep, "sweep.reps", 100 if reps == 101 else 2 ** 32)
        if n_max < 2 ** 30:
            parse_config(fewer)
        else:  # the keys fit, but at order 2**30 - 1 the scaled gains round to 0
            with pytest.raises(ConfigError, match=r"^alpha: must be positive, got 0\.0$"):
                parse_config(fewer)

    def test_sweep_rule_refuses_only_past_physical_memory(self, monkeypatch):
        # 2 cells x 2 strategies x 3 reps, and orders 4 and 5 of the curves,
        # in buffers of n_max + 1 rows: the batch of sweep_and_curves.
        sweep = {"mode": "sweep", "sweep": {"n_min": 5, "n_max": 6, "reps": 3}}
        need = batch_bytes(7, 2 * 2 * 3 + 2 * 2)
        monkeypatch.setattr(cli, "_physical_memory", lambda: need)
        parse_config(sweep)
        monkeypatch.setattr(cli, "_physical_memory", lambda: need - 1)
        with pytest.raises(ConfigError, match=r"^sweep: its lock-step batch needs "):
            parse_config(sweep)

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

    @pytest.mark.parametrize("mode,size,mapping", [
        ("spectral", "n_prime", {"n_prime": 2 ** 60}),
        ("estimate", "topology.n_total", {"topology": {"n_total": 10 ** 19}}),
        ("form", "topology.n_total", {
            "topology": {"n_total": 10 ** 19, "vertex_set": [0, 1, 2]},
            "r_star": [[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]],
        }),
        ("sweep", "sweep.n_max", {"sweep": {"n_max": 2 ** 57}}),
    ], ids=["spectral", "estimate", "form", "sweep"])
    def test_size_past_numpy_index_range_is_refused_before_the_run(self, tmp_path, capsys,
                                                                   mode, size, mapping):
        # 72 bytes (a 3 x 3 float64 modal block) per unit of size past
        # intp's range: numpy could not even index the arrays, so the config
        # is refused before anything runs, with no output directory.
        out = tmp_path / "out"
        path = write_config(tmp_path, dict(mapping, mode=mode, output_dir=str(out)))
        code = main([mode, "--config", str(path)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith(f"ringform: config error: {size}: must be at most "
                              f"{np.iinfo(np.intp).max // 72}, ")
        assert "Traceback" not in err
        assert not out.exists()

    def test_stride_override(self, tmp_path):
        cfg = dict(TRIANGLE, output_dir=str(tmp_path / "out"), max_steps=100)
        path = write_config(tmp_path, cfg)
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


FORM = form_of(TRIANGLE)


def execute_form(out, **changes):
    """Run the triangle ``form`` config with ``changes`` into ``out``."""
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

    def test_a_failing_block_leaves_the_lines_before_it(self, tmp_path):
        def block():
            yield "1,2\n"
            raise RuntimeError("block failed")

        path = tmp_path / "cut.csv"
        with pytest.raises(RuntimeError, match="block failed") as caught:
            write_csv(path, ["a", "b"], [block()])
        # ``caught`` keeps the traceback, and the file in its frame, alive:
        # the lines are on disk because write_csv closed the file.
        assert path.read_text() == "a,b\n1,2\n"

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
                                                (1, {"alpha": 0.6, "sigma": 2,
                                                     "initial_box": 1.05e6})],
                             ids=["stride1", "stride7", "diverges"])
    def test_streamed_files_are_the_collected_trace_written_out(self, tmp_path, monkeypatch,
                                                                block, stride, changes):
        if block is not None:
            monkeypatch.setattr(formation, "BLOCK_STEPS", block)
        raw = form_of(yaml.safe_load((CONFIGS / "triangle.yaml").read_text()), stride=stride,
                      **changes)
        cfg = parse_config(dict(raw, output_dir=str(tmp_path)))
        config = cfg.formation_config
        initial = seeded_placement(config.n_total, cfg.seed, cfg.initial_box)
        code = execute(cfg)
        try:
            trace = run_formation(initial, config, cfg.max_steps, stride=stride)
        except DivergenceError as err:
            (trace,) = err.partial
        assert code == (EXIT_DIVERGED if changes else EXIT_OK)
        want_trace, want_errors = reference_formation_csvs(trace, cfg.dt)
        assert (tmp_path / "trace.csv").read_bytes() == want_trace.encode()
        assert (tmp_path / "errors.csv").read_bytes() == want_errors.encode()
