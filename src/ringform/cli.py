"""Config ingestion, run orchestration, and file export.

The only process entry point.  A run is described by a YAML mapping whose
keys are the paths in RunConfig's field table; every value is validated
before any simulation starts and the resolved config is echoed next to the
outputs together with a manifest, so a run can be reproduced from its
output directory alone.

Exit codes: 0 success, 2 config error, 3 divergence, 4 no convergence
within the horizon (or a failed estimation phase).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
import warnings
from contextlib import ExitStack, closing
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .core import DivergenceError, SwarmState
from .estimation import EstimateTrace, EstimatorConfig, run_estimation
from .formation import (
    FormationConfig,
    FormationTrace,
    PipelineEstimationError,
    run_formation,
    run_pipeline,
    seeded_placement,
)
from .harness import auto_stop_window, sweep_and_curves
from .spectral import STRATEGIES, EstimationParams, spectral_report
from .topology import CLOSURE_TOL, PolygonSpec, RingTopology, validate_polygon_closure

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_NOT_CONVERGED = 4

MODES = ("estimate", "form", "pipeline", "sweep", "spectral")


class ConfigError(ValueError):
    """Invalid or missing configuration; reported with its field path."""


# --- value parsers: raw YAML value -> typed value, ValueError if malformed --


def _int(value):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"must be an integer, got {value!r}")
    return value


def _float(value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"must be a number, got {value!r}")
    if not math.isfinite(float(value)):
        raise ValueError(f"must be finite, got {value!r}")
    return float(value)


def _str(value):
    if not isinstance(value, str):
        raise ValueError(f"must be a string, got {value!r}")
    return value


def _bool(value):
    if not isinstance(value, bool):
        raise ValueError(f"must be true or false, got {value!r}")
    return value


def _list(value):
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"must be a list, got {value!r}")
    return value


def _pair(value):
    if len(_list(value)) != 2:
        raise ValueError(f"must be a pair [x, y], got {value!r}")
    return (_float(value[0]), _float(value[1]))


def _ints(value):
    return tuple(_int(v) for v in _list(value))


def _pairs(value):
    return [list(_pair(row)) for row in _list(value)]


def _opt(path, parse, default=MISSING, check=None, rule=""):
    """One RunConfig field: YAML ``path``, parser, default and domain.

    A missing or null value takes the default; ``check`` (with ``rule`` as
    its message) constrains a given value.
    """
    return field(default=default, metadata={
        "path": path, "parse": parse, "check": check, "rule": rule,
    })


def _positive(x):
    return x > 0


@dataclass
class RunConfig:
    """One run; the field table below is the whole config schema.

    ``est_*`` fields are the phase-1 overrides; None means the top-level
    value applies (see ``phase1``).
    """

    mode: str = _opt("mode", _str, MISSING, lambda x: x in MODES, f"must be one of {MODES}")
    alpha: float = _opt("alpha", _float, 0.5, _positive, "must be positive")
    dt: float = _opt("dt", _float, 0.01, _positive, "must be positive")
    sigma: int = _opt("sigma", _int, 1, lambda x: x in (1, 2), "must be 1 or 2")
    strategy: str = _opt("strategy", _str, "S1", lambda x: x in STRATEGIES,
                         "must be 'S1' or 'S2'")
    seed: int = _opt("seed", _int, 0, lambda x: 0 <= x < 2 ** 64,
                     "must be an unsigned 64-bit integer")
    initial_box: float = _opt("initial_box", _float, 5.0, lambda x: x >= 0, "must be >= 0")
    output_dir: str = _opt("output_dir", _str, "out")
    stride: int = _opt("stride", _int, 1, lambda x: x >= 1, "must be >= 1")
    max_steps: int = _opt("max_steps", _int, 3000, lambda x: x >= 1, "must be >= 1")
    stop_window: int | None = _opt("stop_window", _int, None, lambda x: x >= 2, "must be >= 2")
    excitation: tuple[float, float] = _opt("excitation", _pair, (1.0, 0.0),
                                           lambda e: 0 < e[0] * e[0] + e[1] * e[1] < math.inf,
                                           "must have finite x*x + y*y > 0")
    n_total: int | None = _opt("topology.n_total", _int, None, lambda x: x >= 2, "must be >= 2")
    vertex_set: tuple[int, ...] | None = _opt("topology.vertex_set", _ints, None)
    r_star: list | None = _opt("r_star", _pairs, None)
    n_prime: int | None = _opt("n_prime", _int, None, lambda x: x >= 1, "must be >= 1")
    est_alpha: float | None = _opt("estimation.alpha", _float, None, _positive,
                                   "must be positive")
    est_dt: float | None = _opt("estimation.dt", _float, None, _positive, "must be positive")
    est_strategy: str | None = _opt("estimation.strategy", _str, None,
                                    lambda x: x in STRATEGIES, "must be 'S1' or 'S2'")
    est_max_steps: int | None = _opt("estimation.max_steps", _int, None, lambda x: x >= 1,
                                     "must be >= 1")
    est_stop_window: int | None = _opt("estimation.stop_window", _int, None,
                                       lambda x: x >= 2, "must be >= 2")
    closure_tolerance: float = _opt("tolerances.closure", _float, CLOSURE_TOL,
                                    lambda x: 0 <= x <= CLOSURE_TOL,
                                    f"must lie in [0, {CLOSURE_TOL}]")
    formation_tolerance: float = _opt("tolerances.formation_error", _float, 1e-2, _positive,
                                      "must be positive")
    sweep_n_min: int = _opt("sweep.n_min", _int, 5, lambda x: x >= 2, "must be >= 2")
    sweep_n_max: int = _opt("sweep.n_max", _int, 30, lambda x: x >= 2, "must be >= 2")
    sweep_reps: int = _opt("sweep.reps", _int, 5, lambda x: x >= 1, "must be >= 1")
    sweep_scale_per_n: bool = _opt("sweep.scale_per_n", _bool, False)

    @property
    def params(self) -> EstimationParams:
        return EstimationParams(alpha=self.alpha, dt=self.dt)

    def phase1(self, name: str):
        """Estimation-phase value of ``name``: ``estimation.<name>`` if set."""
        value = getattr(self, f"est_{name}")
        return getattr(self, name) if value is None else value

    def estimator_config(self, n_prime: int) -> EstimatorConfig:
        """Phase-1 settings; an unset stop window is sized for order ``n_prime``.

        The stop window must be below the phase-1 ``max_steps``; otherwise
        it is a ConfigError naming the window.
        """
        params = EstimationParams(alpha=self.phase1("alpha"), dt=self.phase1("dt"))
        strategy = self.phase1("strategy")
        window = self.phase1("stop_window")
        if window is None:
            window = auto_stop_window(n_prime, params, strategy)
        max_steps = self.phase1("max_steps")
        _require(window < max_steps, "estimation.max_steps",
                 f"must exceed the stop window of {window} steps, got {max_steps}")
        return EstimatorConfig(
            params=params, strategy=strategy, excitation_init=self.excitation,
            stop_window=window, max_steps=max_steps,
        )

    def polygon(self) -> tuple[RingTopology, PolygonSpec]:
        return (RingTopology(self.n_total),
                PolygonSpec(vertex_set=self.vertex_set, r_star=np.array(self.r_star)))

    def formation_config(self) -> FormationConfig:
        """The run's ring, polygon and formation law: the one ring cut."""
        ring, spec = self.polygon()
        return FormationConfig(ring=ring, spec=spec, params=self.params, sigma=self.sigma)

    def pipeline_arguments(self) -> dict:
        """Keyword arguments of ``run_pipeline`` for this (pipeline) config;
        the stop window is sized for the largest chain."""
        config = self.formation_config()
        return dict(
            config=config, est_config=self.estimator_config(max(config.n_s)),
            seed=self.seed, horizon=self.max_steps, initial_box=self.initial_box,
            error_tolerance=self.formation_tolerance, stride=self.stride,
        )


# Field table keyed by YAML path, e.g. ("topology", "n_total").
_FIELDS = {tuple(f.metadata["path"].split(".")): f for f in fields(RunConfig)}
_SECTIONS = {path[0] for path in _FIELDS if len(path) == 2}


def _require(condition, path, message):
    if not condition:
        raise ConfigError(f"{path}: {message}")


def _convert(f, raw):
    """Parse and domain-check one given value of field ``f``."""
    path = f.metadata["path"]
    try:
        value = f.metadata["parse"](raw)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    check = f.metadata["check"]
    _require(check is None or check(value), path, f"{f.metadata['rule']}, got {raw!r}")
    return value


def _flatten(raw: dict) -> dict:
    """Raw mapping as {path tuple: value}; unknown fields rejected.  A null
    section leaves every field of it at its default."""
    flat = {}
    for key, value in raw.items():
        if key in _SECTIONS:
            _require(isinstance(value, (dict, type(None))), key, "must be a mapping")
            flat.update(((key, sub), v) for sub, v in (value or {}).items())
        else:
            flat[(key,)] = value
    unknown = sorted(".".join(map(str, path)) for path in set(flat) - set(_FIELDS))
    _require(not unknown, "config", f"unknown fields {unknown}")
    return flat


def parse_config(raw: dict) -> RunConfig:
    """Validate a raw mapping into a RunConfig; unknown fields rejected."""
    _require(isinstance(raw, dict), "config", "root must be a mapping")
    flat = _flatten(raw)
    values = {}
    for path, f in _FIELDS.items():
        given = flat.get(path)
        _require(given is not None or f.default is not MISSING, f.metadata["path"],
                 "is required")
        values[f.name] = f.default if given is None else _convert(f, given)
    cfg = RunConfig(**values)
    _check_rules(cfg)
    return cfg


def _check_rules(cfg: RunConfig) -> None:
    """Rules that span fields: gains, sweep range, mode needs, polygon closure."""
    for path, alpha, dt in (("alpha", cfg.alpha, cfg.dt),
                            ("estimation", cfg.phase1("alpha"), cfg.phase1("dt"))):
        beta = alpha * dt / 2.0
        _require(0.0 < beta < 1.0, path,
                 f"beta = alpha*dt/2 = {beta:.6g} (alpha {alpha}, dt {dt}) "
                 "must lie in (0, 1)")
    _require(cfg.sweep_n_max >= cfg.sweep_n_min, "sweep.n_max", "must be >= sweep.n_min")
    if cfg.mode == "estimate":
        _require(cfg.n_total is not None, "topology.n_total",
                 "estimate mode needs a chain of >= 2 robots")
    elif cfg.mode in ("form", "pipeline"):
        _require(cfg.n_total is not None and cfg.n_total >= 3,
                 "topology.n_total", f"{cfg.mode} mode needs a ring of >= 3 robots")
        _require(cfg.vertex_set is not None, "topology.vertex_set",
                 f"{cfg.mode} mode needs the vertex robot indices")
        _require(cfg.r_star is not None, "r_star",
                 f"{cfg.mode} mode needs the desired displacements")
        try:
            _, spec = cfg.polygon()
        except ValueError as exc:
            raise ConfigError(f"topology: {exc}") from exc
        _require(spec.vertex_set[-1] < cfg.n_total, "topology.vertex_set",
                 f"vertex indices out of range [0, {cfg.n_total})")
        if not validate_polygon_closure(spec, cfg.closure_tolerance):
            residual = spec.r_star.sum(axis=0)
            raise ConfigError(
                f"r_star: polygon does not close; sum of displacements is "
                f"({residual[0]:.3e}, {residual[1]:.3e})"
            )
    elif cfg.mode == "spectral":
        _require(cfg.n_prime is not None, "n_prime",
                 "spectral mode needs the chain order n_prime")


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except (IsADirectoryError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    return parse_config(raw if raw is not None else {})


def _resolved_dict(cfg: RunConfig) -> dict:
    """Every field at its YAML path, defaults applied; re-parses to ``cfg``."""
    resolved = {}
    for path, f in _FIELDS.items():
        node = resolved
        for section in path[:-1]:
            node = node.setdefault(section, {})
        value = getattr(cfg, f.name)
        node[path[-1]] = list(value) if isinstance(value, tuple) else value
    return resolved


# --- output writers -------------------------------------------------------
#
# Each writer formats its rows with one f-string: floats as shortest
# round-trip ``repr`` of Python floats (NaN reads ``nan``), booleans as
# ``true``/``false``, integers in decimal.

_BOOL = {True: "true", False: "false"}


def write_csv(path: Path, header: list[str], blocks=()):
    """Create ``path`` with the header line and each of ``blocks``, and
    return the file, still open for more blocks until it is closed.

    A block is an iterable of LF-terminated lines; it is flushed as a
    whole (``_write_block``).  Decimal point, comma, LF.  Lines stream
    through the file buffer, which hands whole lines to the OS, so a cut
    file ends on a row boundary.
    """
    out = open(path, "w", newline="\n")
    try:
        out.write(",".join(header) + "\n")
        for block in blocks:
            _write_block(out, block)
    except BaseException:
        out.close()
        raise
    return out


def _write_block(out, lines) -> None:
    out.writelines(lines)
    out.flush()


def write_estimate_csv(path: Path, traces: list[EstimateTrace]) -> None:
    """One row per step per chain, ordered by step then chain id;
    ``converged`` is true only on the row where the stop rule fired."""
    def block(pos):
        for chain_id, t in enumerate(traces):
            if pos < len(t.steps):
                step = int(t.steps[pos])
                rounded = t.rounded[pos]
                yield (f"{step},{chain_id},{float(t.ratios[pos])!r},{float(t.raw[pos])!r},"
                       f"{'nan' if math.isnan(rounded) else int(rounded)},"
                       f"{_BOOL[step == t.steps_to_convergence]}\n")

    steps = max((len(t.steps) for t in traces), default=0)
    write_csv(path, ["step", "chain_id", "ratio", "estimate_raw", "estimate_rounded",
                     "converged"], (block(pos) for pos in range(steps))).close()


TRACE_HEADER = ["step", "time", "robot_id", "px", "py", "vx", "vy"]
ERRORS_HEADER = ["step", "time", "edge_id", "error"]


def write_trace_csv(out, state: SwarmState, dt: float) -> None:
    """Add one snapshot to the open ``trace.csv`` file ``out``: a row per
    robot, flushed together."""
    def rows():
        prefix = f"{state.step},{state.step * dt!r},"
        # One row at a time: a whole-state tolist() of a 12 000-robot ring
        # raises the run's peak RSS by ~3 MiB.
        for robot_id, (q, v) in enumerate(zip(state.positions, state.velocities)):
            px, py = q.tolist()
            vx, vy = v.tolist()
            yield f"{prefix}{robot_id},{px!r},{py!r},{vx!r},{vy!r}\n"

    _write_block(out, rows())


def write_errors_csv(out, steps: np.ndarray, errors: np.ndarray, dt: float) -> None:
    """Add a block of steps to the open ``errors.csv`` file ``out``: a row
    per step and edge, ``errors[i]`` at step ``steps[i]``, flushed once."""
    for step, row in zip(steps.tolist(), errors):
        prefix = f"{step},{step * dt!r},"
        out.writelines([f"{prefix}{edge_id},{e!r}\n" for edge_id, e in enumerate(row.tolist())])
    out.flush()


class _FormationFiles:
    """The CLI's formation sink: ``trace.csv`` and ``errors.csv``, open for
    the whole run and written as ``run_formation`` hands its output over."""

    def __init__(self, out_dir: Path, outputs: list[str], dt: float):
        self.dt = dt
        self.trace = write_csv(out_dir / "trace.csv", TRACE_HEADER)
        outputs.append("trace.csv")
        self.errors = write_csv(out_dir / "errors.csv", ERRORS_HEADER)
        outputs.append("errors.csv")

    def add_snapshot(self, state: SwarmState) -> None:
        write_trace_csv(self.trace, state, self.dt)

    def add_errors(self, steps: np.ndarray, errors: np.ndarray) -> None:
        write_errors_csv(self.errors, steps, errors, self.dt)

    def close(self) -> None:
        self.trace.close()
        self.errors.close()


def write_resolved_config(out_dir: Path, cfg: RunConfig) -> None:
    (out_dir / "resolved_config.yaml").write_text(
        yaml.safe_dump(_resolved_dict(cfg), sort_keys=True)
    )


def write_manifest(out_dir: Path, cfg: RunConfig, wall_time: float,
                   outputs: list[str]) -> None:
    manifest = {
        "package": "ringform",
        "version": __version__,
        "numpy_version": np.__version__,
        "python_version": sys.version.split()[0],
        "mode": cfg.mode,
        "seed": cfg.seed,
        "config": _resolved_dict(cfg),
        "outputs": outputs,
        "wall_time_s": wall_time,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def _write_estimates(out_dir: Path, outputs: list[str], traces) -> None:
    write_estimate_csv(out_dir / "estimate.csv", traces)
    outputs.append("estimate.csv")


def _diverged(err: DivergenceError, out_dir: Path, outputs: list[str]) -> int:
    """Write the estimate traces run before the divergence, then report.

    ``err.partial`` is one trace or a list of estimate traces that may end
    with the formation trace (``run_pipeline``).  A formation's output,
    with every estimate before it, is on disk already.
    """
    partial = err.partial if isinstance(err.partial, list) else [err.partial]
    estimates = [t for t in partial if isinstance(t, EstimateTrace)]
    if estimates and not isinstance(partial[-1], FormationTrace):
        _write_estimates(out_dir, outputs, estimates)
    print(f"ringform: {err}", file=sys.stderr)
    return EXIT_DIVERGED


# --- mode runners ---------------------------------------------------------


def _run_estimate(cfg: RunConfig, out_dir: Path, outputs: list[str]) -> int:
    n_prime = cfg.n_total - 1
    trace = run_estimation(
        n_prime, cfg.estimator_config(n_prime), seed=cfg.seed, initial_box=cfg.initial_box,
    )
    _write_estimates(out_dir, outputs, [trace])
    if not trace.converged:
        print("ringform: estimation did not converge within max_steps",
              file=sys.stderr)
        return EXIT_NOT_CONVERGED
    print(f"estimate: {trace.estimate} (true {n_prime}), "
          f"{trace.steps_to_convergence} steps")
    return EXIT_OK


def _run_form(cfg: RunConfig, out_dir: Path, outputs: list[str]) -> int:
    config = cfg.formation_config()
    initial = seeded_placement(config.ring, cfg.seed, cfg.initial_box)
    with closing(_FormationFiles(out_dir, outputs, cfg.dt)) as files:
        trace = run_formation(initial, config, cfg.max_steps, sink=files,
                              error_tolerance=cfg.formation_tolerance, stride=cfg.stride)
    final_error = float(trace.final_errors.max())
    print(f"formation: max edge error {final_error:.3e} after "
          f"{cfg.max_steps} steps (tolerance {cfg.formation_tolerance})")
    return EXIT_OK if trace.converged else EXIT_NOT_CONVERGED


def _run_pipeline(cfg: RunConfig, out_dir: Path, outputs: list[str]) -> int:
    with ExitStack() as files:
        def open_sink(traces):
            # estimate.csv is complete before the formation starts.
            _write_estimates(out_dir, outputs, traces)
            return files.enter_context(closing(_FormationFiles(out_dir, outputs, cfg.dt)))

        try:
            result = run_pipeline(**cfg.pipeline_arguments(), open_sink=open_sink)
        except PipelineEstimationError as err:
            _write_estimates(out_dir, outputs, err.traces)
            print(f"ringform: {err}", file=sys.stderr)
            return EXIT_NOT_CONVERGED
    final_error = float(result.formation.final_errors.max())
    print(f"pipeline: estimates {result.estimates}, final max edge error "
          f"{final_error:.3e}")
    return EXIT_OK if result.formation.converged else EXIT_NOT_CONVERGED


def _run_sweep(cfg: RunConfig, out_dir: Path, outputs: list[str]) -> int:
    sweep, curve = sweep_and_curves(
        (cfg.sweep_n_min, cfg.sweep_n_max), cfg.sweep_reps,
        dt=cfg.dt, scale_per_n=cfg.sweep_scale_per_n, seed=cfg.seed,
        initial_box=cfg.initial_box,
    )
    write_csv(
        out_dir / "sweep.csv",
        ["n", "strategy", "reps", "mean_steps", "all_correct"],
        [[f"{r.n},{r.strategy},{r.reps},{r.mean_steps!r},{_BOOL[r.all_correct]}\n"
          for r in sweep.rows]],
    ).close()
    outputs.append("sweep.csv")
    write_csv(
        out_dir / "sensitivity.csv",
        ["n_prime", "ratio_s1_closed", "ratio_s2_closed", "ratio_s1_sim",
         "ratio_s2_sim"],
        [[f"{r.n_prime},{r.ratio_s1_closed!r},{r.ratio_s2_closed!r},{r.ratio_s1_sim!r},"
          f"{r.ratio_s2_sim!r}\n" for r in curve.rows]],
    ).close()
    outputs.append("sensitivity.csv")
    bad = [r for r in sweep.rows if not r.all_correct]
    if bad:
        cells = ", ".join(f"n={r.n} {r.strategy}" for r in bad)
        print(f"ringform: incorrect estimates in cells: {cells}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    print(f"sweep: {len(sweep.rows)} cells, all estimates exact; "
          f"more sensitive readout: {curve.more_sensitive}")
    return EXIT_OK


def _run_spectral(cfg: RunConfig, out_dir: Path, outputs: list[str]) -> int:
    report = spectral_report(cfg.n_prime, cfg.params)
    (out_dir / "spectral.json").write_text(json.dumps(report, indent=2) + "\n")
    outputs.append("spectral.json")
    print(json.dumps(report, indent=2))
    return EXIT_OK


def execute(cfg: RunConfig) -> int:
    """Run one validated config; writes outputs plus a manifest.

    A divergence writes the partial traces and exits 3; a config error
    found only when the run starts (the stop window, or a size whose
    arrays cannot be allocated) exits 2.
    """
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_resolved_config(out_dir, cfg)
    outputs = ["resolved_config.yaml"]
    started = time.perf_counter()
    # Each mode's runner and the field that sizes its arrays.
    runner, size_field = {
        "estimate": (_run_estimate, "topology.n_total"),
        "form": (_run_form, "topology.n_total"),
        "pipeline": (_run_pipeline, "topology.n_total"),
        "sweep": (_run_sweep, "sweep.n_max"),
        "spectral": (_run_spectral, "n_prime"),
    }[cfg.mode]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = runner(cfg, out_dir, outputs)
        except DivergenceError as err:
            code = _diverged(err, out_dir, outputs)
        except ConfigError as exc:
            print(f"ringform: config error: {exc}", file=sys.stderr)
            code = EXIT_CONFIG
        except MemoryError as exc:
            print(f"ringform: config error: {size_field}: too large to allocate: "
                  f"{str(exc) or 'out of memory'}", file=sys.stderr)
            code = EXIT_CONFIG
    for entry in caught:
        print(f"ringform: warning: {entry.message}", file=sys.stderr)
    write_manifest(out_dir, cfg, time.perf_counter() - started, outputs)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ringform",
        description="Ring-swarm estimation and polygon formation simulator",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        p = sub.add_parser(mode)
        p.add_argument("--config", required=True, help="YAML run configuration")
        p.add_argument("--seed", type=int, default=None, help="override seed")
        p.add_argument("--out", default=None, help="override output directory")
        p.add_argument("--stride", type=int, default=None,
                       help="override trace decimation stride")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if cfg.mode != args.mode:
            raise ConfigError(
                f"mode: config says {cfg.mode!r} but subcommand is {args.mode!r}"
            )
        overrides = {"seed": args.seed, "output_dir": args.out, "stride": args.stride}
        for name, value in overrides.items():
            if value is not None:
                setattr(cfg, name, _convert(_FIELDS[(name,)], value))
    except ConfigError as exc:
        print(f"ringform: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    return execute(cfg)


if __name__ == "__main__":
    sys.exit(main())
