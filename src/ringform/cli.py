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
import os
import sys
import time
import warnings
from contextlib import ExitStack, closing, contextmanager
from dataclasses import MISSING, dataclass, field, fields
from functools import cached_property, partial
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .core import DivergenceError, ParameterError, SwarmState, quoted
from .estimation import EstimateTrace, EstimatorConfig, run_estimation
from .formation import (FORMATION_TOL, FormationConfig, PipelineEstimationError, run_formation,
                        run_pipeline, seeded_placement)
from .harness import (auto_stop_window, scaled_params, sweep_and_curves, sweep_batch_bytes,
                      sweep_keys_fit)
from .spectral import (ESTIMATOR_KIND, EstimationParams, _require_strategy, spectral_report,
                       stability_limit)

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
        raise ValueError(f"must be an integer, got {quoted(value)}")
    return value


def _yaml_exponent(value) -> bool:
    """Whether ``value`` is text that a finite float spells in exponent form:
    YAML 1.1 reads ``1e-3`` and ``1.0e3`` as strings, ``1.0e-3`` as a float."""
    try:
        return isinstance(value, str) and "e" in value.lower() and math.isfinite(float(value))
    except ValueError:
        return False


def _float(value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        hint = (" (YAML reads an exponent without a decimal point and sign as text: "
                "write 1.0e-3)") if _yaml_exponent(value) else ""
        raise ValueError(f"must be a number, got {quoted(value)}{hint}")
    if not math.isfinite(float(value)):
        raise ValueError(f"must be finite, got {quoted(value)}")
    return float(value)


def _str(value):
    if not isinstance(value, str):
        raise ValueError(f"must be a string, got {quoted(value)}")
    return value


def _bool(value):
    if not isinstance(value, bool):
        raise ValueError(f"must be true or false, got {quoted(value)}")
    return value


def _list(value):
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"must be a list, got {quoted(value)}")
    return value


def _pair(value):
    if len(_list(value)) != 2:
        raise ValueError(f"must be a pair [x, y], got {quoted(value)}")
    return (_float(value[0]), _float(value[1]))


def _ints(value):
    return tuple(_int(v) for v in _list(value))


def _pairs(value):
    return [list(_pair(row)) for row in _list(value)]


def _opt(path, modes, parse, default=MISSING, check=None, rule=""):
    """One RunConfig field: YAML ``path``, the ``modes`` that read it, parser,
    default and domain.  A missing or null value takes the default; a field
    without one is required.  ``check`` (with ``rule`` as its message)
    constrains a given value.  In other modes the field is None, and refused.
    """
    return field(default=default, metadata={
        "path": path, "modes": modes, "parse": parse, "check": check, "rule": rule,
    })


def _at_least(bound):
    return (lambda x: x >= bound), f"must be >= {bound}"


# Modes that place robots from the seed, step a chain or ring, form a ring.
_PLACED = ("estimate", "form", "pipeline", "sweep")
_STEPPED = ("estimate", "form", "pipeline")
_RING = ("form", "pipeline")


@dataclass(kw_only=True)
class RunConfig:
    """One run; the field table below is the whole config schema.

    ``est_*`` fields are a pipeline's phase 1: its only names for the
    strategy and stop window, and, where not None, its own gains and step
    cap in place of the ring's (see ``phase1``).
    """

    mode: str = _opt("mode", MODES, _str, MISSING, lambda x: x in MODES, f"must be one of {MODES}")
    alpha: float = _opt("alpha", (*_STEPPED, "spectral"), _float, 0.5)
    dt: float = _opt("dt", MODES, _float, 0.01)
    sigma: int = _opt("sigma", _RING, _int, 1)
    strategy: str = _opt("strategy", ("estimate",), _str, "S1")
    seed: int = _opt("seed", _PLACED, _int, 0, lambda x: 0 <= x < 2 ** 64,
                     "must be an unsigned 64-bit integer")
    initial_box: float = _opt("initial_box", _PLACED, _float, 5.0, *_at_least(0))
    output_dir: str = _opt("output_dir", MODES, _str, "out")
    stride: int = _opt("stride", _RING, _int, 1, *_at_least(1))
    max_steps: int = _opt("max_steps", _STEPPED, _int, 3000, *_at_least(1))
    stop_window: int | None = _opt("stop_window", ("estimate",), _int, None)
    n_total: int = _opt("topology.n_total", _STEPPED, _int, MISSING, *_at_least(2))
    vertex_set: tuple[int, ...] = _opt("topology.vertex_set", _RING, _ints)
    r_star: list = _opt("r_star", _RING, _pairs)
    n_prime: int = _opt("n_prime", ("spectral",), _int, MISSING, *_at_least(1))
    est_alpha: float | None = _opt("estimation.alpha", ("pipeline",), _float, None)
    est_dt: float | None = _opt("estimation.dt", ("pipeline",), _float, None)
    est_strategy: str = _opt("estimation.strategy", ("pipeline",), _str, "S1")
    est_max_steps: int | None = _opt("estimation.max_steps", ("pipeline",), _int, None,
                                     *_at_least(1))
    est_stop_window: int | None = _opt("estimation.stop_window", ("pipeline",), _int, None)
    sweep_n_min: int = _opt("sweep.n_min", ("sweep",), _int, 5, *_at_least(2))
    sweep_n_max: int = _opt("sweep.n_max", ("sweep",), _int, 30, *_at_least(2))
    sweep_reps: int = _opt("sweep.reps", ("sweep",), _int, 5, *_at_least(1))
    sweep_scale_per_n: bool = _opt("sweep.scale_per_n", ("sweep",), _bool, False)

    @contextmanager
    def _named(self, phase1: bool = False):
        """Around building library objects: a ``ParameterError`` becomes the ConfigError
        of the field that sets the parameter (with ``phase1``, the one phase 1 reads)."""
        try:
            yield
        except ParameterError as exc:
            name = self._phase1_field(exc.name) if phase1 else exc.name
            path = self.__dataclass_fields__[name].metadata["path"]
            raise ConfigError(f"{path}: {exc.rule}") from exc

    def _phase1_field(self, name: str) -> str:
        """The field phase 1 reads ``name`` from: ``est_<name>`` if not None, else ``name``."""
        return f"est_{name}" if getattr(self, f"est_{name}", None) is not None else name

    def phase1(self, name: str):
        """Estimation-phase value of ``name`` (see ``_phase1_field``)."""
        return getattr(self, self._phase1_field(name))

    def _gains(self, phase1: bool = False) -> EstimationParams:
        """The ring's gains, or spectral mode's; with ``phase1``, phase 1's."""
        with self._named(phase1):
            get = self.phase1 if phase1 else partial(getattr, self)
            return EstimationParams(alpha=get("alpha"), dt=get("dt"))

    def estimator_config(self, n_prime: int) -> EstimatorConfig:
        """Phase-1 settings; an unset stop window is sized for order ``n_prime``."""
        strategy, window = self.phase1("strategy"), self.phase1("stop_window")
        params = self._gains(phase1=True)
        if window is None:
            window = auto_stop_window(n_prime, params, strategy)
        with self._named(phase1=True):
            return EstimatorConfig(params=params, strategy=strategy, stop_window=window,
                                   max_steps=self.phase1("max_steps"))

    @cached_property
    def formation_config(self) -> FormationConfig:
        """The run's ring, polygon and formation law: the one ring cut, kept."""
        with self._named():
            return FormationConfig(self.n_total, self.vertex_set, self.r_star, self._gains(),
                                   self.sigma)

    def pipeline_arguments(self) -> dict:
        """Keyword arguments of ``run_pipeline`` for this (pipeline) config;
        the stop window is sized for the largest chain."""
        config = self.formation_config
        return dict(
            config=config, est_config=self.estimator_config(max(config.n_s)),
            seed=self.seed, horizon=self.max_steps, initial_box=self.initial_box,
            stride=self.stride,
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
    _require(check is None or check(value), path, f"{f.metadata['rule']}, got {quoted(raw)}")
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
    """Validate a raw mapping into a RunConfig; unknown fields, and fields
    the mode does not read, rejected."""
    _require(isinstance(raw, dict), "config", "root must be a mapping")
    flat = _flatten(raw)
    values = {}
    for key, f in _FIELDS.items():  # ``mode`` first: it decides which fields are read
        given, path, mode = flat.get(key), f.metadata["path"], values.get("mode")
        if values and mode not in f.metadata["modes"]:
            _require(given is None, path, f"is not read in {mode} mode")
            values[f.name] = None
        else:
            _require(given is not None or f.default is not MISSING, path, "is required")
            values[f.name] = f.default if given is None else _convert(f, given)
    cfg = RunConfig(**values)
    _check_rules(cfg)
    return cfg


# Largest size field: a run's largest array per unit of size is a 3 x 3
# float64 modal block, 72 bytes, and numpy indexes at most intp's range.
_MAX_SIZE = np.iinfo(np.intp).max // 72


def _physical_memory() -> int:
    """Bytes of physical memory, the sweep rule's ceiling."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _require_stable(path: str, alpha: float, dt: float, chains) -> None:
    """ConfigError at ``path`` unless every ``(order, kind)`` chain is Schur."""
    limit, order, kind = min((stability_limit(*chain), *chain) for chain in chains)
    _require(alpha * dt < limit, path,
             f"alpha*dt = {alpha * dt:.6g} (alpha {alpha}, dt {dt}) must be below "
             f"{limit:.6g}, the exact stability limit of the {kind} chain of order {order}")


def _check_rules(cfg: RunConfig) -> None:
    """Rules that span fields, in the modes that read them: sizes, the library's parameter
    rules (met by building what the run builds), stability, the sweep's range and memory."""
    for path, size in (("topology.n_total", cfg.n_total), ("n_prime", cfg.n_prime),
                       ("sweep.n_max", cfg.sweep_n_max)):
        _require(size is None or size <= _MAX_SIZE, path,
                 f"must be at most {_MAX_SIZE}, past which numpy cannot index its "
                 f"arrays, got {quoted(size)}")
    if cfg.mode == "spectral":
        cfg._gains()
    elif cfg.mode == "sweep":
        _require(cfg.sweep_n_max >= cfg.sweep_n_min, "sweep.n_max", "must be >= sweep.n_min")
        _require(sweep_keys_fit(cfg.sweep_n_max, cfg.sweep_reps), "sweep.reps", "must be at "
                 "most 2**32, and at most 100 from sweep.n_max = 2**30 on: the stream keys' range")
        need = sweep_batch_bytes((cfg.sweep_n_min, cfg.sweep_n_max), cfg.sweep_reps)
        have = _physical_memory()
        _require(need <= have, "sweep", f"its lock-step batch needs {need / 2**30:.3g} GiB, "
                 f"more than the {have / 2**30:.3g} GiB of physical memory")
        with cfg._named():  # its gains at its largest order, the smallest it scales
            scaled_params(cfg.sweep_n_max - 1, cfg.dt)
    else:
        ring = None if cfg.mode == "estimate" else cfg.formation_config
        if cfg.mode != "form":  # phase 1, on the ring's chains in a pipeline
            order = cfg.n_total - 1 if ring is None else max(ring.n_s)
            params, strategy = cfg._gains(phase1=True), cfg.phase1("strategy")
            with cfg._named(phase1=True):
                _require_strategy(strategy)
            if cfg.phase1("stop_window") is not None:
                cfg.estimator_config(order)
            _require_stable("estimation" if cfg.est_alpha or cfg.est_dt else "alpha",
                            params.alpha, params.dt, [(order, ESTIMATOR_KIND[strategy])])
        if ring is not None:
            _require_stable("alpha", cfg.alpha, cfg.dt, ring.chains())


def load_config(path: str | Path, overrides: dict | None = None) -> RunConfig:
    """Parse the YAML file at ``path``; ``overrides`` replace its top-level
    fields before the config is checked, so no RunConfig changes after."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    try:
        # A deep value recurses; an int of over 4 300 digits or a date such
        # as 2001-13-01 raises ValueError while the YAML loads.
        raw = yaml.safe_load(text)
    except (yaml.YAMLError, RecursionError, ValueError) as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    raw = {} if raw is None else raw
    return parse_config({**raw, **overrides} if overrides and isinstance(raw, dict) else raw)


def _resolved_dict(cfg: RunConfig) -> dict:
    """Every field the mode reads at its YAML path, defaults applied;
    re-parses to ``cfg``."""
    resolved = {}
    for path, f in _FIELDS.items():
        if cfg.mode not in f.metadata["modes"]:
            continue
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
        try:
            self.errors = write_csv(out_dir / "errors.csv", ERRORS_HEADER)
        except OSError:
            self.trace.close()
            raise
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
    """``manifest.json``: versions, the mode's resolved fields and the files
    written; ``seed`` is null in a mode that reads none."""
    config = _resolved_dict(cfg)
    manifest = {
        "package": "ringform",
        "version": __version__,
        "numpy_version": np.__version__,
        "python_version": sys.version.split()[0],
        "mode": cfg.mode,
        "seed": config.get("seed"),
        "config": config,
        "outputs": outputs,
        "wall_time_s": wall_time,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def _write_estimates(out_dir: Path, outputs: list[str], traces) -> None:
    write_estimate_csv(out_dir / "estimate.csv", traces)
    outputs.append("estimate.csv")


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
    config = cfg.formation_config
    initial = seeded_placement(config.n_total, cfg.seed, cfg.initial_box)
    with closing(_FormationFiles(out_dir, outputs, cfg.dt)) as files:
        trace = run_formation(initial, config, cfg.max_steps, sink=files, stride=cfg.stride)
    final_error = float(trace.final_errors.max())
    print(f"formation: max edge error {final_error:.3e} after "
          f"{cfg.max_steps} steps (tolerance {FORMATION_TOL})")
    return EXIT_OK if trace.converged else EXIT_NOT_CONVERGED


def _run_pipeline(cfg: RunConfig, out_dir: Path, outputs: list[str]) -> int:
    with ExitStack() as files:
        def open_sink(traces):
            # estimate.csv is complete before the formation starts.
            _write_estimates(out_dir, outputs, traces)
            return files.enter_context(closing(_FormationFiles(out_dir, outputs, cfg.dt)))

        result = run_pipeline(**cfg.pipeline_arguments(), open_sink=open_sink)
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
    report = spectral_report(cfg.n_prime, cfg._gains())
    (out_dir / "spectral.json").write_text(json.dumps(report, indent=2) + "\n")
    outputs.append("spectral.json")
    print(json.dumps(report, indent=2))
    return EXIT_OK


def _output_error(verb: str, path, exc: Exception) -> int:
    """Report an output directory or file that could not be made or written
    as a config error of ``output_dir``."""
    print(f"ringform: config error: output_dir: cannot {verb} {quoted(path)}: "
          f"{getattr(exc, 'strerror', None) or exc}", file=sys.stderr)
    return EXIT_CONFIG


def execute(cfg: RunConfig) -> int:
    """Run one validated config; writes outputs plus a manifest.

    A run that stops early writes the estimate traces in its error's
    ``partial`` list, unless ``estimate.csv`` is written already, and
    exits 3 on a divergence or 4 on a failed estimation phase.  A config
    error found only when the run starts exits 2: an output directory that
    cannot be made, an output file that cannot be written, an automatic
    stop window, or a size whose arrays cannot be allocated.  Files written
    before a failed write stay, and the manifest lists them.
    """
    out_dir = Path(cfg.output_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:  # a file in the way, or a name the OS refuses
        return _output_error("create", cfg.output_dir, exc)
    outputs = []
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
            write_resolved_config(out_dir, cfg)
            outputs.append("resolved_config.yaml")
            try:
                code = runner(cfg, out_dir, outputs)
            except (DivergenceError, PipelineEstimationError) as err:
                print(f"ringform: {err}", file=sys.stderr)
                code = EXIT_DIVERGED if isinstance(err, DivergenceError) else EXIT_NOT_CONVERGED
                estimates = [t for t in err.partial if isinstance(t, EstimateTrace)]
                if estimates and "estimate.csv" not in outputs:
                    _write_estimates(out_dir, outputs, estimates)
        except ConfigError as exc:
            print(f"ringform: config error: {exc}", file=sys.stderr)
            code = EXIT_CONFIG
        except MemoryError as exc:
            print(f"ringform: config error: {size_field}: too large to allocate: "
                  f"{str(exc) or 'out of memory'}", file=sys.stderr)
            code = EXIT_CONFIG
        except OSError as exc:  # a write to an open file names no file
            code = _output_error("write", exc.filename or cfg.output_dir, exc)
    for entry in caught:
        print(f"ringform: warning: {entry.message}", file=sys.stderr)
    try:
        write_manifest(out_dir, cfg, time.perf_counter() - started, outputs)
    except OSError as exc:
        code = _output_error("write", exc.filename or cfg.output_dir, exc)
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
    overrides = {"seed": args.seed, "output_dir": args.out, "stride": args.stride}

    try:
        cfg = load_config(args.config, {k: v for k, v in overrides.items() if v is not None})
        _require(cfg.mode == args.mode, "mode",
                 f"config says {cfg.mode!r} but subcommand is {args.mode!r}")
    except ConfigError as exc:
        print(f"ringform: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    return execute(cfg)


if __name__ == "__main__":
    sys.exit(main())
