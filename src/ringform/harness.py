"""Experiment suite: convergence sweeps, sensitivity curves, and the
scenario report of a pipeline config (the reference scenarios are the
hexagon and triangle configs shipped in ``configs/``).

Every run here is reproducible bit for bit from (config, seed): placements
come from keyed counter-based streams and cells run in key order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import SwarmState, make_generator, uniform_box
from .estimation import (
    EstimatorConfig,
    estimate_and_settle,
    estimate_chains,
    run_estimation,
    steady_velocity_ratios,
)
from .formation import (
    FormationConfig,
    PipelineResult,
    predicted_equilibrium,
    run_pipeline,
)
from .spectral import (
    EstimationParams,
    chain_modes,
    decay_seconds,
    spectral_radius,
    stability_bound,
    steady_ratio_closed,
)

# alpha*dt of the scaled gains, as a fraction of the tighter sufficient bound.
_SAFETY = 0.9
# Smallest automatic stop window.
_MIN_WINDOW = 50
# A sweep chain's default step limit.
_MAX_STEPS = 60000


def scaled_params(n_prime: int, dt: float = 0.01) -> EstimationParams:
    """Gains with alpha*dt at ``_SAFETY`` times the tighter sufficient bound."""
    target = _SAFETY * min(stability_bound(n_prime, "S1"), stability_bound(n_prime, "S2"))
    return EstimationParams(alpha=target / dt, dt=dt)


def auto_stop_window(n_prime: int, params: EstimationParams, strategy: str) -> int:
    """Stop window scaled to the decay time of the chain's modal blocks."""
    rho = spectral_radius(chain_modes(
        n_prime, params, "estimator" if strategy == "S1" else "lagged_estimator"))
    # The window must out-span the time the raw readout needs to drift across
    # one unit near the end of the transient, otherwise a slowly settling run
    # can freeze one integer too early.  ln(100) of decay per window keeps a
    # comfortable margin at every tested order; at dt = 1 the decay time
    # counts steps.
    steps = decay_seconds(rho, 1.0)
    return _MIN_WINDOW if steps is None else max(_MIN_WINDOW, math.ceil(steps))


@dataclass(frozen=True)
class SweepRow:
    n: int
    strategy: str
    reps: int
    mean_steps: float
    all_correct: bool


@dataclass
class SweepResult:
    rows: list[SweepRow]


def _sweep_chains(n_range, reps, dt, scale_per_n, seed, initial_box, max_steps):
    """``sweep_convergence``'s chains and the function of their outcomes that is its result."""
    if reps < 1:
        raise ValueError("reps must be >= 1")
    n_lo, n_hi = n_range
    if n_lo < 2 or n_hi < n_lo:
        raise ValueError(f"bad n_range {n_range}; chains need n >= 2")

    cells, starts, configs, names = [], [], [], []
    for n in range(n_lo, n_hi + 1):
        n_prime = n - 1
        for strat_idx, strategy in enumerate(("S1", "S2")):
            p = scaled_params(n_prime if scale_per_n else n_hi - 1, dt)
            window = auto_stop_window(n_prime, p, strategy)
            config = EstimatorConfig(
                params=p, strategy=strategy, stop_window=window,
                max_steps=max(max_steps, window + 1),
            )
            cells.append((n, strategy, config))
            for rep in range(reps):
                rng = make_generator(seed, n * 1000 + strat_idx * 100 + rep)
                starts.append(uniform_box(rng, n_prime, initial_box))
                configs.append(config)
                names.append(f"sweep cell n={n} {strategy} rep {rep}")

    def result(outcomes):
        rows = []
        for i, (n, strategy, config) in enumerate(cells):
            cell = outcomes[i * reps:(i + 1) * reps]
            steps = [stop or config.max_steps for _, stop in cell]
            rows.append(SweepRow(n=n, strategy=strategy, reps=reps,
                                 mean_steps=float(np.mean(steps)),
                                 all_correct=all(estimate == n - 1 for estimate, _ in cell)))
        return SweepResult(rows=rows)

    return starts, configs, names, result


def sweep_convergence(
    n_range: tuple[int, int] = (5, 30),
    reps: int = 5,
    *,
    dt: float = 0.01,
    scale_per_n: bool = False,
    seed: int = 0,
    initial_box: float = 5.0,
    max_steps: int = _MAX_STEPS,
) -> SweepResult:
    """Mean steps to convergence over chains of ``n`` robots, both strategies.

    ``n`` counts the whole chain including its still anchor, so the
    estimated integer is n - 1.  alpha*dt is scaled to 0.9 of the tighter
    bound, either at the largest n (default) or per cell
    (``scale_per_n``).  Rows come in (n, strategy) order.  Each repetition
    draws its placement from the stream keyed
    (seed, n*1000 + strategy*100 + rep), so any subset of cells can be
    reproduced in isolation.  Every chain runs at least one step past its
    stop window; a chain that does not converge counts the steps it ran,
    ``max(max_steps, window + 1)``.
    """
    starts, configs, names, result = _sweep_chains(
        n_range, reps, dt, scale_per_n, seed, initial_box, max_steps)
    return result(estimate_chains(starts, configs, names))


@dataclass(frozen=True)
class SensitivityRow:
    n_prime: int
    beta: float
    ratio_s1_closed: float
    ratio_s2_closed: float
    ratio_s1_sim: float
    ratio_s2_sim: float


@dataclass
class SensitivityCurve:
    rows: list[SensitivityRow]
    total_variation_s1: float
    total_variation_s2: float
    more_sensitive: str


def _sensitivity_chains(n_range, beta, dt):
    """``sensitivity_curves``' chains and the function of their ratios that is its result."""
    lo, hi = n_range
    if lo < 1 or hi < lo:
        raise ValueError(f"bad n_prime range {n_range}")
    orders, params, configs = [], [], []
    for n_prime in range(lo, hi + 1):
        if beta is None:
            p = scaled_params(n_prime, dt)
        else:
            p = EstimationParams(alpha=2.0 * beta / dt, dt=dt)
        params.append(p)
        for strategy in ("S1", "S2"):
            orders.append(n_prime)
            configs.append(EstimatorConfig(params=p, strategy=strategy))

    def result(sims):
        rows = [
            SensitivityRow(
                n_prime=n_prime,
                beta=p.beta,
                ratio_s1_closed=steady_ratio_closed(n_prime, p.beta, "S1"),
                ratio_s2_closed=steady_ratio_closed(n_prime, p.beta, "S2"),
                ratio_s1_sim=sims[2 * i],
                ratio_s2_sim=sims[2 * i + 1],
            )
            for i, (n_prime, p) in enumerate(zip(range(lo, hi + 1), params))
        ]
        tv1 = float(sum(abs(b.ratio_s1_closed - a.ratio_s1_closed) for a, b in zip(rows, rows[1:])))
        tv2 = float(sum(abs(b.ratio_s2_closed - a.ratio_s2_closed) for a, b in zip(rows, rows[1:])))
        return SensitivityCurve(
            rows=rows,
            total_variation_s1=tv1,
            total_variation_s2=tv2,
            more_sensitive="S1" if tv1 > tv2 else "S2",
        )

    return orders, configs, result


def sensitivity_curves(
    n_range: tuple[int, int] = (5, 30),
    beta: float | None = None,
    *,
    dt: float = 0.01,
) -> SensitivityCurve:
    """Closed-form and simulated steady ratios over a range of chain orders.

    ``n_range`` spans the chain order n' directly.  A fixed ``beta`` pins
    alpha*dt = 2*beta for every row (matching a single-parameter reading of
    the curves); by default each row is scaled to 0.9 of the tighter bound
    so the simulated chain is provably stable at every order.  The curve
    with the larger total variation is reported as the more sensitive one.
    """
    orders, configs, result = _sensitivity_chains(n_range, beta, dt)
    return result(steady_velocity_ratios(orders, configs))


def sweep_and_curves(n_range, reps, *, dt, scale_per_n, seed, initial_box):
    """``sweep_convergence`` over ``n_range`` and the scaled
    ``sensitivity_curves`` over the chain orders it spans, from
    ``max(n_lo - 1, 1)`` to ``n_hi - 1``, with every chain of both in one
    lock-step batch (``estimate_and_settle``); returns both results."""
    starts, configs, names, sweep = _sweep_chains(
        n_range, reps, dt, scale_per_n, seed, initial_box, _MAX_STEPS)
    orders, settle_configs, curve = _sensitivity_chains(
        (max(n_range[0] - 1, 1), n_range[1] - 1), None, dt)
    outcomes, sims = estimate_and_settle(starts, configs, names, orders, settle_configs)
    return sweep(outcomes), curve(sims)


# --- scenario report -----------------------------------------------------


def _interior_spacing_error(state: SwarmState, config: FormationConfig) -> float:
    """Worst deviation of consecutive in-chain displacements from l*."""
    q = state.positions
    worst = 0.0
    for seg in config.segments:
        walk = (seg.anchor,) + seg.members
        spacing = config.l_star[seg.segment_id]
        for a, b in zip(walk, walk[1:]):
            worst = max(worst, float(np.linalg.norm((q[a] - q[b]) - spacing)))
    return worst


@dataclass
class ScenarioReport:
    pipeline: PipelineResult
    snapshots: dict[float, SwarmState]
    max_error_final: float
    max_vertex_speed_final: float
    interior_spacing_error: float
    equilibrium_deviation: float
    first_time_within_tol: float | None
    rho_chain: float
    extra_estimates: dict[str, list[int]]


def scenario_report(cfg, snapshot_times: tuple[float, ...]) -> ScenarioReport:
    """Pipeline run of a parsed pipeline ``RunConfig`` and its figures.

    Snapshot states are kept at each of ``snapshot_times`` (seconds) that
    falls on a recorded step.  ``extra_estimates`` maps the other readout
    strategy to the estimates it gives from the same placement, its chains
    run as one ``ChainBatch`` like the pipeline's phase 1.
    ``rho_chain`` is the largest chain's spectral radius under the run's
    velocity lag ``sigma``.
    """
    arguments = cfg.pipeline_arguments()
    config = arguments["config"]
    result = run_pipeline(**arguments)
    initial = result.initial_state.positions
    trace = result.formation
    dt = config.params.dt
    snapshots = {}
    for t in snapshot_times:
        step = int(round(t / dt))
        if step in trace.snapshot_steps:
            snapshots[t] = trace.snapshots[trace.snapshot_steps.index(step)]

    other = "S1" if arguments["est_config"].strategy == "S2" else "S2"
    other_config = replace(cfg, est_strategy=other).estimator_config(max(config.n_s))
    batch = config.chain_batch(initial, other_config)
    other_estimates = [
        run_estimation(n, other_config, batch=batch, column=b).estimate
        for b, n in enumerate(config.n_s)
    ]

    final = trace.final_state
    vertex_speeds = np.linalg.norm(
        final.velocities[list(config.spec.vertex_set)], axis=1
    )
    predicted = predicted_equilibrium(config, initial[config.vertices[0]])
    deviation = float(
        np.max(np.linalg.norm(final.positions - predicted.positions, axis=1))
    )
    first = trace.first_step_within_tol
    return ScenarioReport(
        pipeline=result,
        snapshots=snapshots,
        max_error_final=float(trace.errors[-1].max()),
        max_vertex_speed_final=float(vertex_speeds.max()),
        interior_spacing_error=_interior_spacing_error(final, config),
        equilibrium_deviation=deviation,
        first_time_within_tol=None if first is None else first * dt,
        rho_chain=spectral_radius(chain_modes(
            max(config.n_s), config.params,
            "formation" if config.sigma == 1 else "lagged_formation",
        )),
        extra_estimates={other: other_estimates},
    )
