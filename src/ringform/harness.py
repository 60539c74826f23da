"""Experiment suite: convergence sweeps, sensitivity curves, and the
scenario report of a pipeline config, its run's ``formation.summarize``
figures with what a CLI run does not write (the reference scenarios are the
hexagon and triangle configs shipped in ``configs/``).

Every run here is reproducible bit for bit from (config, seed): placements
come from keyed counter-based streams and cells run in key order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import SwarmState, make_generator, quoted, require, uniform_box
from .estimation import (
    EstimatorConfig,
    batch_bytes,
    estimate_and_settle,
    run_estimation,
)
from .formation import PipelineResult, run_pipeline, summarize
from .spectral import (
    ESTIMATOR_KIND,
    STRATEGIES,
    EstimationParams,
    _chain_layers,
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
    target = _SAFETY * min(stability_bound(n_prime, strategy) for strategy in STRATEGIES)
    # At dt = 0 no alpha is needed: EstimationParams refuses dt before it.
    return EstimationParams(alpha=target / dt if dt else math.inf, dt=dt)


def auto_stop_window(n_prime: int, params: EstimationParams, strategy: str) -> int:
    """Stop window scaled to the decay time of the chain's modal blocks."""
    rho = spectral_radius(chain_modes(n_prime, params, ESTIMATOR_KIND[strategy]))
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


def check_sweep_range(n_range, reps) -> None:
    """A sweep's range rules: chains of n >= 2 robots, and 1 to 2**32 reps, at most
    100 from n = 2**30 on, so that every chain gets a stream key of its own."""
    n_lo, n_hi = n_range
    require(n_lo >= 2, "sweep_n_min", f"must be at least 2, got {quoted(n_lo)}")
    require(n_hi >= n_lo, "sweep_n_max",
            f"must be at least the smallest n, {quoted(n_lo)}, got {quoted(n_hi)}")
    require(reps >= 1, "sweep_reps", f"must be at least 1, got {quoted(reps)}")
    require(reps <= 100 or (reps <= 2 ** 32 and n_hi < 2 ** 30), "sweep_reps",
            "must be at most 2**32, and at most 100 from n = 2**30 on: the stream keys' range")


def _sweep_chains(n_range, reps, dt, scale_per_n, seed, initial_box, max_steps):
    """``sweep_convergence``'s chains and the function of their outcomes that is its result."""
    check_sweep_range(n_range, reps)
    n_lo, n_hi = n_range

    cells, starts, configs, names = [], [], [], []
    for n in range(n_lo, n_hi + 1):
        n_prime = n - 1
        for strat_idx, strategy in enumerate(STRATEGIES):
            p = scaled_params(n_prime if scale_per_n else n_hi - 1, dt)
            window = auto_stop_window(n_prime, p, strategy)
            config = EstimatorConfig(
                params=p, strategy=strategy, stop_window=window,
                max_steps=max(max_steps, window + 1),
            )
            cells.append((n, strategy, config))
            for rep in range(reps):  # keys of their own (``check_sweep_range``)
                rng = make_generator(seed, n * 1000 + strat_idx * 100 + rep if rep < 100
                                     else 2 ** 63 + ((2 * n + strat_idx) << 32) + rep)
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
    (seed, n*1000 + strategy*100 + rep) below rep 100, and
    (seed, 2**63 + ((2n + strategy) << 32) + rep) from rep 100 on, so any
    subset of cells can be reproduced in isolation.  Every chain runs at
    least one step past its stop window; a chain that does not converge
    counts the steps it ran, ``max(max_steps, window + 1)``.
    """
    starts, configs, names, result = _sweep_chains(
        n_range, reps, dt, scale_per_n, seed, initial_box, max_steps)
    return result(estimate_and_settle(starts, configs, names)[0])


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
    _chain_layers("estimator", lo)  # the order rule of the curves' chains
    require(hi >= lo, "n_range", f"upper bound must be at least the lower, {quoted(lo)}, "
            f"got {quoted(hi)}")
    orders, params, configs = [], [], []
    for n_prime in range(lo, hi + 1):
        if beta is None:
            p = scaled_params(n_prime, dt)
        else:
            p = EstimationParams(alpha=2.0 * beta / dt, dt=dt)
        params.append(p)
        for strategy in STRATEGIES:
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
        return SensitivityCurve(rows=rows, total_variation_s1=tv1, total_variation_s2=tv2,
                                more_sensitive="S1" if tv1 > tv2 else "S2")

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
    return result(estimate_and_settle([], [], [], orders, configs)[1])


def _curve_orders(n_range) -> tuple[int, int]:
    """The chain orders of a sweep's curves: ``max(n_lo - 1, 1)`` to ``n_hi - 1``."""
    return max(n_range[0] - 1, 1), n_range[1] - 1


def sweep_and_curves(n_range, reps, *, dt, scale_per_n, seed, initial_box):
    """``sweep_convergence`` over ``n_range`` and the scaled
    ``sensitivity_curves`` over the chain orders it spans (``_curve_orders``), with
    every chain of both in one lock-step batch (``estimate_and_settle``); returns both."""
    starts, configs, names, sweep = _sweep_chains(
        n_range, reps, dt, scale_per_n, seed, initial_box, _MAX_STEPS)
    orders, settle_configs, curve = _sensitivity_chains(_curve_orders(n_range), None, dt)
    outcomes, sims = estimate_and_settle(starts, configs, names, orders, settle_configs)
    return sweep(outcomes), curve(sims)


def sweep_batch_bytes(n_range, reps) -> int:
    """``batch_bytes`` of ``sweep_and_curves``' batch: ``2 * reps`` chains
    per n, two per curve order, the longest of ``n_hi - 1`` robots."""
    (n_lo, n_hi), (lo, hi) = n_range, _curve_orders(n_range)
    return batch_bytes(n_hi + 1, (n_hi - n_lo + 1) * 2 * reps + 2 * (hi - lo + 1))


# --- scenario report -----------------------------------------------------


@dataclass
class ScenarioReport:
    pipeline: PipelineResult
    snapshots: dict[float, SwarmState]
    extra_estimates: dict[str, list[int]]
    figures: dict


def scenario_report(cfg, snapshot_times: tuple[float, ...]) -> ScenarioReport:
    """A parsed pipeline ``RunConfig``'s run, with what a CLI run does not write:
    the states at those of ``snapshot_times`` (seconds) that fall on a recorded
    step, and in ``extra_estimates`` the other readout strategy's estimates from
    the same placement, its chains run as one ``ChainBatch`` like phase 1.
    ``figures`` is ``summarize`` of the run, as a CLI run's manifest holds it."""
    arguments = cfg.pipeline_arguments()
    config = arguments["config"]
    result = run_pipeline(**arguments)
    trace = result.formation
    snapshots = {}
    for t in snapshot_times:
        step = int(round(t / config.params.dt))
        if step in trace.snapshot_steps:
            snapshots[t] = trace.snapshots[trace.snapshot_steps.index(step)]

    (other,) = (s for s in STRATEGIES if s != arguments["est_config"].strategy)
    other_config = replace(cfg, est_strategy=other).estimator_config()
    batch = config.chain_batch(result.initial_state.positions, other_config)
    other_estimates = [
        run_estimation(n, other_config, batch=batch, column=b).estimate
        for b, n in enumerate(config.n_s)
    ]
    return ScenarioReport(pipeline=result, snapshots=snapshots,
                          extra_estimates={other: other_estimates},
                          figures=summarize(trace, config))
