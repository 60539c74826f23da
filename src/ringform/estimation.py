"""Distributed chain-cardinality estimation on a cut segment.

One chain: a pinned anchor at the origin, n' movable robots, and a virtual
robot at the far end whose position is identically the origin and whose
velocity flips sign each step with constant magnitude.  Driven this way the
chain settles into a period-two oscillation; the magnitude ratio between
the last real robot's velocity and the excitation encodes n', which the
readout formulas invert.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import (
    DivergenceError,
    StabilityWarning,
    SwarmState,
    check_finite,
    make_generator,
    midpoint_law,
    uniform_box,
)
from .spectral import EstimationParams, s1_readout_frame, stability_bound


@dataclass(frozen=True)
class EstimatorConfig:
    """Strategy, gains, excitation, and stop-rule parameters for one run."""

    params: EstimationParams
    strategy: str = "S1"
    excitation_init: tuple[float, float] = (1.0, 0.0)
    stop_window: int = 50
    max_steps: int = 20000

    def __post_init__(self):
        if self.strategy not in ("S1", "S2"):
            raise ValueError(f"strategy must be 'S1' or 'S2', got {self.strategy!r}")
        if self.stop_window < 2:
            raise ValueError("stop_window must be at least 2")
        if self.max_steps <= self.stop_window:
            raise ValueError("max_steps must exceed stop_window")
        x, y = (float(e) for e in self.excitation_init)
        if not x * x + y * y > 0.0:
            raise ValueError("excitation must have x*x + y*y > 0")


def step_estimator(state: SwarmState, config: EstimatorConfig) -> SwarmState:
    """One synchronous estimator step on a ``SwarmState.chain``; returns the
    successor state.

    All new velocities are computed from the step-k snapshot (S1 reads the
    current neighbour velocities, S2 the one-step-old layer; the excitation
    always enters at its current value), then positions integrate the old
    velocities and the excitation flips sign.
    """
    q = state.positions
    v = state.velocities
    vlag = v if config.strategy == "S1" else state.velocities_prev

    # The far end sees the origin-pinned virtual robot and its excitation.
    new_v = np.zeros_like(v)
    new_v[1:] = midpoint_law(
        np.vstack([q, np.zeros((1, 2))]),
        np.vstack([vlag, state.excitation[None, :]]),
        config.params.alpha,
    )

    new_q = q.copy()
    new_q[1:] += config.params.dt * v[1:]

    check_finite(new_q, state.step + 1, "chain positions")
    check_finite(new_v, state.step + 1, "chain velocities")

    return SwarmState(
        positions=new_q,
        velocities=new_v,
        velocities_prev=v,
        step=state.step + 1,
        excitation=-state.excitation,
    )


def _chain_steps(initial_positions: np.ndarray, config: EstimatorConfig, steps: int):
    """Run one chain in place; yields ``(step, q, v)`` after each step.

    The buffers have n' + 2 rows: the anchor, the n' movable robots, then
    the virtual robot, whose position stays the origin and whose velocity
    row is set to the excitation just before each update.  They are
    overwritten by the next step.  Positions are checked every 64 steps;
    callers check whatever else they read.
    """
    n = initial_positions.shape[0]
    alpha = config.params.alpha
    dt = config.params.dt
    s1 = config.strategy == "S1"
    q = np.zeros((n + 2, 2))
    q[1:n + 1] = initial_positions
    v = np.zeros((n + 2, 2))
    v_prev = np.zeros((n + 2, 2))
    exc = np.asarray(config.excitation_init, dtype=float)
    for step in range(1, steps + 1):
        vlag = v if s1 else v_prev
        vlag[n + 1] = exc
        new_movable = midpoint_law(q, vlag, alpha)
        q[1:n + 1] += dt * v[1:n + 1]
        v_prev, v = v, v_prev
        v[1:n + 1] = new_movable
        exc = -exc
        if step % 64 == 0:
            check_finite(q[:n + 1], step, "chain positions")
        yield step, q, v


def readout(ratio: float, beta: float, strategy: str) -> float:
    """Invert a steady velocity-magnitude ratio into a real-valued chain order.

    Returns NaN while the ratio is outside the formula's domain (log of a
    non-positive quantity for S1, non-positive denominator for S2), which
    simply means the oscillation has not settled yet, and for an S1 frame
    that has degenerated (``fb1 == fb2`` at vanishing ``beta``).
    """
    if strategy == "S1":
        rho1, rho2, fb1, fb2 = s1_readout_frame(beta)
        f = 2.0 * ratio
        den = f - rho2
        if den == 0.0:
            return math.nan
        fbar = (f - rho1) / den
        if fbar <= 0.0:
            return math.nan
        frame = math.log(fb2) - math.log(fb1)
        if frame == 0.0:
            return math.nan
        return (math.log(fbar) - math.log(fb1)) / frame + 1.0
    if strategy == "S2":
        scaled = (1.0 + beta) * ratio
        den = 1.0 - scaled
        if den <= 0.0:
            return math.nan
        return scaled / den
    raise ValueError(f"strategy must be 'S1' or 'S2', got {strategy!r}")


def _round_half_up(x: float) -> float:
    return math.floor(x + 0.5)


@dataclass
class EstimateTrace:
    """Per-step readout record of one estimation run."""

    strategy: str
    n_prime_true: int
    steps: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))
    ratios: np.ndarray = field(default_factory=lambda: np.empty(0))
    raw: np.ndarray = field(default_factory=lambda: np.empty(0))
    rounded: np.ndarray = field(default_factory=lambda: np.empty(0))
    converged: bool = False
    estimate: int | None = None
    steps_to_convergence: int | None = None
    first_correct_step: int | None = None


def run_estimation(
    n_prime_true: int,
    config: EstimatorConfig,
    initial_positions: np.ndarray | None = None,
    *,
    seed: int = 0,
    seed_stream: int = 0,
    initial_box: float = 5.0,
) -> EstimateTrace:
    """Run one chain until the stop rule fires or ``max_steps`` is hit.

    The stop rule realises the finite-time rounding idea: once the last
    ``stop_window`` raw readouts round to the same positive integer, that
    integer is the estimate.  This implies that they are finite (a NaN
    rounding never equals anything) and span less than one.
    Initial positions default to a seeded uniform draw in a square box;
    initial velocities are zero.
    """
    if n_prime_true < 1:
        raise ValueError("chain must contain at least one movable robot")
    alpha_dt = config.params.alpha * config.params.dt
    bound = stability_bound(n_prime_true, config.strategy)
    if alpha_dt >= bound:
        warnings.warn(
            f"alpha*dt = {alpha_dt:.6g} >= sufficient bound {bound:.6g} for "
            f"{config.strategy} at chain order {n_prime_true}; convergence "
            "is not guaranteed",
            StabilityWarning,
            stacklevel=2,
        )
    if initial_positions is None:
        rng = make_generator(seed, seed_stream)
        initial_positions = uniform_box(rng, n_prime_true, initial_box)
    else:
        initial_positions = np.asarray(initial_positions, dtype=float)
        if initial_positions.shape != (n_prime_true, 2):
            raise ValueError(
                f"initial_positions must have shape ({n_prime_true}, 2), "
                f"got {initial_positions.shape}"
            )

    n = n_prime_true
    beta = config.params.beta
    W = config.stop_window
    exc_x, exc_y = (float(e) for e in config.excitation_init)
    exc_norm = math.sqrt(exc_x * exc_x + exc_y * exc_y)

    steps, ratios, raws, roundeds = [], [], [], []
    trace = EstimateTrace(strategy=config.strategy, n_prime_true=n_prime_true)
    streak_value = math.nan
    streak_length = 0

    try:
        for step, q, v in _chain_steps(initial_positions, config, config.max_steps):
            tail_x = v[n, 0]
            tail_y = v[n, 1]
            ratio = math.sqrt(tail_x * tail_x + tail_y * tail_y) / exc_norm
            if not math.isfinite(ratio):
                check_finite(q[:n + 1], step, "chain positions")
                check_finite(v[:n + 1], step, "chain velocities")
            raw = readout(ratio, beta, config.strategy)
            rounded = _round_half_up(raw) if math.isfinite(raw) else math.nan
            steps.append(step)
            ratios.append(ratio)
            raws.append(raw)
            roundeds.append(rounded)
            if trace.first_correct_step is None and rounded == n_prime_true:
                trace.first_correct_step = step

            if rounded == streak_value:
                streak_length += 1
            else:
                streak_value = rounded
                streak_length = 1
            if streak_length >= W and streak_value >= 1:
                trace.converged = True
                trace.estimate = int(streak_value)
                trace.steps_to_convergence = step
                break
    except DivergenceError as err:
        err.partial = trace
        raise
    finally:
        trace.steps = np.array(steps, dtype=int)
        trace.ratios = np.array(ratios)
        trace.raw = np.array(raws)
        trace.rounded = np.array(roundeds)
    return trace


_SETTLE_TOL = 1e-12
_SETTLE_STEPS = 25
_SETTLE_MAX = 200000


def steady_velocity_ratio(n_prime: int, config: EstimatorConfig) -> float:
    """Simulated steady ratio from a zero initial state.

    Starting at rest isolates the forced response; the run stops once the
    per-step ratio change stays below ``_SETTLE_TOL`` for ``_SETTLE_STEPS``
    consecutive steps, or after ``_SETTLE_MAX`` steps.
    """
    excitation_norm = float(np.linalg.norm(config.excitation_init))
    previous = math.inf
    quiet = 0
    for _, _, v in _chain_steps(np.zeros((n_prime, 2)), config, _SETTLE_MAX):
        ratio = float(np.linalg.norm(v[n_prime])) / excitation_norm
        if abs(ratio - previous) < _SETTLE_TOL:
            quiet += 1
            if quiet >= _SETTLE_STEPS:
                return ratio
        else:
            quiet = 0
        previous = ratio
    return previous

