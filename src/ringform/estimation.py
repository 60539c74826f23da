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


def _per_column(values):
    """One value per chain: a float when all chains share it, which is
    cheaper to broadcast than an array and gives the same bits."""
    values = np.array(values, dtype=float)
    return float(values[0]) if (values == values[0]).all() else values


def _chain_steps(starts, configs, steps: int):
    """Run B chains in lock step, in place; yields ``(step, q, v)`` after each step.

    Column b is the chain of ``len(starts[b])`` movable robots placed at
    ``starts[b]`` and stepped with ``configs[b]``.  The ``(N + 2, 2, B)``
    buffers, N the longest chain, are right-aligned: row N + 1 is every
    chain's virtual robot, whose position stays the origin and whose
    velocity row is set to the excitation just before each update, and
    row N every chain's tail robot.  A shorter chain's anchor, row
    N - n_b, and the rows above it stay at rest because a live mask, 1.0
    on the movable rows, multiplies the new velocities; multiplying by 1.0
    is exact, and a masked row may hold -0.0, which can flip the sign of a
    zero velocity but never changes a ratio.
    Sending a list of columns to the generator freezes those chains from
    the next step on.  The buffers are overwritten by the next step;
    callers check whatever they read.
    """
    n_rows = max(len(start) for start in starts)
    columns = len(starts)
    alpha = _per_column([c.params.alpha for c in configs])
    dt = _per_column([c.params.dt for c in configs])
    s1 = np.array([c.strategy == "S1" for c in configs])
    lag_s1 = bool(s1[0])
    exc = np.array([c.excitation_init for c in configs], dtype=float).T
    q = np.zeros((n_rows + 2, 2, columns))
    live = np.zeros((n_rows, 1, columns))
    for b, start in enumerate(starts):
        q[n_rows + 1 - len(start):n_rows + 1, :, b] = start
        live[n_rows - len(start):, 0, b] = 1.0
    v = np.zeros_like(q)
    v_prev = np.zeros_like(q)
    mixed = s1.any() and not s1.all()
    for step in range(1, steps + 1):
        if mixed:
            vlag = np.where(s1, v, v_prev)
        else:
            vlag = v if lag_s1 else v_prev
        vlag[-1] = exc
        new_movable = midpoint_law(q, vlag, alpha)
        q[1:-1] += dt * v[1:-1]
        v_prev, v = v, v_prev
        np.multiply(new_movable, live, out=v[1:-1])
        exc = -exc
        frozen = yield step, q, v
        if frozen is not None:
            live[..., frozen] = 0.0


def _check_columns(values, step: int, label: str, names, columns) -> None:
    """``check_finite`` on the listed columns of a ``(rows, 2, B)`` buffer;
    a failing column is reported as ``"<label> of <names[b]>"``."""
    try:
        check_finite(values[..., columns], step, label)
    except DivergenceError:
        for b in columns:
            check_finite(values[..., b], step, f"{label} of {names[b]}")
        raise


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


def readouts(betas, strategies):
    """``readout`` for a row of chains at once: returns a function mapping
    one ratio per chain to the chains' raw readouts, bit for bit equal to
    ``readout(ratio, beta, strategy)`` (every NaN reads ``math.nan``).

    The S1 logs go through ``math.log`` one value at a time, because
    ``np.log`` differs from it in the last bit on some inputs.
    """
    frames = []
    for beta, strategy in zip(betas, strategies):
        if strategy == "S1":
            rho1, rho2, fb1, fb2 = s1_readout_frame(beta)
            frames.append((rho1, rho2, math.log(fb1), math.log(fb2) - math.log(fb1)))
        elif strategy == "S2":
            frames.append((math.nan,) * 4)
        else:
            raise ValueError(f"strategy must be 'S1' or 'S2', got {strategy!r}")
    rho1, rho2, log_fb1, frame = np.array(frames).reshape(-1, 4).T
    s2 = np.array([strategy == "S2" for strategy in strategies])
    s1 = ~s2 & (frame != 0.0)
    gain = 1.0 + np.asarray(betas, dtype=float)

    def read(ratios):
        raw = np.full(ratios.shape, math.nan)
        with np.errstate(all="ignore"):
            f = 2.0 * ratios
            den = f - rho2
            fbar = (f - rho1) / den
            ok = s1 & (den != 0.0) & (fbar > 0.0)
            logs = np.array([math.log(x) for x in fbar[ok].tolist()])
            raw[ok] = (logs - log_fb1[ok]) / frame[ok] + 1.0
            scaled = gain * ratios
            den = 1.0 - scaled
            ok = s2 & (den > 0.0)
            raw[ok] = scaled[ok] / den[ok]
        return raw

    return read


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
        for step, q, v in _chain_steps([initial_positions], [config], config.max_steps):
            if step % 64 == 0:
                check_finite(q[:-1, :, 0], step, "chain positions")
            tail_x = v[n, 0, 0]
            tail_y = v[n, 1, 0]
            ratio = math.sqrt(tail_x * tail_x + tail_y * tail_y) / exc_norm
            if not math.isfinite(ratio):
                check_finite(q[:-1, :, 0], step, "chain positions")
                check_finite(v[:-1, :, 0], step, "chain velocities")
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


def _norms(configs) -> np.ndarray:
    """Excitation magnitude of each chain, as ``sqrt(x*x + y*y)``."""
    return np.array([math.sqrt(x * x + y * y)
                     for x, y in (map(float, c.excitation_init) for c in configs)])


def estimate_chains(starts, configs, names) -> list[tuple[int | None, int | None]]:
    """``run_estimation``'s stop rule on many chains in lock step, keeping no
    per-step record.

    Chain b starts at ``starts[b]`` (its movable robots' positions) and runs
    with ``configs[b]`` until its own stop rule fires or its own
    ``max_steps`` is used up; a finished chain is frozen and never checked
    again.  A divergence names the chain ``names[b]`` and the step.
    Returns ``(estimate, steps_to_convergence)`` per chain, ``(None, None)``
    for a chain that did not converge.
    """
    chains = _chain_steps(starts, configs, max(c.max_steps for c in configs))
    read = readouts([c.params.beta for c in configs], [c.strategy for c in configs])
    norms = _norms(configs)
    windows = np.array([c.stop_window for c in configs])
    limits = np.array([c.max_steps for c in configs])
    results: list[tuple[int | None, int | None]] = [(None, None)] * len(starts)
    running = np.ones(len(starts), dtype=bool)
    streak_value = np.full(len(starts), math.nan)
    streak_length = np.zeros(len(starts), dtype=int)
    step, q, v = next(chains)
    while True:
        if step % 64 == 0:
            _check_columns(q[:-1], step, "chain positions", names, np.flatnonzero(running))
        tail_x, tail_y = v[-2]
        ratios = np.sqrt(tail_x * tail_x + tail_y * tail_y) / norms
        for b in np.flatnonzero(running & ~np.isfinite(ratios)):
            _check_columns(q[:-1], step, "chain positions", names, [b])
            _check_columns(v[:-1], step, "chain velocities", names, [b])
        ratios[~running] = math.nan  # spares the finished chains' logs
        raw = read(ratios)
        rounded = np.where(np.isfinite(raw), np.floor(raw + 0.5), math.nan)
        streak_length = np.where(rounded == streak_value, streak_length + 1, 1)
        streak_value = rounded
        converged = running & (streak_length >= windows) & (streak_value >= 1)
        for b in np.flatnonzero(converged):
            results[b] = (int(streak_value[b]), step)
        stopped = np.flatnonzero(running & (converged | (step >= limits)))
        if stopped.size:
            running[stopped] = False
            if not running.any():
                return results
        step, q, v = chains.send(stopped if stopped.size else None)


_SETTLE_TOL = 1e-12
_SETTLE_STEPS = 25
_SETTLE_MAX = 200000


def steady_velocity_ratios(orders, configs) -> list[float]:
    """Simulated steady ratios of many chains from rest, in lock step.

    Starting at rest isolates the forced response.  Each chain stops once
    its per-step ratio change stays below ``_SETTLE_TOL`` for
    ``_SETTLE_STEPS`` consecutive steps, or after ``_SETTLE_MAX`` steps,
    and is then frozen and never checked again.
    """
    names = [f"chain order {n} {c.strategy}" for n, c in zip(orders, configs)]
    chains = _chain_steps([np.zeros((n, 2)) for n in orders], configs, _SETTLE_MAX)
    norms = _norms(configs)
    results = np.full(len(orders), math.nan)
    running = np.ones(len(orders), dtype=bool)
    previous = np.full(len(orders), math.inf)
    quiet = np.zeros(len(orders), dtype=int)
    step, q, v = next(chains)
    while True:
        if step % 64 == 0:
            _check_columns(q[:-1], step, "chain positions", names, np.flatnonzero(running))
        tail_x, tail_y = v[-2]
        ratios = np.sqrt(tail_x * tail_x + tail_y * tail_y) / norms
        quiet = np.where(np.abs(ratios - previous) < _SETTLE_TOL, quiet + 1, 0)
        settled = np.flatnonzero(running & (quiet >= _SETTLE_STEPS))
        results[settled] = ratios[settled]
        running[settled] = False
        previous = ratios
        if not running.any() or step == _SETTLE_MAX:
            break
        step, q, v = chains.send(settled if settled.size else None)
    results[running] = previous[running]
    return results.tolist()


def steady_velocity_ratio(n_prime: int, config: EstimatorConfig) -> float:
    """Simulated steady ratio of one chain from rest (``steady_velocity_ratios``)."""
    return steady_velocity_ratios([n_prime], [config])[0]
