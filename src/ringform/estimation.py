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

# Steps per block of the lock-step loop: the stop rules are read once per
# block, and positions are checked at block ends that are its multiples.
BLOCK = 64


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
        if not 0.0 < x * x + y * y < math.inf:
            raise ValueError("excitation must have finite x*x + y*y > 0")


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


def _check_columns(values, step: int, label: str, names, columns) -> None:
    """``check_finite`` on columns of a ``(rows, 2, C)`` buffer; names a failing one."""
    try:
        check_finite(values[..., columns], step, label)
    except DivergenceError:
        if names is not None:
            for b in columns:
                check_finite(values[..., b], step, f"{label} of {names[b]}")
        raise


def _lock_step(starts, configs, names, limits, rule, record=None):
    """Run B chains in lock step until each stops; returns arrays of each
    column's stop step, its ``values[0]`` there and whether it settled.

    Column b is the chain of ``len(starts[b])`` movable robots placed at
    ``starts[b]`` and stepped with ``configs[b]``.  The ``(N + 2, 2, C)``
    buffers hold the C running columns in column order, N the longest
    chain: row N is every tail robot and row N + 1 every virtual robot.
    The two velocity buffers swap and the excitation flips sign every
    step, so each holds in row N + 1, once for all, the excitation it is
    read with.  A live mask, 1.0 on each chain's movable rows, multiplies
    the new velocities: exact, and the rows above a shorter chain stay at
    rest (a masked -0.0 never changes a ratio).

    The chains step to the next multiple of ``BLOCK`` or the nearest
    running limit, keeping the tail velocities; ``rule`` maps the block's
    ``(k, B)`` ratios, NaN in finished columns, to ``(k, B)`` arrays
    ``(settled, values)``.  Column b stops at its first settled step or at
    ``limits[b]``, and leaves the buffers at the end of the block.  A
    ``record`` list receives each block's ``(k, B)`` ratios, ``settled``
    and ``values``, every column, up to the last step kept.

    The checks are a step-at-a-time loop's: running chains' positions at
    each multiple of ``BLOCK``, and their positions then velocities at a
    non-finite ratio (only a velocity beyond the limit gives one).  Blocks
    step with floating-point warnings off; on a failure the chains in the
    buffers step again from the start, warnings on, to the failing step,
    where the checks raise and name the chain ``names[b]``.
    """
    n_rows, columns = max(len(start) for start in starts), len(starts)
    alphas, dts = np.array([(c.params.alpha, c.params.dt) for c in configs]).T
    strategies = np.array([c.strategy == "S1" for c in configs])
    excitations = np.array([c.excitation_init for c in configs], dtype=float)
    norms = np.array([math.sqrt(x * x + y * y) for x, y in excitations.tolist()])
    live = np.zeros((n_rows, 1, columns))
    for b, start in enumerate(starts):
        live[n_rows - len(start):, 0, b] = 1.0

    def law():
        """Gains and strategies of the buffer columns; whether they mix S1 and S2."""
        s1 = strategies[cols]
        return _per_column(alphas[cols]), _per_column(dts[cols]), s1, s1.any() and not s1.all()

    def at_rest():
        q = np.zeros((n_rows + 2, 2, len(cols)))
        for j, b in enumerate(cols):
            q[n_rows + 1 - len(starts[b]):n_rows + 1, :, j] = starts[b]
        v, v_prev = np.zeros((2, *q.shape))
        v[-1] = np.where(s1, 1.0, -1.0) * excitations[cols].T
        v_prev[-1] = -v[-1]
        return q, v, v_prev

    def advance(q, v, v_prev, steps):
        """Steps the buffers; returns the velocities and the last BLOCK tails."""
        new, scratch = np.empty((2, *q[1:-1].shape))
        tails = np.empty((BLOCK, 2, q.shape[-1]))
        for i in range(steps):
            if mixed:
                vlag = np.where(s1, v, v_prev)
            else:
                vlag = v if s1[0] else v_prev
            midpoint_law(q, vlag, alpha, out=new, scratch=scratch)
            q[1:-1] += np.multiply(dt, v[1:-1], out=scratch)
            v_prev, v = v, v_prev
            np.multiply(new, live, out=v[1:-1])
            tails[i % BLOCK] = v[-2]
        return v, v_prev, tails

    def ratios_of(tail):
        """|tail velocity| / |excitation|, computed in the x row of ``tail``."""
        ratios, tail_y = tail[..., 0, :], tail[..., 1, :]
        np.multiply(ratios, ratios, out=ratios)
        ratios += np.multiply(tail_y, tail_y, out=tail_y)
        np.sqrt(ratios, out=ratios)
        ratios /= norms[cols]
        return ratios

    cols = np.arange(columns)  # the columns in the buffers
    alpha, dt, s1, mixed = law()
    q, v, v_prev = at_rest()
    running = np.ones(columns, dtype=bool)
    stops = np.zeros(columns, dtype=int)
    stop_values = np.full(columns, math.nan)
    settled_at = np.zeros(columns, dtype=bool)
    step = 0
    while running.any():
        end = min(step - step % BLOCK + BLOCK, int(limits[running].min()))
        k = end - step
        ratios = np.full((k, columns), math.nan)
        with np.errstate(all="ignore"):
            v, v_prev, tails = advance(q, v, v_prev, k)
            ratios[:, cols] = ratios_of(tails[:k])
            settled, values = rule(ratios)
        # Each column's stop row: k runs on, -1 had stopped before.
        rows = np.arange(k)[:, None]
        last = np.where(settled, rows, np.where(limits == end, k - 1, k)).min(axis=0)
        last[~running] = -1
        alive = rows <= last
        bad = np.flatnonzero((alive & ~np.isfinite(ratios)).any(axis=1))
        kept = bad[0] if bad.size else k  # the steps that pass the checks
        if kept == k and end % BLOCK == 0:
            try:
                _check_columns(q[:-1], end, "chain positions", names,
                               np.flatnonzero(alive[-1, cols]))
            except DivergenceError:
                kept = k - 1
        if record is not None:
            record.append([a[:min(kept, last.max() + 1)].copy()
                           for a in (ratios, settled, *values)])
        if kept < k:
            failing = step + kept + 1
            checked = np.flatnonzero(alive[kept, cols])
            q, v, v_prev = at_rest()
            v, _, tails = advance(q, v, v_prev, failing)
            if failing % BLOCK == 0:
                _check_columns(q[:-1], failing, "chain positions", names, checked)
            for b in checked[~np.isfinite(ratios_of(tails[(failing - 1) % BLOCK])[checked])]:
                _check_columns(q[:-1], failing, "chain positions", names, [b])
                _check_columns(v[:-1], failing, "chain velocities", names, [b])
        stopped = np.flatnonzero((last >= 0) & (last < k))
        stops[stopped] = step + last[stopped] + 1
        stop_values[stopped] = values[0][last[stopped], stopped]
        settled_at[stopped] = settled[last[stopped], stopped]
        running[stopped] = False
        step = end
        del settled, values  # let the next block's arrays reuse their memory
        keep = running[cols]
        if stopped.size and keep.any():  # the stopped columns leave the buffers
            cols = cols[keep]
            q, v, v_prev, live = (a.compress(keep, axis=-1) for a in (q, v, v_prev, live))
            if names is not None:
                names = [names[j] for j in np.flatnonzero(keep)]
            alpha, dt, s1, mixed = law()
    return stops, stop_values, settled_at


def _streaks(first, same):
    """Maps each block's ``(k, B)`` values to the steps since ``same(value,
    value before)`` was last false, 0 there; ``first`` precedes block one.
    The counts carry over through a running maximum of the reset steps."""
    previous, count = first, 0

    def counts(values):
        nonlocal previous, count
        rows = np.arange(len(values))[:, None]
        last = np.where(same(values, np.vstack([previous, values[:-1]])), -1 - count, rows)
        np.maximum.accumulate(last, axis=0, out=last)
        np.subtract(rows, last, out=last)
        previous, count = values[-1].copy(), last[-1].copy()
        return last

    return counts


def readouts(betas, strategies):
    """Returns a function inverting steady velocity-magnitude ratios, one
    per chain along the last axis, into the chains' real-valued orders.

    A readout is NaN while its ratio is outside the formula's domain (log
    of a non-positive quantity for S1, non-positive denominator for S2),
    which simply means the oscillation has not settled yet, and for an S1
    frame that has degenerated (``fb1 == fb2`` at vanishing ``beta``).
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
    s2 = np.array([strategy == "S2" for strategy in strategies], dtype=bool)
    s1 = ~s2 & (frame != 0.0)
    gain = 1.0 + np.asarray(betas, dtype=float)

    def read(ratios):
        with np.errstate(all="ignore"):
            f = 2.0 * ratios
            den = f - rho2
            f -= rho1
            f /= den  # fbar
            ok = s1 & (den != 0.0) & (f > 0.0)
            raw = np.full(ratios.shape, math.nan)
            raw[ok] = np.fromiter(map(math.log, f[ok].data), float)
            raw -= log_fb1
            raw /= frame
            raw += 1.0
            scaled = np.multiply(gain, ratios, out=f)
            den = np.subtract(1.0, scaled, out=den)
            ok = s2 & (den > 0.0)
            raw[ok] = scaled[ok] / den[ok]
        return raw

    return read


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


def warn_unstable(params: EstimationParams, order: int, strategy: str, subject: str,
                  stacklevel: int) -> None:
    """``StabilityWarning`` when ``alpha*dt`` is not below
    ``stability_bound(order, strategy)``.  ``subject`` names the chain in
    the message; ``stacklevel`` counts from the caller, as in
    ``warnings.warn``."""
    alpha_dt = params.alpha * params.dt
    bound = stability_bound(order, strategy)
    if alpha_dt >= bound:
        warnings.warn(
            f"alpha*dt = {alpha_dt:.6g} >= sufficient bound {bound:.6g} for {subject}; "
            "convergence is not guaranteed",
            StabilityWarning,
            stacklevel=stacklevel + 1,
        )


def _warn_unstable(n_prime: int, config: EstimatorConfig) -> None:
    """``warn_unstable`` for a chain of ``n_prime`` movable robots, reported
    at the line that called this function's caller."""
    warn_unstable(config.params, n_prime, config.strategy,
                  f"{config.strategy} at chain order {n_prime}", stacklevel=3)


class ChainBatch:
    """Chains to run as one lock-step batch through ``run_estimation``.

    Each chain gets its ``StabilityWarning`` here, in chain order.  The
    first ``run_estimation`` call naming the batch runs every chain with
    ``chain_traces``; the others read their column's trace.
    """

    def __init__(self, starts, configs, names=None):
        for start, config in zip(starts, configs):
            _warn_unstable(len(start), config)
        self.starts, self.configs, self.names = starts, configs, names
        self.traces = None


def run_estimation(
    n_prime_true: int,
    config: EstimatorConfig,
    initial_positions: np.ndarray | None = None,
    *,
    seed: int = 0,
    seed_stream: int = 0,
    initial_box: float = 5.0,
    batch: ChainBatch | None = None,
    column: int = 0,
) -> EstimateTrace:
    """Run one chain until the stop rule fires or ``max_steps`` is hit.

    The stop rule realises the finite-time rounding idea: once the last
    ``stop_window`` raw readouts round to the same positive integer, that
    integer is the estimate.  This implies that they are finite (a NaN
    rounding never equals anything) and span less than one.
    Initial positions default to a seeded uniform draw in a square box;
    initial velocities are zero.  A divergence carries the trace up to
    the step before it as ``partial``.

    With ``batch`` the chain is the batch's column ``column``, of
    ``n_prime_true`` robots run with ``config``, and starts where the
    batch says; a divergence then carries every chain's trace as its
    ``partial`` list (see ``chain_traces``).
    """
    if batch is not None:
        if (len(batch.starts[column]), batch.configs[column]) != (n_prime_true, config):
            raise ValueError(f"column {column} of the batch is another chain")
        if batch.traces is None:
            batch.traces = chain_traces(batch.starts, batch.configs, batch.names)
        return batch.traces[column]
    if n_prime_true < 1:
        raise ValueError("chain must contain at least one movable robot")
    _warn_unstable(n_prime_true, config)
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
    try:
        (trace,) = chain_traces([initial_positions], [config])
    except DivergenceError as err:
        (err.partial,) = err.partial
        raise
    return trace


def _rounded(raw):
    """Raw readouts rounded half up; NaN where a readout is not finite."""
    rounded = np.add(raw, 0.5)
    np.floor(rounded, out=rounded)
    rounded[~np.isfinite(raw)] = math.nan
    return rounded


def _stop_rule(configs):
    """``estimate_chains``' stop rule: per block, ``(settled, (raw,))``."""
    read = readouts([c.params.beta for c in configs], [c.strategy for c in configs])
    windows = np.array([c.stop_window for c in configs]) - 1
    streaks = _streaks(np.full(len(configs), math.nan), np.equal)

    def rule(ratios):
        raw = read(ratios)
        rounded = _rounded(raw)
        return (streaks(rounded) >= windows) & (rounded >= 1), (raw,)

    return rule


def _outcomes(stops, raws, converged):
    return [(int(estimate), int(stop)) if ok else (None, None)
            for stop, estimate, ok in zip(stops, _rounded(raws), converged)]


def estimate_chains(starts, configs, names, record=None) -> list[tuple[int | None, int | None]]:
    """``run_estimation``'s stop rule on many chains in lock step.

    Chain b starts at ``starts[b]`` (its movable robots' positions) and runs
    with ``configs[b]`` until its stop rule fires or its ``max_steps`` is
    used up; a finished chain leaves the batch and is never checked again.
    A divergence names ``names[b]``.  A ``record`` list receives per block
    the ``(k, B)`` ratios, settled flags and raw readouts of every column,
    rows in step order as ``estimate.csv`` writes them: ``chain_traces``
    cuts it into one trace per chain.  Returns ``(estimate,
    steps_to_convergence)`` per chain, ``(None, None)`` if unconverged.
    """
    return _outcomes(*_lock_step(starts, configs, names, np.array([c.max_steps for c in configs]),
                                 _stop_rule(configs), record))


def chain_traces(starts, configs, names=None) -> list[EstimateTrace]:
    """``estimate_chains`` with a record, cut into one ``EstimateTrace`` per chain.

    Column b of the record ends at its first settled step (no block runs
    past a limit), its ``max_steps``, or the record's end: the step before
    a divergence, which carries every chain's trace as its ``partial``
    list.  The record is joined one kind at a time, each kind's blocks
    released as it is joined; the traces' steps, ratios and raw readouts
    are views of the joined ``(steps, B)`` arrays, so one copy of the
    record outlives the call.  Stability warnings are the callers'
    (``run_estimation``, ``ChainBatch``).
    """
    record = []

    def cut():
        kinds = list(zip(*record))
        record.clear()
        ratios, settled, raw = (np.concatenate(kinds.pop(0)) for _ in range(3))
        steps = np.arange(1, len(ratios) + 1)
        traces = []
        for b, (start, config) in enumerate(zip(starts, configs)):
            trace = EstimateTrace(strategy=config.strategy, n_prime_true=len(start))
            stop = np.flatnonzero(settled[:, b])
            n = stop[0] + 1 if stop.size else min(config.max_steps, len(ratios))
            trace.steps, trace.ratios, trace.raw = steps[:n], ratios[:n, b], raw[:n, b]
            trace.rounded = _rounded(trace.raw)
            if stop.size:
                trace.converged = True
                trace.estimate, trace.steps_to_convergence = int(trace.rounded[-1]), int(n)
            correct = np.flatnonzero(trace.rounded == len(start))
            trace.first_correct_step = int(correct[0]) + 1 if correct.size else None
            traces.append(trace)
        return traces

    try:
        estimate_chains(starts, configs, names, record)
    except DivergenceError as err:
        err.partial = cut()
        raise
    return cut()


_SETTLE_TOL = 1e-12
_SETTLE_STEPS = 25
_SETTLE_MAX = 200000


def steady_velocity_ratios(orders, configs) -> list[float]:
    """Simulated steady ratios of many chains from rest, in lock step.

    Starting at rest isolates the forced response.  Each chain stops once
    its per-step ratio change stays below ``_SETTLE_TOL`` for
    ``_SETTLE_STEPS`` consecutive steps, or after ``_SETTLE_MAX`` steps,
    and then leaves the batch and is never checked again.
    """
    return estimate_and_settle([], [], [], orders, configs)[1]


def estimate_and_settle(starts, configs, names, orders, settle_configs):
    """``estimate_chains(starts, configs, names)`` and
    ``steady_velocity_ratios(orders, settle_configs)`` as one lock-step
    batch, each chain under its own rule and limit; returns both results,
    bit for bit the two calls'.  A divergence names the first failing
    chain, estimated chains first at one step."""
    split = len(starts)
    stop_rule = _stop_rule(configs)
    quiet = _streaks(np.full(len(orders), math.inf),
                     lambda ratio, before: np.abs(ratio - before) < _SETTLE_TOL)

    def rule(ratios):
        settled, (raw,) = stop_rule(ratios[:, :split])
        steady = ratios[:, split:]
        return np.hstack([settled, quiet(steady) >= _SETTLE_STEPS]), (np.hstack([raw, steady]),)

    stops, values, converged = _lock_step(
        [*starts, *(np.zeros((n, 2)) for n in orders)], [*configs, *settle_configs],
        [*names, *(f"chain order {n} {c.strategy}" for n, c in zip(orders, settle_configs))],
        np.array([*(c.max_steps for c in configs), *[_SETTLE_MAX] * len(orders)]), rule)
    return _outcomes(stops[:split], values[:split], converged[:split]), values[split:].tolist()


def steady_velocity_ratio(n_prime: int, config: EstimatorConfig) -> float:
    """Simulated steady ratio of one chain from rest (``steady_velocity_ratios``)."""
    return steady_velocity_ratios([n_prime], [config])[0]
