"""Independent dense-matrix and analytic oracles shared by the test modules.

Everything here recomputes expected values by a route different from the
library code under test: explicit matrix iterations for the simulators,
per-mode polynomial roots for spectral radii, and dense inverses for the
closed-form gains; ``reference_step_formation`` is the ring step written
with rolled neighbour copies and a per-vertex loop;
``reference_run_formation`` records a formation trace state by state,
``reference_formation_csvs`` writes a collected trace out row by row,
``reference_stop_rule`` checks the estimator's stop rule window by window,
``reference_readout`` inverts one ratio with scalar arithmetic, and
``reference_estimation`` and ``reference_steady_ratio`` step one chain at a
time through ``step_estimator``; ``trace_bits`` is an estimate trace's
fields for a bitwise comparison; ``reference_sweep`` runs the convergence
sweep one chain at a time through ``run_estimation``.  ``shipped_config``
loads the scenario configs from the repository's ``configs/`` directory.
"""

import math
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np

import ringform.estimation
from ringform.cli import load_config
from ringform.core import DivergenceError, SwarmState, check_finite
from ringform.estimation import EstimatorConfig, run_estimation, step_estimator
from ringform.formation import FormationTrace, step_formation
from ringform.harness import SweepRow, auto_stop_window, scaled_params
from ringform.spectral import s1_readout_frame

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def shipped_config(name, **overrides):
    """``configs/<name>.yaml`` parsed by the CLI loader, fields overridden."""
    return replace(load_config(CONFIGS / f"{name}.yaml"), **overrides)


def reference_step_formation(state, config):
    """One ring step, rolled-copy form: every robot chases its neighbours'
    midpoint, then each tracking vertex is overwritten one at a time and
    the pinned vertex is zeroed."""
    alpha = config.params.alpha
    q = state.positions
    v = state.velocities
    vlag = v if config.sigma == 1 else state.velocities_prev

    q_prev = np.roll(q, 1, axis=0)
    q_next = np.roll(q, -1, axis=0)
    v_prev = np.roll(vlag, 1, axis=0)
    v_next = np.roll(vlag, -1, axis=0)

    new_v = 0.5 * alpha * (q_next + q_prev - 2.0 * q) + 0.5 * (v_next + v_prev)

    vertices = config.spec.vertex_set
    for j in range(1, config.spec.m):
        i = vertices[j]
        new_v[i] = alpha * (q_prev[i] - q[i] - config.l_star[j - 1]) + v_prev[i]
    new_v[vertices[0]] = 0.0

    return SwarmState(positions=q + config.params.dt * v, velocities=new_v,
                      velocities_prev=v, step=state.step + 1)


def reference_run_formation(initial, config, horizon, *, error_tolerance=1e-2, stride=1):
    """``run_formation``'s trace, recorded as each state is reached: its
    edge errors from rolled vertex indices and ``np.linalg.norm``, its
    snapshot, and the first step within tolerance.  A divergence re-raises
    with the trace so far as ``partial``."""
    trace = FormationTrace(dt=config.params.dt, tolerance=error_tolerance)
    vertices = np.array(config.spec.vertex_set)
    error_steps, errors = [], []

    def record(current):
        q = current.positions
        e = np.linalg.norm(q[vertices] - q[np.roll(vertices, -1)] - config.spec.r_star,
                           axis=1)
        error_steps.append(current.step)
        errors.append(e)
        if current.step % stride == 0 or current.step == horizon:
            trace.snapshot_steps.append(current.step)
            trace.snapshots.append(current)
        if trace.first_step_within_tol is None and e.max() < error_tolerance:
            trace.first_step_within_tol = current.step

    def finalize(last):
        trace.error_steps = np.array(error_steps, dtype=int)
        trace.errors = np.array(errors)
        trace.final_state = last
        trace.converged = bool(trace.errors[-1].max() < error_tolerance)

    state = initial
    record(state)
    try:
        for _ in range(horizon):
            state = step_formation(state, config)
            record(state)
    except DivergenceError as err:
        finalize(state)
        err.partial = trace
        raise
    finalize(state)
    return trace


def reference_formation_csvs(trace):
    """``trace.csv`` and ``errors.csv`` text of a collected formation trace,
    written as the CLI wrote it before it streamed: whole snapshots, then
    every row of the error array."""
    trace_rows = ["step,time,robot_id,px,py,vx,vy\n"]
    for step, state in zip(trace.snapshot_steps, trace.snapshots):
        for robot_id, (q, v) in enumerate(zip(state.positions.tolist(),
                                               state.velocities.tolist())):
            trace_rows.append(f"{step},{step * trace.dt!r},{robot_id},"
                              f"{q[0]!r},{q[1]!r},{v[0]!r},{v[1]!r}\n")
    error_rows = ["step,time,edge_id,error\n"]
    for step, errors in zip(trace.error_steps.tolist(), trace.errors.tolist()):
        error_rows += [f"{step},{step * trace.dt!r},{edge_id},{e!r}\n"
                       for edge_id, e in enumerate(errors)]
    return "".join(trace_rows), "".join(error_rows)


def reference_stop_rule(raws, window):
    """The documented stop rule, checked window by window in O(window).

    Returns ``(converged, estimate, step)`` for the first step whose last
    ``window`` raw readouts are finite, span less than one and round half
    up to one integer r >= 1; steps count from 1.
    """
    for step in range(window, len(raws) + 1):
        last = raws[step - window:step]
        if not all(math.isfinite(x) for x in last) or max(last) - min(last) >= 1.0:
            continue
        rounded = {math.floor(x + 0.5) for x in last}
        if len(rounded) == 1 and min(rounded) >= 1:
            return True, rounded.pop(), step
    return False, None, None


def reference_readout(ratio, beta, strategy):
    """The readout formulas for one ratio in scalar arithmetic: NaN outside
    their domain and for a degenerate S1 frame."""
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
    scaled = (1.0 + beta) * ratio
    den = 1.0 - scaled
    return scaled / den if den > 0.0 else math.nan


def _chain_ratio(state, config):
    x, y = (float(e) for e in config.excitation_init)
    vx, vy = state.velocities[-1]
    return math.sqrt(vx * vx + vy * vy) / math.sqrt(x * x + y * y)


def reference_estimation(n_prime, config, initial):
    """``run_estimation`` one step at a time: ``step_estimator`` with its
    own checks off, ``reference_readout`` and ``reference_stop_rule``.

    The checks are the estimator loop's: positions at every 64th step, and
    positions then velocities at a step whose ratio is not finite.  Returns
    ``(ratios, raws, (converged, estimate, stop))`` up to the stop, or
    raises the ``DivergenceError`` with ``(ratios, raws)`` before its step
    as ``partial``.
    """
    state = SwarmState.chain(n_prime, initial, config.excitation_init)
    ratios, raws, failure = [], [], None
    with mock.patch.object(ringform.estimation, "check_finite", lambda *args: None):
        for step in range(1, config.max_steps + 1):
            state = step_estimator(state, config)
            ratio = _chain_ratio(state, config)
            try:
                if step % 64 == 0:
                    check_finite(state.positions, step, "chain positions")
                if not math.isfinite(ratio):
                    check_finite(state.positions, step, "chain positions")
                    check_finite(state.velocities, step, "chain velocities")
            except DivergenceError as err:
                failure = err
                break
            ratios.append(ratio)
            raws.append(reference_readout(ratio, config.params.beta, config.strategy))
    outcome = reference_stop_rule(raws, config.stop_window)
    if outcome[0]:
        return ratios[:outcome[2]], raws[:outcome[2]], outcome
    if failure is not None:
        failure.partial = (ratios, raws)
        raise failure
    return ratios, raws, outcome


def trace_bits(trace):
    """Every field of an ``EstimateTrace``, its arrays as dtype and bytes,
    so that two traces compare equal only bit for bit, NaNs included."""
    return (trace.strategy, trace.n_prime_true, trace.converged, trace.estimate,
            trace.steps_to_convergence, trace.first_correct_step,
            *((a.dtype.str, a.tobytes())
              for a in (trace.steps, trace.ratios, trace.raw, trace.rounded)))


def reference_steady_ratio(n_prime, config):
    """``steady_velocity_ratios``' settle rule one step at a time from rest:
    returns the ratio and the step at which it settled."""
    state = SwarmState.chain(n_prime, None, config.excitation_init)
    previous, quiet = math.inf, 0
    while quiet < 25:
        state = step_estimator(state, config)
        ratio = _chain_ratio(state, config)
        quiet = quiet + 1 if abs(ratio - previous) < 1e-12 else 0
        previous = ratio
    return ratio, state.step


def reference_sweep(n_range, reps, *, dt=0.01, scale_per_n=False, seed=0,
                    initial_box=5.0, max_steps=60000):
    """``sweep_convergence`` rows, one chain at a time: every (n, strategy,
    rep) chain is a ``run_estimation`` call on its own keyed placement."""
    n_lo, n_hi = n_range
    rows = []
    for n in range(n_lo, n_hi + 1):
        n_prime = n - 1
        for strat_idx, strategy in enumerate(("S1", "S2")):
            p = scaled_params(n_prime if scale_per_n else n_hi - 1, dt)
            window = auto_stop_window(n_prime, p, strategy)
            config = EstimatorConfig(params=p, strategy=strategy, stop_window=window,
                                     max_steps=max(max_steps, window + 1))
            steps, correct = [], True
            for rep in range(reps):
                trace = run_estimation(n_prime, config, seed=seed,
                                       seed_stream=n * 1000 + strat_idx * 100 + rep,
                                       initial_box=initial_box)
                correct = correct and trace.converged and trace.estimate == n_prime
                steps.append(trace.steps_to_convergence or config.max_steps)
            rows.append(SweepRow(n=n, strategy=strategy, reps=reps,
                                 mean_steps=float(np.mean(steps)), all_correct=correct))
    return rows


def iterate_estimator(matrices, initial_positions, excitation, steps):
    """Reference iteration s(t+1) = A s(t) + b e(t), e alternating.

    Returns the list of states after each of ``steps`` steps, one
    (2d x 2) array per step: positions stacked over velocities.
    Initial velocities are zero.
    """
    d = matrices.order
    A = matrices.dense
    b = matrices.input_matrix[:, 0]
    s = np.zeros((2 * d, 2))
    if initial_positions is not None:
        s[:d] = initial_positions
    e = np.asarray(excitation, dtype=float).copy()
    out = []
    for _ in range(steps):
        s = A @ s + np.outer(b, e)
        e = -e
        out.append(s.copy())
    return out


def iterate_lagged_estimator(matrices, initial_positions, excitation, steps):
    """Reference iteration for the 3d x 3d lagged chain, layout [q, v_old, v]."""
    d = matrices.order
    A = matrices.dense
    b = matrices.input_matrix[:, 0]
    s = np.zeros((3 * d, 2))
    if initial_positions is not None:
        s[:d] = initial_positions
    e = np.asarray(excitation, dtype=float).copy()
    out = []
    for _ in range(steps):
        s = A @ s + np.outer(b, e)
        e = -e
        out.append(s.copy())
    return out


def iterate_formation_chain(matrices, initial_positions, initial_velocities,
                            anchor_position, anchor_velocity, l_star, steps,
                            initial_velocities_prev=None):
    """Reference iteration s(t+1) = A_f s(t) + B_f u_f for one chain.

    A lagged chain (layout [q, v_old, v], 3n rows) starts its stale layer
    at ``initial_velocities_prev``, zero if not given.
    """
    n = matrices.order
    A = matrices.dense
    B = matrices.input_matrix
    s = np.zeros((A.shape[0], 2))
    s[:n] = initial_positions
    s[-n:] = initial_velocities
    if initial_velocities_prev is not None:
        s[n:2 * n] = initial_velocities_prev
    u = np.column_stack([anchor_position, anchor_velocity, l_star]).T  # (3, 2)
    out = []
    for _ in range(steps):
        s = A @ s + B @ u
        out.append(s.copy())
    return out


def chain_mode_cosines(d):
    return np.cos(np.arange(1, d + 1) * np.pi / (d + 1))


def analytic_estimator_radius(d, alpha, dt):
    """Spectral radius of the 2d x 2d chain matrix from per-mode quadratics.

    The two tridiagonal blocks share the sine eigenbasis, so the matrix
    splits into d two-by-two companions with characteristic polynomial
    z^2 - (1 + c) z + c + alpha dt (1 - c).
    """
    worst = 0.0
    for c in chain_mode_cosines(d):
        roots = np.roots([1.0, -(1.0 + c), c + alpha * dt * (1.0 - c)])
        worst = max(worst, max(abs(roots)))
    return worst


def analytic_lagged_radius(d, alpha, dt):
    """Same decomposition for the 3d x 3d lagged matrix (cubic per mode)."""
    worst = 0.0
    for c in chain_mode_cosines(d):
        roots = np.roots([1.0, -1.0, alpha * dt * (1.0 - c) - c, c])
        worst = max(worst, max(abs(roots)))
    return worst


def dense_gain(d, beta, strategy):
    """Last diagonal entry of the inverse of the steady-state matrix."""
    m = readout_matrix_dense(d, beta, strategy)
    return np.linalg.inv(m)[-1, -1]


def readout_matrix_dense(d, beta, strategy):
    off = (1.0 - beta) / 2.0 if strategy == "S1" else -(1.0 + beta) / 2.0
    m = np.zeros((d, d))
    np.fill_diagonal(m, 1.0 + beta)
    idx = np.arange(d - 1)
    m[idx, idx + 1] = off
    m[idx + 1, idx] = off
    return m


def lu_determinant(matrix):
    return float(np.linalg.det(matrix))
