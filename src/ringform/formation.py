"""Self-organized polygon formation on the full ring.

Robots sit on a cycle and sense only their two ring neighbours.  A
polygon is prescribed by a few vertex robots plus the desired
displacement between consecutive vertices; cutting the ring at the
vertices yields one open chain per polygon edge, each headed by its
vertex (``FormationConfig``).

Non-vertex robots chase the midpoint of their two ring neighbours and
average their (possibly lagged) velocities; each vertex robot except the
pinned one tracks its ring predecessor at the prescribed per-link spacing.
The pinned vertex never moves and anchors the whole pattern in the plane.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    DivergenceError,
    SwarmState,
    check_finite,
    make_generator,
    midpoint_law,
    quoted,
    require,
    uniform_box,
)
from .estimation import ChainBatch, EstimatorConfig, run_estimation
from .spectral import EstimationParams, chain_modes, decay_seconds, spectral_radius

CLOSURE_TOL = 1e-9  # metres, absorbs decimal round-off in hand-written r*
FORMATION_TOL = 1e-2  # metres, the largest edge error that counts as formed


class PipelineEstimationError(RuntimeError):
    """Phase 1 failed: some chain estimate missing or wrong.  ``partial``
    lists the chain traces, as a ``DivergenceError``'s does."""

    def __init__(self, message, partial):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True, eq=False)
class FormationConfig:
    """The ring, its polygon and the formation law: everything a formation
    run needs besides the initial state.

    ``n_total`` robots sit on the ring, indices taken mod ``n_total``.
    ``vertex_set`` holds the vertex robots' indices, strictly increasing,
    the pinned vertex first; ``r_star[i]`` is the desired displacement
    from vertex i to vertex i + 1 (cyclically), in metres, and the
    displacements must sum to zero, within ``CLOSURE_TOL`` per component.
    A fault raises ``ParameterError``, the ring size and every index's range first.

    The ring is cut here, once: chain i runs from vertex i (exclusive) to
    vertex i + 1 (inclusive), wrapping modulo ``n_total``, so the wrapping
    chain is the last one and every robot is in exactly one chain.
    ``n_s`` holds the chains' sizes, which phase 1 of a pipeline must
    estimate exactly; ``l_star`` the per-link spacing targets, one row per
    chain (r*_i / n^s_i); ``vertices`` the vertex indices as an array.
    The cut is O(m) whatever the ring's size: ``members`` lists a chain's
    robots only when asked.  ``sigma`` selects the velocity measurement
    lag: 1 reads current neighbour velocities, 2 reads the one-step-old
    layer.
    """

    n_total: int
    vertex_set: tuple[int, ...]
    r_star: np.ndarray
    params: EstimationParams
    sigma: int = 1
    n_s: tuple[int, ...] = field(init=False)
    l_star: np.ndarray = field(init=False)
    vertices: np.ndarray = field(init=False)

    def __post_init__(self):
        n = self.n_total
        require(n >= 3, "n_total", f"a ring needs at least 3 robots, got {quoted(n)}")
        vertex_set = tuple(int(v) for v in self.vertex_set)
        require(all(0 <= v < n for v in vertex_set), "vertex_set",
                f"vertex indices out of range [0, {quoted(n)})")
        m = len(vertex_set)
        require(m >= 3, "vertex_set", "polygon needs at least 3 vertex robots")
        require(all(a < b for a, b in zip(vertex_set, vertex_set[1:])), "vertex_set",
                "must be strictly increasing")
        r_star = np.array(self.r_star, dtype=float)
        require(r_star.shape == (m, 2), "r_star", f"must have shape ({m}, 2), got {r_star.shape}")
        require(self.sigma in (1, 2), "sigma", f"must be 1 or 2, got {quoted(self.sigma)}")
        x, y = r_star.sum(axis=0)  # a NaN sum fails the rule
        require(abs(x) <= CLOSURE_TOL and abs(y) <= CLOSURE_TOL, "r_star",
                f"polygon does not close; sum of displacements is ({x:.3e}, {y:.3e})")
        n_s = tuple((b - a) % n for a, b in zip(vertex_set, vertex_set[1:] + vertex_set[:1]))
        l_star = r_star / np.array(n_s, dtype=float)[:, None]
        vertices = np.array(vertex_set)
        for array in (r_star, l_star, vertices):
            array.setflags(write=False)
        for name, value in (("vertex_set", vertex_set), ("r_star", r_star), ("n_s", n_s),
                            ("l_star", l_star), ("vertices", vertices)):
            object.__setattr__(self, name, value)

    def members(self, i: int) -> np.ndarray:
        """Chain i's robots in ring order, ending on vertex i + 1."""
        first = self.vertex_set[i] + 1
        return np.arange(first, first + self.n_s[i]) % self.n_total

    def chains(self) -> list[tuple[int, str]]:
        """``(order, kind)`` of the chains whose modes are the ring's: segments
        0..m-2 as formation chains (a lone vertex as an order-1 estimator), the
        wrapping one's n_w - 1 robots before the pinned vertex as an estimator."""
        lag = "lagged_" if self.sigma == 2 else ""
        *inner, n_w = self.n_s
        return ([(n, lag + ("formation" if n >= 2 else "estimator")) for n in inner]
                + [(n_w - 1, lag + "estimator")] * (n_w > 1))

    def chain_batch(self, positions: np.ndarray, est_config: EstimatorConfig) -> ChainBatch:
        """Phase-1 chains of the placement ``positions``: each chain's
        members in its vertex's frame, run under ``est_config`` and named
        ``segment <i>``."""
        return ChainBatch(
            [positions[self.members(i)] - positions[vertex]
             for i, vertex in enumerate(self.vertex_set)],
            [est_config] * len(self.n_s),
            [f"segment {i}" for i in range(len(self.n_s))],
        )


def _wrap(values: np.ndarray) -> np.ndarray:
    """``values`` as a wrapped ring: row i + 1 is robot i, rows 0 and -1
    repeat the last and the first robot."""
    return np.concatenate([values[-1:], values, values[:1]])


def step_formation(state: SwarmState, config: FormationConfig, rings=None) -> SwarmState:
    """One synchronous ring step; returns the successor state.

    Every robot computes its next velocity from the same snapshot, then
    positions integrate the pre-update velocities.  The pinned vertex keeps
    zero velocity, so its position never changes.

    ``rings`` is ``(q_ring, vlag_ring, next_q_ring, next_v_ring)``, four
    wrapped (n + 2, 2) arrays.  The first two hold ``state``'s positions
    and the velocities the law reads (``velocities`` at sigma = 1,
    ``velocities_prev`` at sigma = 2); the step writes the successor into
    the last two, whose rows 1..n become its positions and velocities.
    Without ``rings`` the first two are wrapped copies and the last two
    fresh arrays.  ``state`` itself is only read.
    """
    alpha = config.params.alpha
    q = state.positions
    v = state.velocities
    if rings is None:
        vlag = v if config.sigma == 1 else state.velocities_prev
        rings = (_wrap(q), _wrap(vlag), np.empty((len(q) + 2, 2)), np.empty((len(q) + 2, 2)))
    q_ring, v_ring, next_q, next_v = rings
    new_q = next_q[1:-1]
    new_v = next_v[1:-1]

    # ``new_q`` is free scratch until the positions integrate below.
    midpoint_law(q_ring, v_ring, alpha, out=new_v, scratch=new_q)
    vertices = config.vertices
    tracking = vertices[1:]
    new_v[tracking] = (
        alpha * (q_ring[tracking] - q[tracking] - config.l_star[:-1]) + v_ring[tracking]
    )
    new_v[vertices[0]] = 0.0

    np.multiply(config.params.dt, v, out=new_q)
    np.add(q, new_q, out=new_q)

    next_q[0] = new_q[-1]
    next_q[-1] = new_q[0]
    next_v[0] = new_v[-1]
    next_v[-1] = new_v[0]

    check_finite(new_q, state.step + 1, "ring positions")
    check_finite(new_v, state.step + 1, "ring velocities")

    return SwarmState(
        positions=new_q,
        velocities=new_v,
        velocities_prev=v,
        step=state.step + 1,
    )


def _edge_errors(corners: np.ndarray, r_star: np.ndarray) -> np.ndarray:
    """Per-edge formation error ||(c_i - c_{i+1}) - r*_i|| of vertex
    positions ``corners`` shaped (..., m, 2), edges cyclic.

    Computed in one rolled copy of ``corners``, in the operation order of
    ``np.linalg.norm(..., axis=-1)``, so the bits match it.
    """
    diffs = np.roll(corners, -1, axis=-2)
    np.subtract(corners, diffs, out=diffs)
    diffs -= r_star
    diffs *= diffs
    errors = np.add.reduce(diffs, axis=-1)
    return np.sqrt(errors, out=errors)


def relative_distance_errors(state: SwarmState, config: FormationConfig) -> np.ndarray:
    """Per-edge formation error: ||(q_vertex_i - q_vertex_{i+1}) - r*_i||."""
    return _edge_errors(state.positions[config.vertices], config.r_star)


def _cascade(config: FormationConfig, anchor):
    """Each chain's members and their cascade fixed point, the pinned vertex at ``anchor``."""
    corner = np.asarray(anchor, dtype=float)
    for i, (n, l_star) in enumerate(zip(config.n_s, config.l_star)):
        chain = corner - np.arange(1, n + 1)[:, None] * l_star
        yield config.members(i), chain
        corner = chain[-1]


def predicted_equilibrium(config: FormationConfig,
                          anchor: np.ndarray = (0.0, 0.0)) -> SwarmState:
    """Cascade fixed point: the j-th robot of chain i at q_vertex_i - j * l*_i.

    ``anchor`` is where the pinned vertex sits; the formation never moves
    it, so a run's equilibrium has it at its initial position.  The
    vertices accumulate the desired displacements, so the last robot of
    the wrapping chain lands back on the pinned vertex (closure makes the
    cascade consistent with the ring).  All velocities are zero.
    """
    positions = np.empty((config.n_total, 2))
    for members, chain in _cascade(config, anchor):
        positions[members] = chain
    return SwarmState.at_rest(positions)


# Steps per output block.  The loop keeps one block of vertex rows, and
# computes and hands over one block of edge errors at a time, so a run's
# memory does not grow with its horizon.  On the hexagon, blocks of 64 to
# 18 001 steps time the same within noise; 1 024 keeps the block arrays
# near 250 KiB there and errors.csv at 18 flushes.
BLOCK_STEPS = 1024


@dataclass
class FormationTrace:
    """A formation run's verdict, and its whole record when it was kept.

    ``run_formation`` always fills ``final_state``, ``final_errors`` (the
    edge errors of the last step reached), ``converged`` (their largest below
    ``FORMATION_TOL``), ``first_step_within_tol``, and ``peak_error``, the
    largest edge error of any step, first at ``peak_step``.  Run without a
    ``sink``, the trace is its own sink: ``add_snapshot`` keeps the
    snapshots with their steps, and ``add_errors`` the blocks of every
    step's edge errors, which the run joins once as it ends, row i of
    ``errors`` at step ``error_steps[i]``.
    """

    snapshot_steps: list[int] = field(default_factory=list)
    snapshots: list[SwarmState] = field(default_factory=list)
    error_steps: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))
    errors: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    final_state: SwarmState | None = None
    final_errors: np.ndarray | None = None
    converged: bool = False
    first_step_within_tol: int | None = None
    peak_error: float | None = None
    peak_step: int | None = None
    _blocks: list = field(default_factory=list, repr=False)

    def add_snapshot(self, state: SwarmState) -> None:
        self.snapshot_steps.append(state.step)
        self.snapshots.append(state)

    def add_errors(self, steps: np.ndarray, errors: np.ndarray) -> None:
        self._blocks.append((steps, errors))


def run_formation(
    initial: SwarmState,
    config: FormationConfig,
    horizon: int,
    *,
    stride: int = 1,
    sink=None,
) -> FormationTrace:
    """Run the ring for ``horizon`` steps, handing its output to ``sink``.

    ``sink.add_snapshot(state)`` receives each state, ``initial``
    included, whose step is a multiple of ``stride`` or is the last,
    ``initial.step + horizon``, when it is reached.
    ``sink.add_errors(steps, errors)`` receives the per-edge errors of
    every step, ``errors[i]`` those of step ``steps[i]``, in blocks of
    ``BLOCK_STEPS`` steps; the last block ends with the run, or with the
    step before a divergence.  The ``DivergenceError`` carries
    ``[trace]``, the trace so far, as ``partial``.  Without ``sink`` the
    returned trace is the sink and keeps both (see ``FormationTrace``).

    The loop steps in wrapped rings (see ``step_formation``) that it
    reuses: two for positions and three for velocities, since sigma = 2
    reads the layer before the current one.  A snapshot between
    ``initial`` and the last step holds copies of its state's arrays,
    since later steps overwrite the rings; so no snapshot is mutated or
    shares memory with another.  ``final_state`` is the last state
    reached, the last snapshot when that state was kept.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least one step")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    if initial.positions.shape != (config.n_total, 2):
        raise ValueError(
            f"initial state has {initial.positions.shape[0]} robots, "
            f"ring expects {config.n_total}"
        )
    trace = FormationTrace()
    if sink is None:
        sink = trace
    # Row r holds the vertex positions of step ``first + r``.
    corners = np.empty((min(horizon + 1, BLOCK_STEPS), len(config.vertices), 2))
    first, end = initial.step, initial.step + horizon
    # The state at step k lives in q_cur, v_cur and v_old (its
    # ``velocities_prev``); step k + 1 is written into q_new and v_new.
    q_cur, q_new = _wrap(initial.positions), np.empty((config.n_total + 2, 2))
    v_old, v_cur = _wrap(initial.velocities_prev), _wrap(initial.velocities)
    v_new = np.empty_like(q_new)
    lagged = config.sigma == 2
    state = SwarmState(q_cur[1:-1], v_cur[1:-1], v_old[1:-1], initial.step)
    # ``last`` becomes ``final_state``: the last state reached, or its
    # snapshot.
    last = initial
    row = 0
    try:
        for count in range(horizon + 1):
            if count:
                state = last = step_formation(state, config,
                                              (q_cur, v_old if lagged else v_cur, q_new, v_new))
                q_cur, q_new = q_new, q_cur
                v_old, v_cur, v_new = v_cur, v_new, v_old
            # The indices are in range (checked by ``FormationConfig``), so "clip"
            # only spares numpy the buffered copy its default mode makes.
            state.positions.take(config.vertices, axis=0, out=corners[row], mode="clip")
            row += 1
            if state.step % stride == 0 or state.step == end:
                if 0 < count < horizon:
                    last = SwarmState(state.positions.copy(), state.velocities.copy(),
                                      state.velocities_prev.copy(), state.step)
                sink.add_snapshot(last)
            if row == len(corners) or count == horizon:
                _hand_over(trace, sink, corners[:row], first, config.r_star)
                first += row
                row = 0
    except DivergenceError as err:
        _hand_over(trace, sink, corners[:row], first, config.r_star)
        err.partial = [trace]
        raise
    finally:
        trace.final_state = last
        if trace._blocks:  # the trace is its own sink: one join, not one per block
            trace.error_steps, trace.errors = map(np.concatenate, zip(*trace._blocks))
            trace._blocks.clear()
    return trace


def _hand_over(trace: FormationTrace, sink, corners: np.ndarray, first: int,
               r_star: np.ndarray) -> None:
    """Pass the edge errors of the vertex rows ``corners``, steps ``first``
    onwards, to ``sink``, and bring ``trace``'s verdict up to them."""
    if not len(corners):
        return
    errors = _edge_errors(corners, r_star)
    steps = np.arange(first, first + len(corners))
    largest = errors.max(axis=1)
    if trace.first_step_within_tol is None:
        within = np.flatnonzero(largest < FORMATION_TOL)
        if within.size:
            trace.first_step_within_tol = int(steps[within[0]])
    top = int(largest.argmax())
    if trace.peak_error is None or largest[top] > trace.peak_error:
        trace.peak_error, trace.peak_step = float(largest[top]), int(steps[top])
    trace.final_errors = errors[-1].copy()
    trace.converged = bool(trace.final_errors.max() < FORMATION_TOL)
    sink.add_errors(steps, errors)


def summarize(trace: FormationTrace, config: FormationConfig) -> dict:
    """A finished run's figures, JSON-ready, from its ``trace`` on the ring ``config``:
    the largest edge error at the last step and at its peak, the first time it is
    within ``FORMATION_TOL``, the last step's largest vertex speed, link error from
    l* and distance from ``predicted_equilibrium``, and the ring's per-step radius
    with its ``decay_seconds``; chain by chain, never through a whole-ring temporary."""
    q = trace.final_state.positions
    spacing = deviation = 0.0
    for i, (members, predicted) in enumerate(_cascade(config, q[config.vertices[0]])):
        chain = q[members]
        links = np.diff(chain, axis=0, prepend=q[config.vertices[i:i + 1]]) + config.l_star[i]
        spacing = max(spacing, float(np.linalg.norm(links, axis=1).max()))
        deviation = max(deviation, float(np.linalg.norm(chain - predicted, axis=1).max()))
    speeds = np.linalg.norm(trace.final_state.velocities[config.vertices], axis=1)
    rho = max(spectral_radius(chain_modes(order, config.params, kind))
              for order, kind in config.chains())
    dt, first = config.params.dt, trace.first_step_within_tol
    return {
        "max_error_final": float(trace.final_errors.max()),
        "max_error_peak": trace.peak_error,
        "max_error_peak_step": trace.peak_step,
        "first_time_within_tol": None if first is None else first * dt,
        "max_vertex_speed_final": float(speeds.max()),
        "interior_spacing_error": spacing,
        "equilibrium_deviation": deviation,
        "rho_chain": rho,
        "decay_seconds": decay_seconds(rho, dt),
    }


def seeded_placement(n_total: int, seed: int, initial_box: float) -> SwarmState:
    """A run's start: a ring of ``n_total`` robots at rest, placed uniformly
    in the box from stream ``(seed, 0)``."""
    return SwarmState.at_rest(uniform_box(make_generator(seed, 0), n_total, initial_box))


@dataclass
class PipelineResult:
    estimates: list[int]
    formation: FormationTrace
    initial_state: SwarmState


def run_pipeline(
    config: FormationConfig,
    est_config: EstimatorConfig,
    seed: int,
    *,
    horizon: int,
    initial_box: float = 5.0,
    stride: int = 1,
    open_sink=None,
) -> PipelineResult:
    """Estimation phase followed by formation, from one seeded placement.

    Phase 1 runs one estimator chain per segment of ``config`` in its
    anchor's frame, starting from the actual relative positions of the
    segment members: all segments' chains as one ``ChainBatch``
    (``FormationConfig.chain_batch``), which the first of the per-segment
    ``run_estimation`` calls runs.  Phase 2 refuses to start unless every
    estimate converged to its segment's size in ``config.n_s``, then runs
    the ring under ``config`` from the same initial placement.  An early
    stop carries every trace run so far, in run order, as its ``partial``
    list.  A ``PipelineEstimationError`` (an estimate missing or wrong)
    carries the chain traces.  A ``DivergenceError`` carries in phase 1
    every chain's trace, the chains still running at the divergence ending
    the step before it, and names the segment, ``segment <id>``; in phase
    2 the chain traces, then the formation's partial trace.

    ``open_sink``, when given, is called with the chain traces once phase
    1 has succeeded, and returns the formation's ``sink`` (see
    ``run_formation``).
    """
    initial = seeded_placement(config.n_total, seed, initial_box)
    batch = config.chain_batch(initial.positions, est_config)
    # Still one run_estimation call per chain, the calls perfbench's
    # tracer counts; the first one steps the whole batch.
    traces = [run_estimation(n, est_config, batch=batch, column=b)
              for b, n in enumerate(config.n_s)]
    estimates = [trace.estimate for trace in traces]

    detail = ", ".join(
        f"segment {sid}: got {est}, expected {true}"
        for sid, (est, true) in enumerate(zip(estimates, config.n_s))
        if est != true
    )
    if detail:
        raise PipelineEstimationError(
            f"estimation phase failed ({detail}); formation not started", traces
        )

    sink = None if open_sink is None else open_sink(traces)
    try:
        formation = run_formation(initial, config, horizon, stride=stride, sink=sink)
    except DivergenceError as err:
        err.partial = traces + err.partial
        raise
    return PipelineResult(estimates=estimates, formation=formation, initial_state=initial)
