"""Self-organized polygon formation on the full ring.

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
    uniform_box,
)
from .estimation import (
    ChainBatch,
    EstimatorConfig,
    EstimateTrace,
    run_estimation,
    warn_unstable,
)
from .spectral import EstimationParams
from .topology import (
    ChainSegment,
    PolygonSpec,
    RingTopology,
    cut_ring,
    validate_polygon_closure,
)


class PipelineEstimationError(RuntimeError):
    """Phase 1 failed: some chain estimate missing or wrong."""

    def __init__(self, message, traces=None):
        super().__init__(message)
        self.traces = traces or []


@dataclass(frozen=True, eq=False)
class FormationConfig:
    """Everything a formation run needs besides the initial state.

    The ring is cut into its chains once, here (``cut_ring``): ``segments``
    are the chains and ``n_s`` their sizes, which phase 1 of a pipeline
    must estimate exactly; ``l_star`` holds the per-link spacing targets,
    one row per segment (r*_i / n^s_i), and ``vertices`` the vertex
    robots' indices, pinned vertex first.  ``sigma`` selects the velocity
    measurement lag: 1 reads current neighbour velocities, 2 reads the
    one-step-old layer.
    """

    ring: RingTopology
    spec: PolygonSpec
    params: EstimationParams
    sigma: int = 1
    segments: tuple[ChainSegment, ...] = field(init=False)
    n_s: tuple[int, ...] = field(init=False)
    l_star: np.ndarray = field(init=False)
    vertices: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.sigma not in (1, 2):
            raise ValueError(f"sigma must be 1 or 2, got {self.sigma}")
        if not validate_polygon_closure(self.spec):
            raise ValueError("polygon does not close: desired displacements must sum to 0")
        segments = tuple(cut_ring(self.ring, self.spec))
        object.__setattr__(self, "segments", segments)
        object.__setattr__(self, "n_s", tuple(seg.cardinality for seg in segments))
        l_star = self.spec.r_star / np.array(self.n_s, dtype=float)[:, None]
        l_star.setflags(write=False)
        object.__setattr__(self, "l_star", l_star)
        vertices = np.array(self.spec.vertex_set)
        vertices.setflags(write=False)
        object.__setattr__(self, "vertices", vertices)

    def chain_batch(self, positions: np.ndarray, est_config: EstimatorConfig) -> ChainBatch:
        """Phase-1 chains of the placement ``positions``: each segment's
        members in its anchor's frame, run under ``est_config`` and named
        ``segment <id>``."""
        return ChainBatch(
            [positions[list(seg.members)] - positions[seg.anchor] for seg in self.segments],
            [est_config] * len(self.segments),
            [f"segment {seg.segment_id}" for seg in self.segments],
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


def relative_distance_errors(state: SwarmState, spec: PolygonSpec) -> np.ndarray:
    """Per-edge formation error: ||(q_vertex_i - q_vertex_{i+1}) - r*_i||."""
    return _edge_errors(state.positions[list(spec.vertex_set)], spec.r_star)


def predicted_equilibrium(config: FormationConfig,
                          anchor: np.ndarray = (0.0, 0.0)) -> SwarmState:
    """Cascade fixed point: segment i robots at anchor_i - j * l*_i.

    ``anchor`` is where the pinned vertex sits; the formation never moves
    it, so a run's equilibrium has it at its initial position.  Segment
    anchors accumulate the desired displacements, so the terminal of the
    last segment lands back on the pinned vertex (closure makes the
    cascade consistent with the ring).  All velocities are zero.
    """
    positions = np.zeros((config.ring.n_total, 2))
    positions[config.spec.vertex_set[0]] = anchor
    for seg in config.segments:
        spacing = config.l_star[seg.segment_id]
        base = positions[seg.anchor]
        for j, member in enumerate(seg.members, start=1):
            positions[member] = base - j * spacing
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
    edge errors of the last step reached), ``converged`` and
    ``first_step_within_tol``.  Run without a ``sink``, it also fills the
    snapshots with their steps and every step's edge errors, row i of
    ``errors`` at step ``error_steps[i]``.
    """

    dt: float
    tolerance: float
    snapshot_steps: list[int] = field(default_factory=list)
    snapshots: list[SwarmState] = field(default_factory=list)
    error_steps: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))
    errors: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    final_state: SwarmState | None = None
    final_errors: np.ndarray | None = None
    converged: bool = False
    first_step_within_tol: int | None = None


class _Collector:
    """``run_formation``'s default consumer: keeps every snapshot and error
    block, then fills the trace with them."""

    def __init__(self):
        self.snapshots = []
        self.steps = []
        self.errors = []

    def add_snapshot(self, state: SwarmState) -> None:
        self.snapshots.append(state)

    def add_errors(self, steps: np.ndarray, errors: np.ndarray) -> None:
        self.steps.append(steps)
        self.errors.append(errors)

    def fill(self, trace: FormationTrace) -> None:
        trace.snapshot_steps = [state.step for state in self.snapshots]
        trace.snapshots = self.snapshots
        trace.error_steps = np.concatenate(self.steps)
        trace.errors = np.concatenate(self.errors)


def run_formation(
    initial: SwarmState,
    config: FormationConfig,
    horizon: int,
    *,
    error_tolerance: float = 1e-2,
    stride: int = 1,
    sink=None,
) -> FormationTrace:
    """Run the ring for ``horizon`` steps, handing its output to ``sink``.

    ``sink.add_snapshot(state)`` receives each state, ``initial``
    included, whose step is a multiple of ``stride`` or equals
    ``horizon``, when it is reached.  ``sink.add_errors(steps, errors)``
    receives the per-edge errors of every step, ``errors[i]`` those of
    step ``steps[i]``, in blocks of ``BLOCK_STEPS`` steps; the last block
    ends with the run, or with the step before a divergence.  The
    ``DivergenceError`` carries the trace so far as ``partial``.  Without
    ``sink`` the returned trace collects both.

    The loop steps in wrapped rings (see ``step_formation``) that it
    reuses: two for positions and three for velocities, since sigma = 2
    reads the layer before the current one.  A snapshot between
    ``initial`` and the last step holds copies of its state's arrays,
    since later steps overwrite the rings; so no snapshot is mutated or
    shares memory with another.  ``final_state`` is the last state
    reached, the last snapshot when that state was kept.  The trace is
    flagged converged when the largest edge error at the final step is
    below ``error_tolerance``.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least one step")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    if initial.positions.shape != (config.ring.n_total, 2):
        raise ValueError(
            f"initial state has {initial.positions.shape[0]} robots, "
            f"ring expects {config.ring.n_total}"
        )
    largest = max(config.n_s)
    warn_unstable(config.params, largest, "S1" if config.sigma == 1 else "S2",
                  f"the largest segment ({largest} robots)", stacklevel=2)

    trace = FormationTrace(dt=config.params.dt, tolerance=error_tolerance)
    collector = None
    if sink is None:
        sink = collector = _Collector()
    # Row r holds the vertex positions of step ``first + r``.
    corners = np.empty((min(horizon + 1, BLOCK_STEPS), config.spec.m, 2))
    first = initial.step
    # The state at step k lives in q_cur, v_cur and v_old (its
    # ``velocities_prev``); step k + 1 is written into q_new and v_new.
    q_cur, q_new = _wrap(initial.positions), np.empty((config.ring.n_total + 2, 2))
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
            # The indices are in range (checked by ``cut_ring``), so "clip"
            # only spares numpy the buffered copy its default mode makes.
            state.positions.take(config.vertices, axis=0, out=corners[row], mode="clip")
            row += 1
            if state.step % stride == 0 or state.step == horizon:
                if 0 < count < horizon:
                    last = SwarmState(state.positions.copy(), state.velocities.copy(),
                                      state.velocities_prev.copy(), state.step)
                sink.add_snapshot(last)
            if row == len(corners) or count == horizon:
                _hand_over(trace, sink, corners[:row], first, config.spec.r_star)
                first += row
                row = 0
    except DivergenceError as err:
        _hand_over(trace, sink, corners[:row], first, config.spec.r_star)
        err.partial = _finish(trace, collector, last)
        raise
    return _finish(trace, collector, last)


def _hand_over(trace: FormationTrace, sink, corners: np.ndarray, first: int,
               r_star: np.ndarray) -> None:
    """Pass the edge errors of the vertex rows ``corners``, steps ``first``
    onwards, to ``sink``, and bring ``trace``'s verdict up to them."""
    if not len(corners):
        return
    errors = _edge_errors(corners, r_star)
    steps = np.arange(first, first + len(corners))
    if trace.first_step_within_tol is None:
        within = np.flatnonzero(errors.max(axis=1) < trace.tolerance)
        if within.size:
            trace.first_step_within_tol = int(steps[within[0]])
    trace.final_errors = errors[-1].copy()
    trace.converged = bool(trace.final_errors.max() < trace.tolerance)
    sink.add_errors(steps, errors)


def _finish(trace: FormationTrace, collector: _Collector | None,
            last: SwarmState) -> FormationTrace:
    trace.final_state = last
    if collector is not None:
        collector.fill(trace)
    return trace


def seeded_placement(ring: RingTopology, seed: int, initial_box: float) -> SwarmState:
    """A run's start: the ring at rest, placed uniformly in the box from
    stream ``(seed, 0)``."""
    return SwarmState.at_rest(uniform_box(make_generator(seed, 0), ring.n_total, initial_box))


@dataclass
class PipelineResult:
    estimates: list[int]
    estimate_traces: list[EstimateTrace]
    formation: FormationTrace
    initial_state: SwarmState


def run_pipeline(
    config: FormationConfig,
    est_config: EstimatorConfig,
    seed: int,
    *,
    horizon: int = 2000,
    initial_box: float = 5.0,
    error_tolerance: float = 1e-2,
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
    the ring under ``config`` from the same initial placement.  A
    ``DivergenceError`` carries every trace run so far as its ``partial``
    list: in phase 1 every chain's trace, the chains still running at the
    divergence ending the step before it; in phase 2 the chain traces,
    then the formation's partial trace.  A phase-1 divergence names the
    segment, ``segment <id>``.

    ``open_sink``, when given, is called with the chain traces once phase
    1 has succeeded, and returns the formation's ``sink`` (see
    ``run_formation``).
    """
    initial = seeded_placement(config.ring, seed, initial_box)
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
        formation = run_formation(
            initial, config, horizon, error_tolerance=error_tolerance, stride=stride,
            sink=sink,
        )
    except DivergenceError as err:
        err.partial = traces + [err.partial]
        raise
    return PipelineResult(
        estimates=estimates,
        estimate_traces=traces,
        formation=formation,
        initial_state=initial,
    )
