import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    iterate_formation_chain,
    reference_equilibrium_deviation,
    reference_run_formation,
    reference_spacing_error,
    reference_step_formation,
    shipped_config,
    trace_bits,
)
from ringform import formation
from ringform.core import (
    DivergenceError,
    SwarmState,
    make_generator,
    uniform_box,
)
from ringform.estimation import EstimatorConfig, chain_traces
from ringform.formation import (
    FORMATION_TOL,
    FormationConfig,
    PipelineEstimationError,
    predicted_equilibrium,
    relative_distance_errors,
    run_formation,
    run_pipeline,
    seeded_placement,
    step_formation,
    summarize,
)
from ringform.spectral import (
    EstimationParams,
    build_estimator_matrix,
    build_formation_matrix,
    build_lagged_estimator_matrix,
    build_lagged_formation_matrix,
    chain_modes,
    spectral_radius,
    stability_bound,
    stability_limit,
)

TRI_R = np.array([[1.0, -2.0], [2.0, 2.0], [-3.0, 0.0]])
TRI_PARAMS = EstimationParams(alpha=0.3, dt=0.2)


def triangle_config(sigma=1):
    return FormationConfig(7, (0, 2, 5), TRI_R, TRI_PARAMS, sigma=sigma)


# robots 1..6 relative to the pinned vertex, from the cascade arithmetic
TRI_EQUILIBRIUM = np.array(
    [
        [-0.5, 1.0],
        [-1.0, 2.0],
        [-5.0 / 3.0, 4.0 / 3.0],
        [-7.0 / 3.0, 2.0 / 3.0],
        [-3.0, 0.0],
        [-1.5, 0.0],
    ]
)


class TestPredictedEquilibrium:
    def test_triangle_cascade_positions(self):
        state = predicted_equilibrium(triangle_config())
        np.testing.assert_allclose(state.positions[0], [0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(state.positions[1:], TRI_EQUILIBRIUM, atol=1e-12)
        np.testing.assert_allclose(state.velocities, np.zeros((7, 2)), atol=1e-15)

    def test_triangle_translates_with_anchor(self):
        state = predicted_equilibrium(triangle_config(), anchor=(4.0, -2.5))
        np.testing.assert_array_equal(state.positions[0], [4.0, -2.5])
        np.testing.assert_allclose(
            state.positions[1:], TRI_EQUILIBRIUM + [4.0, -2.5], atol=1e-12
        )

    def test_hexagon_vertex_positions(self):
        hex_r = np.array([[-4.0, -8], [-8, 0], [-4, 8], [4, 8], [8, 0], [4, -8]])
        config = FormationConfig(
            120, (1, 21, 41, 61, 81, 101), hex_r,
            EstimationParams(alpha=0.5, dt=0.05),
        )
        state = predicted_equilibrium(config)
        vertices = state.positions[[1, 21, 41, 61, 81, 101]]
        expected = [[0, 0], [4, 8], [12, 8], [16, 0], [12, -8], [4, -8]]
        np.testing.assert_allclose(vertices, expected, atol=1e-12)
        np.testing.assert_allclose(
            relative_distance_errors(state, config), np.zeros(6), atol=1e-12
        )

    def test_all_vertex_ring_is_cumulative_sum(self):
        r = np.array([[1.0, 0.5], [-0.25, 0.5], [-0.75, -1.0]])
        config = FormationConfig(3, (0, 1, 2), r, TRI_PARAMS)
        state = predicted_equilibrium(config)
        np.testing.assert_allclose(state.positions[1], -r[0], atol=1e-12)
        np.testing.assert_allclose(state.positions[2], -r[0] - r[1], atol=1e-12)


def unequal_ring(sigma):
    """11 robots, segments of 3, 4 and 4, pinned vertex at index 1."""
    r = np.array([[1.5, -2.0], [2.5, 3.0], [-4.0, -1.0]])
    return FormationConfig(
        11, (1, 4, 8), r,
        EstimationParams(alpha=0.4, dt=0.1), sigma=sigma,
    )


def moving_start(n, seed):
    rng = make_generator(seed, 7)
    return SwarmState(positions=uniform_box(rng, n, 5.0),
                      velocities=uniform_box(rng, n, 1.0),
                      velocities_prev=uniform_box(rng, n, 1.0))


class TestStep:
    @pytest.mark.parametrize("sigma", [1, 2])
    def test_matches_reference_step_bitwise(self, sigma):
        config = unequal_ring(sigma)
        state = reference = moving_start(11, sigma)
        for _ in range(50):
            state = step_formation(state, config)
            reference = reference_step_formation(reference, config)
            assert np.array_equal(state.positions, reference.positions)
            assert np.array_equal(state.velocities, reference.velocities)
        assert state.step == reference.step == 50

    @pytest.mark.parametrize("sigma", [1, 2])
    def test_run_snapshots_equal_step_replay(self, sigma):
        config = unequal_ring(sigma)
        initial = moving_start(11, 10 + sigma)
        trace = run_formation(initial, config, 50, stride=7)
        state = initial
        replay = {0: state}
        for _ in range(50):
            state = step_formation(state, config)
            replay[state.step] = state
        assert trace.snapshot_steps == [0, 7, 14, 21, 28, 35, 42, 49, 50]
        for step, snapshot in zip(trace.snapshot_steps, trace.snapshots):
            assert np.array_equal(snapshot.positions, replay[step].positions)
            assert np.array_equal(snapshot.velocities, replay[step].velocities)
            assert np.array_equal(snapshot.velocities_prev, replay[step].velocities_prev)

    @pytest.mark.parametrize("sigma", [1, 2])
    def test_equilibrium_is_a_fixed_point(self, sigma):
        config = triangle_config(sigma=sigma)
        state = predicted_equilibrium(config, (1.0, 2.0))
        for _ in range(3):
            state = step_formation(state, config)
        reference = predicted_equilibrium(config, (1.0, 2.0))
        np.testing.assert_allclose(state.positions, reference.positions, atol=1e-12)
        np.testing.assert_allclose(state.velocities, reference.velocities, atol=1e-12)

    def test_first_chain_matches_matrix_iteration(self):
        # chain 0 of the triangle ring (robots 1 and 2) is autonomous given
        # the pinned anchor, so the ring simulation must reproduce the dense
        # chain iteration entrywise.
        config = triangle_config()
        rng = make_generator(17, 0)
        initial = SwarmState.at_rest(uniform_box(rng, 7, 3.0))
        initial.positions[0] = 0.0

        mats = build_formation_matrix(2, TRI_PARAMS)
        expected = iterate_formation_chain(
            mats,
            initial.positions[1:3],
            np.zeros((2, 2)),
            anchor_position=np.zeros(2),
            anchor_velocity=np.zeros(2),
            l_star=config.l_star[0],
            steps=500,
        )
        state = initial
        for step_states in expected:
            state = step_formation(state, config)
            got = np.vstack([state.positions[1:3], state.velocities[1:3]])
            np.testing.assert_allclose(got, step_states, atol=1e-12)

    def test_lagged_chain_matches_lagged_matrix_iteration(self):
        # criterion 5's check for sigma = 2: the first chain of a 3n ring,
        # here with non-zero current and stale velocities, follows the
        # dense lagged formation matrix entrywise for 200 steps.
        worst = 0.0
        for n in range(2, 11):
            params = EstimationParams(alpha=0.9 * stability_bound(n, "S2") / 0.05, dt=0.05)
            config = FormationConfig(3 * n, (0, n, 2 * n), TRI_R, params, sigma=2)
            rng = make_generator(n, 52)
            q, v, v_old = (uniform_box(rng, 3 * n, 2.0) for _ in range(3))
            q[0] = v[0] = v_old[0] = 0.0
            state = SwarmState(positions=q, velocities=v, velocities_prev=v_old, step=0)
            expected = iterate_formation_chain(
                build_lagged_formation_matrix(n, params),
                q[1:n + 1], v[1:n + 1],
                anchor_position=np.zeros(2), anchor_velocity=np.zeros(2),
                l_star=config.l_star[0], steps=200,
                initial_velocities_prev=v_old[1:n + 1],
            )
            for step_state in expected:
                state = step_formation(state, config)
                got = np.vstack([state.positions[1:n + 1], state.velocities_prev[1:n + 1],
                                 state.velocities[1:n + 1]])
                worst = max(worst, float(np.max(np.abs(got - step_state))))
        assert worst < 1e-12

    def test_pinned_vertex_never_moves(self):
        config = triangle_config()
        rng = make_generator(3, 1)
        state = SwarmState.at_rest(uniform_box(rng, 7, 2.0))
        state.positions[0] = [0.7, -0.3]
        for _ in range(100):
            state = step_formation(state, config)
        np.testing.assert_allclose(state.positions[0], [0.7, -0.3])
        np.testing.assert_allclose(state.velocities[0], [0.0, 0.0])

    def test_sigma_variants_share_the_equilibrium(self):
        rng = make_generator(11, 0)
        start = uniform_box(rng, 7, 2.0)
        finals = {}
        for sigma in (1, 2):
            config = triangle_config(sigma=sigma)
            trace = run_formation(SwarmState.at_rest(start.copy()), config, 1500)
            assert trace.converged
            finals[sigma] = trace.final_state.positions
        np.testing.assert_allclose(finals[1], finals[2], atol=1e-6)


class TestErrors:
    def test_zero_at_equilibrium(self):
        config = triangle_config()
        state = predicted_equilibrium(config)
        np.testing.assert_allclose(
            relative_distance_errors(state, config), np.zeros(3), atol=1e-12
        )

    def test_all_robots_at_origin(self):
        config = triangle_config()
        state = SwarmState.at_rest(np.zeros((7, 2)))
        np.testing.assert_allclose(
            relative_distance_errors(state, config),
            np.linalg.norm(TRI_R, axis=1),
        )

    def test_matches_independent_recomputation(self):
        config = triangle_config()
        rng = make_generator(2, 2)
        state = SwarmState.at_rest(uniform_box(rng, 7, 4.0))
        errors = relative_distance_errors(state, config)
        q = state.positions
        for i, (a, b) in enumerate(((0, 2), (2, 5), (5, 0))):
            expected = np.linalg.norm(q[a] - q[b] - TRI_R[i])
            assert errors[i] == pytest.approx(expected, rel=1e-12)


class TestRunFormation:
    def test_triangle_converges_with_monotone_tail(self):
        config = triangle_config()
        rng = make_generator(21, 0)
        start = uniform_box(rng, 7, 3.0)
        start[0] = [0.5, 0.5]
        trace = run_formation(SwarmState.at_rest(start), config, 800)
        assert trace.converged
        assert trace.first_step_within_tol is not None
        peak = trace.errors.max(axis=1)
        tail = peak[3 * len(peak) // 4:]
        assert np.all(np.diff(tail) <= 1e-9)
        # at the fixed point every robot is at rest
        speeds = np.linalg.norm(trace.final_state.velocities, axis=1)
        assert speeds.max() < 1e-4

    def test_interior_spacing_at_convergence(self):
        config = triangle_config()
        rng = make_generator(8, 0)
        start = uniform_box(rng, 7, 3.0)
        start[0] = [0.0, 0.0]
        trace = run_formation(SwarmState.at_rest(start), config, 1200)
        q = trace.final_state.positions
        for i, vertex in enumerate(config.vertex_set):
            walk = [vertex, *config.members(i).tolist()]
            for a, b in zip(walk, walk[1:]):
                np.testing.assert_allclose(q[a] - q[b], config.l_star[i], atol=1e-3)

    def test_start_at_equilibrium_stays_there(self):
        config = triangle_config()
        trace = run_formation(predicted_equilibrium(config), config, 50)
        assert trace.converged
        assert np.all(trace.errors < 1e-10)

    def test_horizon_exhausted_flags_false(self):
        config = triangle_config()
        rng = make_generator(4, 0)
        start = uniform_box(rng, 7, 3.0)
        trace = run_formation(SwarmState.at_rest(start), config, 3)
        assert not trace.converged
        assert len(trace.error_steps) == 4  # initial state plus three steps

    def test_snapshot_stride(self):
        config = triangle_config()
        rng = make_generator(4, 1)
        trace = run_formation(
            SwarmState.at_rest(uniform_box(rng, 7, 2.0)), config, 100, stride=25
        )
        assert trace.snapshot_steps == [0, 25, 50, 75, 100]

    @pytest.mark.parametrize("stride,snapshots", [(4, [8, 12, 15]), (3, [6, 9, 12, 15])])
    def test_snapshots_end_on_the_last_step_from_a_later_start(self, stride, snapshots):
        # the horizon counts from the start step: steps 5..15 here
        start = SwarmState.at_rest(uniform_box(make_generator(4, 1), 7, 2.0))
        start.step = 5
        trace = run_formation(start, triangle_config(), 10, stride=stride)
        assert trace.error_steps.tolist() == list(range(5, 16))
        assert trace.snapshot_steps == snapshots
        assert trace.final_state is trace.snapshots[-1]

    def test_divergence_carries_partial_trace(self):
        config = FormationConfig(7, (0, 2, 5), TRI_R,
                                 EstimationParams(alpha=1.99, dt=1.0))  # far outside stability
        rng = make_generator(5, 0)
        start = uniform_box(rng, 7, 3.0)
        with pytest.raises(DivergenceError) as err:
            run_formation(SwarmState.at_rest(start), config, 5000)
        (partial,) = err.value.partial
        assert len(partial.error_steps) > 1

    def test_wrong_robot_count_rejected(self):
        config = triangle_config()
        with pytest.raises(ValueError):
            run_formation(SwarmState.at_rest(np.zeros((6, 2))), config, 10)


def shipped_formation(name, **overrides):
    """The start, ring config and horizon a ``form`` run of a shipped config uses."""
    cfg = shipped_config(name, **overrides)
    config = cfg.formation_config
    return seeded_placement(config.n_total, cfg.seed, cfg.initial_box), config, cfg.max_steps


def unequal_formation(sigma):
    """An 11-robot square cut into segments of 2, 4, 1 and 4 robots."""
    config = FormationConfig(
        11, (1, 3, 7, 8), [[2.0, 0.0], [0.0, 2.0], [-2.0, 0.0], [0.0, -2.0]],
        TRI_PARAMS, sigma=sigma,
    )
    start = uniform_box(make_generator(11, 0), 11, 3.0)
    return SwarmState.at_rest(start), config, 400


def trace_outcome(run, initial, config, horizon, stride):
    """``(trace, message)``: the trace, or a divergence's partial trace and text."""
    try:
        return run(initial, config, horizon, stride=stride), None
    except DivergenceError as err:
        (partial,) = err.partial
        return partial, str(err)


def bits(array):
    return array.dtype, array.shape, array.tobytes()


def state_bits(state):
    return (state.step, bits(state.positions), bits(state.velocities),
            bits(state.velocities_prev))


class TestTraceEquivalence:
    """``run_formation`` against a loop that records every state as it is reached."""

    CASES = {
        "triangle-sigma1": (lambda: shipped_formation("triangle", sigma=1), 1),
        "triangle-sigma2": (lambda: shipped_formation("triangle", sigma=2), 1),
        "triangle-stride7": (lambda: shipped_formation("triangle", max_steps=80), 7),
        "unequal-sigma1": (lambda: unequal_formation(1), 7),
        "unequal-sigma2": (lambda: unequal_formation(2), 1),
        "triangle-diverges": (lambda: shipped_formation("triangle", alpha=1.5, sigma=2), 1),
        "triangle-diverges-stride7": (
            lambda: shipped_formation("triangle", alpha=1.5, sigma=2), 7),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_trace_is_bitwise_the_recorded_one(self, case):
        self.assert_bitwise_the_recorded_one(case)

    @pytest.mark.parametrize("block", [1, 7])
    @pytest.mark.parametrize("case", CASES)
    def test_block_size_changes_no_bit(self, case, block, monkeypatch):
        monkeypatch.setattr(formation, "BLOCK_STEPS", block)
        self.assert_bitwise_the_recorded_one(case)

    def assert_bitwise_the_recorded_one(self, case):
        make, stride = self.CASES[case]
        initial, config, horizon = make()
        got, got_message = trace_outcome(run_formation, initial, config, horizon, stride)
        want, want_message = trace_outcome(reference_run_formation, initial, config,
                                           horizon, stride)
        assert got_message == want_message
        assert bits(got.errors) == bits(want.errors)
        assert bits(got.error_steps) == bits(want.error_steps)
        assert got.first_step_within_tol == want.first_step_within_tol
        assert (got.peak_error, got.peak_step) == (want.peak_error, want.peak_step)
        assert got.converged is want.converged
        assert got.snapshot_steps == want.snapshot_steps
        assert [state_bits(s) for s in got.snapshots] == [state_bits(s) for s in want.snapshots]
        assert state_bits(got.final_state) == state_bits(want.final_state)

    def test_cases_cover_convergence_strides_and_divergence(self):
        def outcome(case):
            make, stride = self.CASES[case]
            return trace_outcome(run_formation, *make(), stride)

        assert outcome("triangle-sigma1")[0].first_step_within_tol is not None
        short, _ = outcome("triangle-stride7")
        assert short.snapshot_steps[-2:] == [77, 80]
        assert not short.converged
        assert unequal_formation(1)[1].n_s == (2, 4, 1, 4)
        partial, message = outcome("triangle-diverges")
        assert "step 124" in message
        assert partial.error_steps[-1] == 123
        assert partial.errors.shape == (124, 3)


DENSE = {"formation": build_formation_matrix, "lagged_formation": build_lagged_formation_matrix,
         "estimator": build_estimator_matrix, "lagged_estimator": build_lagged_estimator_matrix}


class TestSummarize:
    """``summarize``, chain by chain, against the collected record, the
    per-link and whole-ring references and the dense chain matrices."""

    @pytest.mark.parametrize("name,sigma,horizon", [
        ("triangle", 1, 600), ("triangle", 2, 600), ("hexagon", 1, 3000)])
    def test_figures_equal_the_references(self, name, sigma, horizon):
        cfg = shipped_config(name, sigma=sigma)
        config = cfg.formation_config
        initial = seeded_placement(config.n_total, cfg.seed, cfg.initial_box)
        trace = run_formation(initial, config, horizon)
        figures = summarize(trace, config)
        final, dt = trace.final_state, config.params.dt
        largest = trace.errors.max(axis=1)
        within = trace.error_steps[largest < FORMATION_TOL]
        assert figures["max_error_final"] == largest[-1]
        assert figures["max_error_peak"] == largest.max()
        assert figures["max_error_peak_step"] == trace.error_steps[largest.argmax()]
        assert figures["first_time_within_tol"] == (within[0] * dt if within.size else None)
        assert figures["max_vertex_speed_final"] == np.linalg.norm(
            final.velocities[list(config.vertex_set)], axis=1).max()
        assert figures["interior_spacing_error"] == pytest.approx(
            reference_spacing_error(final, config), rel=1e-12)
        anchor = initial.positions[config.vertex_set[0]]
        assert figures["equilibrium_deviation"] == pytest.approx(
            reference_equilibrium_deviation(final, config, anchor), rel=1e-12)
        dense = max(spectral_radius(DENSE[kind](order, config.params).dense)
                    for order, kind in config.chains())
        assert figures["rho_chain"] == pytest.approx(dense, rel=1e-12)
        assert figures["decay_seconds"] == pytest.approx(
            np.log(100.0) * dt / -np.log(dense), rel=1e-9)


class RecordingSink:
    """Every call a formation sink receives, in order."""

    def __init__(self):
        self.calls = []

    def add_snapshot(self, state):
        self.calls.append(("snapshot", state.step))

    def add_errors(self, steps, errors):
        self.calls.append(("errors", steps.tolist(), errors.copy()))


class TestSink:
    """What ``run_formation`` hands a ``sink`` and what it returns then."""

    @pytest.mark.parametrize("case", ["triangle-stride7", "triangle-diverges"])
    def test_blocks_and_snapshots_arrive_as_reached(self, case, monkeypatch):
        monkeypatch.setattr(formation, "BLOCK_STEPS", 16)
        make, stride = TestTraceEquivalence.CASES[case]
        collected, message = trace_outcome(run_formation, *make(), stride)
        sink = RecordingSink()
        initial, config, horizon = make()
        try:
            verdict = run_formation(initial, config, horizon, stride=stride, sink=sink)
        except DivergenceError as err:
            assert str(err) == message
            (verdict,) = err.partial
        blocks = [call for call in sink.calls if call[0] == "errors"]
        steps = [step for _, block_steps, _ in blocks for step in block_steps]
        assert steps == collected.error_steps.tolist()
        assert [len(b[1]) for b in blocks[:-1]] == [16] * (len(blocks) - 1)
        assert bits(np.concatenate([b[2] for b in blocks])) == bits(collected.errors)
        # each snapshot arrives before the block holding its step is done
        done = -1
        for call in sink.calls:
            if call[0] == "errors":
                done = call[1][-1]
            else:
                assert call[1] > done
        assert [c[1] for c in sink.calls if c[0] == "snapshot"] == collected.snapshot_steps
        # the verdict is kept either way; the record only when collected
        assert verdict.snapshots == [] and verdict.errors.size == 0
        assert verdict.first_step_within_tol == collected.first_step_within_tol
        assert (verdict.peak_error, verdict.peak_step) == (collected.peak_error,
                                                           collected.peak_step)
        assert verdict.converged is collected.converged
        assert bits(verdict.final_errors) == bits(collected.errors[-1])
        assert bits(collected.final_errors) == bits(collected.errors[-1])
        assert state_bits(verdict.final_state) == state_bits(collected.final_state)


def wrapped(values):
    """``values`` with the last row prepended and the first appended."""
    return np.concatenate([values[-1:], values, values[:1]])


class TestReusedBuffers:
    """``step_formation`` into caller-owned rings, and what ``run_formation``
    hands out from the rings it reuses."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
           sigma=st.sampled_from([1, 2]),
           ring=st.sampled_from(["unequal", "triangle"]))
    def test_step_into_rings_is_the_plain_step(self, seed, sigma, ring):
        config = unequal_ring(sigma) if ring == "unequal" else triangle_config(sigma)
        n = config.n_total
        state = moving_start(n, seed)
        state.step = seed % 1000
        before = state_bits(state)
        want = step_formation(state, config)
        vlag = state.velocities if sigma == 1 else state.velocities_prev
        rings = (wrapped(state.positions), wrapped(vlag),
                 np.full((n + 2, 2), np.nan), np.full((n + 2, 2), np.nan))
        read = [bits(a) for a in rings[:2]]
        got = step_formation(state, config, rings)
        assert state_bits(got) == state_bits(want)
        assert state_bits(state) == before
        assert [bits(a) for a in rings[:2]] == read
        assert bits(rings[2]) == bits(wrapped(got.positions))
        assert bits(rings[3]) == bits(wrapped(got.velocities))
        assert np.shares_memory(got.positions, rings[2])
        assert np.shares_memory(got.velocities, rings[3])

    def test_step_into_rings_allocates_no_state_array(self):
        config = FormationConfig(6000, (0, 2000, 4000), TRI_R, TRI_PARAMS, sigma=2)
        state = moving_start(6000, 5)
        rings = (wrapped(state.positions), wrapped(state.velocities_prev),
                 np.empty((6002, 2)), np.empty((6002, 2)))
        tracemalloc.start()
        try:
            step_formation(state, config, rings)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < state.positions.nbytes // 8

    @pytest.mark.parametrize("stride", [1, 7])
    @pytest.mark.parametrize("case,horizon", [("triangle-sigma1", 43), ("triangle-sigma2", 43),
                                              ("unequal-sigma2", 43), ("triangle-diverges", None)])
    def test_snapshots_share_no_memory(self, case, horizon, stride):
        initial, config, full = TestTraceEquivalence.CASES[case][0]()
        trace, message = trace_outcome(run_formation, initial, config, horizon or full, stride)
        assert (message is None) is (case != "triangle-diverges")
        kept = {id(s): s for s in trace.snapshots + [trace.final_state]}
        assert len(kept) == len(trace.snapshots) + (trace.final_state is not trace.snapshots[-1])
        arrays = [a for s in kept.values() for a in (s.positions, s.velocities, s.velocities_prev)]
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)


class TestTranslationEquivariance:
    @settings(max_examples=15, deadline=None)
    @given(
        shift=st.tuples(
            st.floats(min_value=-20, max_value=20),
            st.floats(min_value=-20, max_value=20),
        ),
        seed=st.integers(min_value=0, max_value=2 ** 32),
    )
    def test_shifting_start_shifts_the_outcome(self, shift, seed):
        rng = make_generator(seed, 0)
        start = uniform_box(rng, 7, 2.0)
        shift = np.asarray(shift)

        config = triangle_config()
        trace_a = run_formation(SwarmState.at_rest(start.copy()), config, 200)
        trace_b = run_formation(SwarmState.at_rest(start + shift), config, 200)
        np.testing.assert_allclose(
            trace_b.final_state.positions,
            trace_a.final_state.positions + shift,
            atol=1e-9,
        )


def ring_step_matrix(config):
    """The ring's one-step map of x positions, velocities and, at sigma = 2,
    stale velocities from ``step_formation`` at r* = 0, without the pinned
    vertex's position, whose eigenvalue is always 1."""
    n, layers = config.n_total, 1 + config.sigma
    columns = []
    for unit in np.eye(layers * n):
        state = SwarmState(*(np.column_stack([row, np.zeros(n)])
                             for row in unit.reshape(layers, n)))
        step = step_formation(state, config)
        columns.append(np.concatenate([step.positions[:, 0], step.velocities[:, 0],
                                       step.velocities_prev[:, 0]][:layers]))
    keep = np.arange(layers * n) != config.vertices[0]
    return np.array(columns).T[np.ix_(keep, keep)]


class TestRingChains:
    """``FormationConfig.chains`` against the ring's one-step matrix."""

    @pytest.mark.parametrize("sigma", [1, 2])
    @pytest.mark.parametrize("n_total,vertices", [
        (7, (0, 2, 5)), (10, (0, 3, 6)), (15, (0, 1, 3)),
        # sigma = 2: the wrapping segment's 7 free robots set the limit
        # 0.0761, not the 8-robot formation chain's 0.0192
        (12, (0, 2, 4)),
        (9, (0, 1, 2)),  # segments of one robot
    ])
    def test_ring_is_schur_exactly_below_the_limit_of_its_chains(self, n_total, vertices,
                                                                  sigma):
        def ring(alpha):
            return FormationConfig(n_total, vertices, np.zeros((len(vertices), 2)),
                                   EstimationParams(alpha=alpha, dt=1.0), sigma=sigma)

        chains = ring(0.1).chains()
        limit = min(stability_limit(order, kind) for order, kind in chains)
        for fraction, schur in ((0.97, True), (1.03, False)):
            config = ring(fraction * limit)
            rho = spectral_radius(ring_step_matrix(config))
            assert (rho < 1.0) is schur
            # the chains' largest radius is the ring's
            chain_rho = max(spectral_radius(chain_modes(order, config.params, kind))
                            for order, kind in chains)
            assert chain_rho == pytest.approx(rho, rel=1e-6)


class TestConfigValidation:
    def test_sigma_domain(self):
        with pytest.raises(ValueError):
            triangle_config(sigma=3)

    def test_closure_required(self):
        with pytest.raises(ValueError, match="close"):
            FormationConfig(7, (0, 2, 5), [[1.0, 0], [0, 1], [0, 0]], TRI_PARAMS)

    def test_l_star_is_r_star_over_cardinality(self):
        config = triangle_config()
        np.testing.assert_allclose(
            config.l_star, TRI_R / np.array([[2.0], [3.0], [2.0]])
        )


class TestPipeline:
    def test_triangle_end_to_end(self):
        est = EstimatorConfig(
            params=EstimationParams(alpha=0.1, dt=1.0), strategy="S2",
            stop_window=60,
        )
        result = run_pipeline(
            triangle_config(), est, seed=42, horizon=800, initial_box=3.0
        )
        assert result.estimates == [2, 3, 2]
        assert result.formation.converged
        anchor = result.initial_state.positions[0]
        np.testing.assert_allclose(
            result.formation.final_state.positions[1:],
            TRI_EQUILIBRIUM + anchor,
            atol=1e-2,
        )

    def test_all_vertex_ring_estimates_ones(self):
        r = np.array([[1.0, 0.5], [-0.25, 0.5], [-0.75, -1.0]])
        params = EstimationParams(alpha=0.5, dt=0.2)
        config = FormationConfig(3, (0, 1, 2), r, params)
        est = EstimatorConfig(params=params, strategy="S1")
        result = run_pipeline(config, est, seed=3, horizon=400, initial_box=2.0)
        assert result.estimates == [1, 1, 1]
        assert result.formation.converged

    def test_estimation_failure_aborts_phase_two(self):
        est = EstimatorConfig(
            params=EstimationParams(alpha=0.1, dt=1.0), strategy="S2",
            stop_window=50, max_steps=52,  # cannot settle this fast
        )
        with pytest.raises(PipelineEstimationError) as err:
            run_pipeline(triangle_config(), est, seed=42, horizon=10)
        assert len(err.value.partial) == 3

    def test_pipeline_is_deterministic(self):
        est = EstimatorConfig(
            params=EstimationParams(alpha=0.1, dt=1.0), strategy="S2",
            stop_window=60,
        )
        a = run_pipeline(triangle_config(), est, seed=9, horizon=300)
        b = run_pipeline(triangle_config(), est, seed=9, horizon=300)
        assert np.array_equal(
            a.formation.final_state.positions, b.formation.final_state.positions
        )
        assert np.array_equal(a.initial_state.positions, b.initial_state.positions)


class _PhaseOneDone(Exception):
    """Raised by ``open_sink`` to stop a pipeline before its formation."""


def batched_phase_one(cfg):
    """``run_pipeline``'s chain traces, the formation never started."""
    def open_sink(traces):
        raise _PhaseOneDone(traces)

    try:
        run_pipeline(**cfg.pipeline_arguments(), open_sink=open_sink)
    except _PhaseOneDone as done:
        return done.args[0]
    except PipelineEstimationError as failed:
        return failed.partial


def chain_loop(cfg):
    """The same chains, one ``chain_traces`` call at a time."""
    args = cfg.pipeline_arguments()
    config = args["config"]
    initial = seeded_placement(config.n_total, args["seed"], args["initial_box"])
    return [chain_traces([initial.positions[config.members(i)] - initial.positions[vertex]],
                         [args["est_config"]])[0]
            for i, vertex in enumerate(config.vertex_set)]


UNEQUAL = dict(n_total=10, vertex_set=(0, 2, 7))  # segments of 2, 5 and 3 robots


class TestBatchedPhaseOne:
    """Phase 1 as one lock-step batch against the per-chain loop."""

    @pytest.mark.parametrize("name, overrides, outcomes", [
        ("hexagon", {}, [(20, 2950), (20, 2627), (20, 3235),
                         (20, 2729), (20, 3119), (20, 3241)]),
        ("triangle", {}, [(2, 72), (3, 77), (2, 75)]),
        # right-aligned shorter columns in the batch buffers
        ("triangle", UNEQUAL, [(2, 256), (5, 295), (3, 260)]),
        # the 5-robot chain runs to max_steps unconverged
        ("triangle", dict(UNEQUAL, est_max_steps=270), [(2, 256), (None, None), (3, 260)]),
        # the 2-robot chain settles on its last allowed step
        ("triangle", dict(UNEQUAL, est_max_steps=256), [(2, 256), (None, None), (None, None)]),
    ], ids=["hexagon", "triangle", "unequal", "unconverged", "settles-at-limit"])
    def test_batch_is_the_chain_loop_bit_for_bit(self, name, overrides, outcomes):
        cfg = shipped_config(name, **overrides)
        batch, loop = batched_phase_one(cfg), chain_loop(cfg)
        assert [(t.estimate, t.steps_to_convergence) for t in batch] == outcomes
        assert [trace_bits(t) for t in batch] == [trace_bits(t) for t in loop]
        limit = cfg.phase1("max_steps")
        assert all(len(t.steps) == limit for t in batch if not t.converged)
