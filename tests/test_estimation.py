import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ringform.estimation
from helpers import (
    iterate_estimator,
    iterate_lagged_estimator,
    reference_estimation,
    reference_readout,
    reference_steady_ratio,
    reference_stop_rule,
    trace_bits,
)
from ringform.core import (
    DivergenceError,
    StabilityWarning,
    SwarmState,
    make_generator,
    midpoint_law,
    uniform_box,
)
from ringform.estimation import (
    ChainBatch,
    EstimatorConfig,
    chain_traces,
    estimate_chains,
    readouts,
    run_estimation,
    steady_velocity_ratio,
    steady_velocity_ratios,
    step_estimator,
)
from ringform.spectral import (
    EstimationParams,
    build_estimator_matrix,
    build_lagged_estimator_matrix,
    s1_readout_frame,
    stability_bound,
    steady_gain,
    steady_ratio_closed,
)


def config_for(n_prime, strategy="S1", dt=0.01, fraction=0.9, **kw):
    """Gains at ``fraction`` of the tighter sufficient bound."""
    alpha_dt = fraction * stability_bound(n_prime, "S2")
    params = EstimationParams(alpha=alpha_dt / dt, dt=dt)
    return EstimatorConfig(params=params, strategy=strategy, **kw)


class TestStep:
    def test_single_robot_sees_only_the_excitation(self):
        config = EstimatorConfig(params=EstimationParams(alpha=0.5, dt=0.01))
        state = SwarmState.chain(1, None, (1.0, 0.0))
        new = step_estimator(state, config)
        np.testing.assert_allclose(new.velocities[1], [0.5, 0.0])
        np.testing.assert_allclose(new.positions, np.zeros((2, 2)))
        np.testing.assert_allclose(new.excitation, [-1.0, 0.0])

    def test_anchor_never_moves(self):
        config = config_for(4, "S1")
        rng = make_generator(1, 0)
        state = SwarmState.chain(4, uniform_box(rng, 4, 5.0))
        for _ in range(50):
            state = step_estimator(state, config)
            np.testing.assert_allclose(state.positions[0], [0.0, 0.0])
            np.testing.assert_allclose(state.velocities[0], [0.0, 0.0])

    def test_excitation_magnitude_constant_alternating(self):
        config = config_for(3, "S2")
        state = SwarmState.chain(3, None, (0.3, -0.4))
        for k in range(10):
            previous = state.excitation.copy()
            state = step_estimator(state, config)
            np.testing.assert_allclose(state.excitation, -previous)
            assert np.linalg.norm(state.excitation) == pytest.approx(0.5)


class TestMatrixOracle:
    """The simulator must reproduce the dense-matrix iteration exactly."""

    def test_s1_matches_reference_iteration(self):
        params = EstimationParams(alpha=0.5, dt=0.01)
        config = EstimatorConfig(params=params, strategy="S1")
        mats = build_estimator_matrix(2, params)
        expected = iterate_estimator(mats, None, (1.0, 0.0), 200)
        state = SwarmState.chain(2, None, (1.0, 0.0))
        for step_states in expected:
            state = step_estimator(state, config)
            got = np.vstack([state.positions[1:], state.velocities[1:]])
            np.testing.assert_allclose(got, step_states, atol=1e-12)

    def test_s2_matches_reference_iteration(self):
        params = EstimationParams(alpha=0.5, dt=0.01)
        config = EstimatorConfig(params=params, strategy="S2")
        mats = build_lagged_estimator_matrix(2, params)
        expected = iterate_lagged_estimator(mats, None, (1.0, 0.0), 200)
        state = SwarmState.chain(2, None, (1.0, 0.0))
        for step_states in expected:
            state = step_estimator(state, config)
            got = np.vstack(
                [state.positions[1:], state.velocities_prev[1:], state.velocities[1:]]
            )
            np.testing.assert_allclose(got, step_states, atol=1e-12)

    @pytest.mark.parametrize("strategy", ["S1", "S2"])
    @pytest.mark.parametrize("n_prime", [1, 3, 7, 10])
    def test_random_start_matches_iteration(self, strategy, n_prime):
        alpha_dt = 0.9 * stability_bound(n_prime, "S2")
        params = EstimationParams(alpha=alpha_dt / 0.01, dt=0.01)
        config = EstimatorConfig(params=params, strategy=strategy)
        rng = make_generator(n_prime, 3)
        initial = uniform_box(rng, n_prime, 5.0)
        if strategy == "S1":
            mats = build_estimator_matrix(n_prime, params)
            expected = iterate_estimator(mats, initial, (1.0, 0.0), 200)
        else:
            mats = build_lagged_estimator_matrix(n_prime, params)
            expected = iterate_lagged_estimator(mats, initial, (1.0, 0.0), 200)
        state = SwarmState.chain(n_prime, initial, (1.0, 0.0))
        for step_states in expected:
            state = step_estimator(state, config)
            if strategy == "S1":
                got = np.vstack([state.positions[1:], state.velocities[1:]])
            else:
                got = np.vstack(
                    [state.positions[1:], state.velocities_prev[1:],
                     state.velocities[1:]]
                )
            np.testing.assert_allclose(got, step_states, atol=1e-12)


class TestReadout:
    def test_s2_examples(self):
        beta = 0.05
        # analytic steady ratios n' / ((n' + 1)(1 + beta)) invert exactly
        got = readouts([beta, beta], ["S2", "S2"])(np.array([3.0 / (4.0 * 1.05),
                                                             1.0 / (2.0 * 1.05)]))
        np.testing.assert_allclose(got, [3.0, 1.0], atol=1e-9)

    def test_s1_round_trip_example(self):
        beta = 0.05
        ratio = steady_gain(4, beta, "S1") / 2.0
        assert readouts([beta], ["S1"])(np.array([ratio]))[0] == pytest.approx(4.0, abs=1e-9)

    @pytest.mark.parametrize("strategy", ["S1", "S2"])
    def test_round_trip_all_orders(self, strategy):
        orders = np.arange(1, 31)
        betas = [0.45 * stability_bound(n_prime, "S1") for n_prime in orders]
        ratios = np.array([steady_ratio_closed(n_prime, beta, strategy)
                           for n_prime, beta in zip(orders, betas)])
        got = readouts(betas, [strategy] * len(orders))(ratios)
        np.testing.assert_allclose(got, orders, rtol=0, atol=1e-9)

    def test_out_of_domain_signals_nan(self):
        beta = 0.05
        # S2: the denominator closes at ratio = 1 / (1 + beta), and is negative
        # past it; S1: a gain between the recursion roots has no log solution
        got = readouts([beta] * 3, ["S2", "S2", "S1"])(np.array([1.0 / (1.0 + beta), 5.0, 0.9]))
        assert np.isnan(got).all()

    def test_rejects_unknown_strategy(self):
        with pytest.raises(ValueError):
            readouts([0.05], ["S3"])

    def test_batched_readout_is_bitwise_scalar_readout(self):
        # One column per (beta, strategy, ratio): the S1 poles (den == 0),
        # the gap between its roots (fbar <= 0), non-finite ratios, the
        # degenerate S1 frame at beta = 5e-303 and the S2 pole; a second
        # row takes the ratios in reverse order.
        columns = []
        for beta in (0.05, 0.0025, 0.3, 0.999, 5e-303):
            rho1, rho2, _, _ = s1_readout_frame(beta)
            special = [0.0, -0.0, 0.9, 5.0, -1.0, rho1 / 2.0, rho2 / 2.0,
                       float(np.nextafter(rho2 / 2.0, 1.0)), 1.0 / (1.0 + beta),
                       math.nan, math.inf, -math.inf, 1e-300, 1e300]
            closed = [steady_ratio_closed(n, beta, s) for n in (1, 2, 7, 30)
                      for s in ("S1", "S2") if beta > 1e-200]
            spread = make_generator(7, 0).random(1000) * 1.2
            for strategy in ("S1", "S2"):
                columns += [(beta, strategy, r) for r in [*special, *closed, *spread.tolist()]]
        betas, strategies, ratios = zip(*columns)
        rows = np.array([ratios, ratios[::-1]])
        got = readouts(betas, strategies)(rows)
        expected = np.array([[reference_readout(r, b, s)
                              for b, s, r in zip(betas, strategies, row)]
                             for row in rows.tolist()])
        assert np.array_equal(np.isnan(got), np.isnan(expected))
        finite = ~np.isnan(expected)
        assert finite.sum() > 100 and (~finite).sum() > 50
        assert np.array_equal(got[finite].view(np.int64), expected[finite].view(np.int64))
        one = np.array([readouts([b], [s])(np.array([r]))[0] for b, s, r in columns])
        assert np.array_equal(one, got[0], equal_nan=True)


class TestRunEstimation:
    def test_twenty_robot_chain_s1(self):
        # 20-robot chain, alpha = 0.5, dt = 0.01: recovers 19
        params = EstimationParams(alpha=0.5, dt=0.01)
        config = EstimatorConfig(params=params, strategy="S1", stop_window=700)
        trace = run_estimation(19, config, seed=7)
        assert trace.converged
        assert trace.estimate == 19

    def test_three_robot_chain_s2_paper_gains(self):
        # alpha = 0.1, dt = 1 sits above the lagged sufficient bound at
        # n' = 3 yet the chain is still Schur; expect a warning, then the
        # exact integer.
        params = EstimationParams(alpha=0.1, dt=1.0)
        config = EstimatorConfig(params=params, strategy="S2")
        with pytest.warns(StabilityWarning) as caught:
            trace = run_estimation(3, config, seed=5)
        assert trace.estimate == 3
        assert [str(w.message) for w in caught] == [
            "alpha*dt = 0.1 >= sufficient bound 0.0909091 for S2 at chain order 3; "
            "convergence is not guaranteed"]
        # reported at the caller's line, not inside the package
        assert [w.filename for w in caught] == [__file__]

    def test_two_robot_chain_s2(self):
        params = EstimationParams(alpha=0.1, dt=1.0)
        config = EstimatorConfig(params=params, strategy="S2")
        trace = run_estimation(2, config, seed=5)
        assert trace.estimate == 2

    @pytest.mark.parametrize("strategy", ["S1", "S2"])
    def test_smallest_chain(self, strategy):
        config = config_for(1, strategy)
        trace = run_estimation(1, config, seed=2)
        assert trace.estimate == 1

    def test_trace_fields(self):
        config = config_for(5, "S2")
        trace = run_estimation(5, config, seed=9)
        assert trace.converged
        assert trace.steps_to_convergence == trace.steps[-1]
        assert trace.first_correct_step is not None
        assert trace.first_correct_step <= trace.steps_to_convergence
        assert len(trace.ratios) == len(trace.steps) == len(trace.raw)
        final = trace.raw[np.isfinite(trace.raw)][-1]
        assert math.floor(final + 0.5) == 5

    def test_explicit_initial_positions(self):
        config = config_for(4, "S1")
        initial = np.arange(8, dtype=float).reshape(4, 2)
        trace = run_estimation(4, config, initial)
        assert trace.estimate == 4

    @pytest.mark.parametrize("strategy", ["S1", "S2"])
    def test_run_matches_step_estimator_replay(self, strategy):
        # run_estimation uses a buffered fast path; it must agree with a
        # plain step_estimator replay to the last bit.
        config = config_for(5, strategy, max_steps=400, stop_window=400 - 1)
        rng = make_generator(77, 0)
        initial = uniform_box(rng, 5, 5.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            trace = run_estimation(5, config, initial)
        state = SwarmState.chain(5, initial, config.excitation_init)
        exc_norm = math.hypot(*config.excitation_init)
        for i in range(len(trace.steps)):
            state = step_estimator(state, config)
            vx, vy = state.velocities[-1]
            replay_ratio = math.sqrt(vx * vx + vy * vy) / exc_norm
            assert trace.ratios[i] == replay_ratio

    def test_determinism_bit_identical(self):
        config = config_for(6, "S2")
        a = run_estimation(6, config, seed=123, seed_stream=4)
        b = run_estimation(6, config, seed=123, seed_stream=4)
        assert np.array_equal(a.ratios, b.ratios)
        assert np.array_equal(a.raw, b.raw, equal_nan=True)
        assert a.estimate == b.estimate
        c = run_estimation(6, config, seed=124, seed_stream=4)
        assert not np.array_equal(a.ratios, c.ratios)

    def test_divergence_guard_fires(self):
        params = EstimationParams(alpha=1.9, dt=1.0)  # beta = 0.95, unstable
        config = EstimatorConfig(params=params, strategy="S1")
        with pytest.warns(StabilityWarning):
            with pytest.raises(DivergenceError) as err:
                run_estimation(10, config, seed=0)
        assert err.value.partial is not None

    def test_max_steps_exhausted_returns_partial(self):
        config = config_for(8, "S1", max_steps=60, stop_window=50)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            trace = run_estimation(8, config, seed=1)
        assert not trace.converged
        assert trace.estimate is None
        assert len(trace.steps) == 60


class TestEstimateChains:
    def test_finished_chain_is_frozen(self):
        # beta = 0.95 is unstable at n' = 10; that chain uses up its 60 steps
        # before the step-64 position check, then must stop moving while the
        # stable chain runs on (unfrozen, it overflows within ~3000 steps).
        # The beta = 0.6 chain is unstable too, but its readout settles on 1
        # at step 8, inside the first block: it is frozen at the block's end
        # and never checked (alone, with a long window, it diverges).
        unstable = EstimatorConfig(params=EstimationParams(alpha=1.9, dt=1.0),
                                   stop_window=50, max_steps=60)
        transient = EstimatorConfig(params=EstimationParams(alpha=1.2, dt=1.0),
                                    stop_window=2, max_steps=6000)
        stable = config_for(4, "S2", stop_window=2000, max_steps=6000)
        configs = [unstable, transient, stable]
        starts = [uniform_box(make_generator(0, 0), 10, 5.0),
                  uniform_box(make_generator(0, 0), 10, 0.1),
                  uniform_box(make_generator(0, 1), 4, 5.0)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = estimate_chains(starts, configs, ["unstable", "transient", "stable"])
        alone = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StabilityWarning)
            for start, config in zip(starts, configs):
                trace = run_estimation(len(start), config, start)
                alone.append((trace.estimate, trace.steps_to_convergence))
            with pytest.raises(DivergenceError):
                run_estimation(10, replace(transient, stop_window=2000), starts[1])
        assert batch == alone == [(None, None), (1, 8), (4, alone[2][1])]


def _block_cases():
    """Chains of orders 1-12, S1 and S2 alternating, windows 2-80, and
    max_steps below 64, at multiples of 64 and one step either side."""
    windows = [2, 3, 5, 8, 13, 21, 34, 55, 80]
    limits = [40, 63, 64, 65, 127, 128, 129, 191, 192, 193, 255, 256, 257]
    cases = []
    for i in range(36):
        n_prime, window = 1 + i % 12, windows[i % len(windows)]
        max_steps = max(limits[i * 5 % len(limits)], window + 1 + i % 3)
        params = EstimationParams(alpha=0.9 * stability_bound(n_prime, "S2") / 0.05, dt=0.05)
        config = EstimatorConfig(params=params, strategy=("S1", "S2")[i % 2],
                                 stop_window=window, max_steps=max_steps)
        cases.append((n_prime, config, uniform_box(make_generator(i, 0), n_prime, 5.0)))
    return cases


class TestBlockedLoop:
    """The 64-step blocks against one step at a time."""

    def test_matches_step_at_a_time_reference(self):
        cases = _block_cases()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StabilityWarning)
            expected = [reference_estimation(*case) for case in cases]
            traces = [run_estimation(*case) for case in cases]
        stops = [stop for _, _, (_, _, stop) in expected]
        limits = {config.max_steps for (_, config, _), stop in zip(cases, stops) if stop is None}
        assert {63, 64, 65, 127, 129, 191, 193, 256}.issubset(limits)
        assert any(0 < stop < 64 for stop in stops if stop)
        assert any(stop > 64 for stop in stops if stop)
        for trace, (n_prime, _, _), (ratios, raws, outcome) in zip(traces, cases, expected):
            assert (trace.converged, trace.estimate, trace.steps_to_convergence) == outcome
            correct = [step for step, raw in enumerate(raws, 1)
                       if not math.isnan(raw) and math.floor(raw + 0.5) == n_prime]
            assert trace.first_correct_step == (correct[0] if correct else None)
            assert trace.steps.tolist() == list(range(1, len(ratios) + 1))
            assert np.array_equal(trace.ratios.view(np.int64), np.array(ratios).view(np.int64))
            raws = np.array(raws)
            finite = ~np.isnan(raws)
            rounded = np.floor(raws[finite] + 0.5)
            assert np.array_equal(np.isnan(trace.raw), ~finite)
            assert np.array_equal(np.isnan(trace.rounded), ~finite)
            assert np.array_equal(trace.raw[finite].view(np.int64), raws[finite].view(np.int64))
            assert np.array_equal(trace.rounded[finite].view(np.int64), rounded.view(np.int64))
        batch = estimate_chains([start for _, _, start in cases], [c for _, c, _ in cases],
                                [f"case {i}" for i in range(len(cases))])
        assert batch == [(estimate, stop) for _, _, (_, estimate, stop) in expected]
        # The same 36 chains as one batch, cut into traces: each column ends
        # at its own stop, inside a block or at a block edge.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StabilityWarning)
            cut = chain_traces([start for _, _, start in cases], [c for _, c, _ in cases])
        assert [trace_bits(t) for t in cut] == [trace_bits(t) for t in traces]

    def test_batch_columns_through_run_estimation(self):
        # the last chain is above its sufficient bound, yet settles on 3
        paper_gains = EstimatorConfig(params=EstimationParams(alpha=0.1, dt=1.0),
                                      strategy="S2")
        cases = _block_cases()[:6] + [(3, paper_gains, uniform_box(make_generator(5, 0), 3, 5.0))]
        starts, configs = [start for _, _, start in cases], [c for _, c, _ in cases]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            batch = ChainBatch(starts, configs)
        expected = [w for w in caught if w.category is StabilityWarning]
        assert [w.filename for w in expected] == [__file__]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            traces = [run_estimation(n, c, batch=batch, column=b)
                      for b, (n, c, _) in enumerate(cases)]
            cut = chain_traces(starts, configs)
        assert not caught  # the batch warned once, at its construction
        assert traces == batch.traces  # run once, at the first call
        assert [trace_bits(t) for t in traces] == [trace_bits(t) for t in cut]
        assert traces[-1].estimate == 3
        with pytest.raises(ValueError, match="column 1 of the batch is another chain"):
            run_estimation(cases[0][0], configs[0], batch=batch, column=1)

    def test_divergence_inside_a_block(self):
        # dt = 1e-150 makes every velocity ~1e150 times its position
        # change: the tail velocity overflows the ratio at step 70, inside
        # the second block, while the positions pass the step-64 check.
        params = EstimationParams(alpha=1.9e150, dt=1e-150)
        diverging = EstimatorConfig(params=params, stop_window=40, max_steps=400)
        start = uniform_box(make_generator(1, 0), 6, 1e-10)
        with warnings.catch_warnings(record=True) as alone_warnings:
            warnings.simplefilter("always")
            with pytest.raises(DivergenceError) as reference:
                reference_estimation(6, diverging, start)
            del alone_warnings[:]
            with pytest.raises(DivergenceError) as alone:
                run_estimation(6, diverging, start)
        message = str(reference.value)
        assert message.startswith("chain velocities diverged at step 70: ")
        assert str(alone.value) == message
        ratios, raws = reference.value.partial
        partial = alone.value.partial
        assert partial.steps.tolist() == list(range(1, 70))
        assert partial.ratios.tolist() == ratios
        # Next to it: chains stopped by their max_steps at steps 10 and 65,
        # one that settles at step 22 and one that runs on.  The chain
        # stopped at step 10 would overflow by step 70; stepped again at
        # rest, it adds no warning to the diverging chain's.
        cases = _block_cases()
        starts = [start, uniform_box(make_generator(1, 0), 6, 1e-5), cases[11][2],
                  cases[12][2], uniform_box(make_generator(0, 1), 4, 5.0)]
        configs = [diverging, EstimatorConfig(params=params, stop_window=2, max_steps=10),
                   cases[11][1], cases[12][1],
                   config_for(4, "S2", stop_window=2000, max_steps=6000)]
        names = ["far chain"] + ["other"] * 4
        with warnings.catch_warnings(record=True) as batch_warnings:
            warnings.simplefilter("always")
            with pytest.raises(DivergenceError) as batch:
                estimate_chains(starts, configs, names)
        named = message.replace("chain velocities", "chain velocities of far chain")
        assert str(batch.value) == named
        runtime = [[str(w.message) for w in caught if w.category is RuntimeWarning]
                   for caught in (alone_warnings, batch_warnings)]
        assert runtime[0] and runtime[1] == runtime[0]
        # Cut into traces, the partial is every chain's: the finished ones
        # whole, the running ones up to the step before the divergence.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(DivergenceError) as traced:
                chain_traces(starts, configs, names)
            alone_traces = [run_estimation(len(s), c, s) for s, c in zip(starts[1:], configs[1:])]
        assert str(traced.value) == named
        partial = traced.value.partial
        assert [len(t.steps) for t in partial] == [69, 10, 65, 22, 69]
        assert [t.converged for t in partial] == [False, False, False, True, False]
        assert trace_bits(partial[0]) == trace_bits(alone.value.partial)
        assert ([trace_bits(t) for t in partial[1:4]]
                == [trace_bits(t) for t in alone_traces[:3]])
        running = alone_traces[3]  # alone, it settles at step 2 136
        assert running.steps_to_convergence == 2136
        for name in ("steps", "ratios", "raw", "rounded"):
            assert (getattr(partial[4], name).tobytes()
                    == getattr(running, name)[:69].tobytes())

    def test_divergence_after_columns_left_the_buffers(self, monkeypatch):
        # The far chain, placed in a 1e-30 box, overflows its tail velocity
        # at step 162, in the third block.  Before it, the chains stopped at
        # steps 10, 22 and 100 have left the buffers, so the far chain is
        # buffer column 1 of 2, not column 3 of 5, when it fails.
        params = EstimationParams(alpha=1.9e150, dt=1e-150)
        diverging = EstimatorConfig(params=params, stop_window=40, max_steps=400)
        cases = _block_cases()
        starts = [uniform_box(make_generator(0, 1), 4, 5.0),
                  uniform_box(make_generator(1, 0), 6, 1e-5), cases[12][2],
                  uniform_box(make_generator(1, 0), 6, 1e-30), cases[11][2]]
        configs = [config_for(4, "S2", stop_window=2000, max_steps=6000),
                   EstimatorConfig(params=params, stop_window=2, max_steps=10), cases[12][1],
                   diverging, replace(cases[11][1], max_steps=100)]
        names = ["stable", "short", "settling", "far chain", "limited"]
        widths = []

        def counted(q, *args, **kwargs):
            widths.append(q.shape[-1])
            return midpoint_law(q, *args, **kwargs)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            expected = []
            for start, config in zip(starts, configs):
                try:
                    expected.append(reference_estimation(len(start), config, start)[:2])
                except DivergenceError as err:
                    failure = err
                    expected.append(err.partial)
            monkeypatch.setattr(ringform.estimation, "midpoint_law", counted)
            with pytest.raises(DivergenceError) as traced:
                chain_traces(starts, configs, names)
        message = str(failure)
        assert message.startswith("chain velocities diverged at step 162: ")
        assert str(traced.value) == message.replace("velocities", "velocities of far chain")
        # Blocks end at step 10 (a limit), 64, 100 (a limit), 128 and 192,
        # where step 162 is found to fail; the 2 columns left replay it.
        assert widths == [5] * 10 + [4] * 54 + [3] * 36 + [2] * 92 + [2] * 162
        partial = traced.value.partial
        assert [len(t.steps) for t in partial] == [161, 10, 22, 161, 100]
        for trace, (ratios, raws) in zip(partial, expected):
            n = len(trace.steps)
            assert trace.steps.tolist() == list(range(1, n + 1))
            assert trace.ratios.tobytes() == np.array(ratios[:n]).tobytes()
            raws = np.array(raws[:n])
            assert np.array_equal(np.isnan(trace.raw), np.isnan(raws))
            assert trace.raw[~np.isnan(raws)].tobytes() == raws[~np.isnan(raws)].tobytes()

    def test_checks_fall_on_block_multiples(self):
        # Scripted readouts; the far chain starts beyond the position limit.
        # Running, it is caught at step 64, not at the end of the near
        # chain's 40 steps; stopped at step 2, it is never checked.
        far = uniform_box(make_generator(0, 0), 3, 1e7)
        near = uniform_box(make_generator(0, 1), 3, 1.0)
        config = EstimatorConfig(params=EstimationParams(alpha=0.5, dt=0.01),
                                 stop_window=2, max_steps=200)

        def scripted(raw):
            return lambda *_: lambda ratios: np.broadcast_to(raw, ratios.shape).copy()

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ringform.estimation, "readouts", scripted([math.nan, math.nan]))
            with pytest.raises(DivergenceError,
                               match="^chain positions of far diverged at step 64: "):
                estimate_chains([far, near], [config, replace(config, max_steps=40)],
                                ["far", "near"])
            patch.setattr(ringform.estimation, "readouts", scripted([3.0, math.nan]))
            assert estimate_chains([far, near], [config, config],
                                   ["far", "near"]) == [(3, 2), (None, None)]


class TestSteadyState:
    def test_oscillation_constant_magnitude_and_sign_flip(self):
        config = config_for(3, "S1", max_steps=30000)
        state = SwarmState.chain(3, None)
        for _ in range(6000):
            state = step_estimator(state, config)
        before = state.velocities.copy()
        state = step_estimator(state, config)
        np.testing.assert_allclose(state.velocities, -before, atol=1e-10)
        np.testing.assert_allclose(
            np.linalg.norm(state.velocities, axis=1),
            np.linalg.norm(before, axis=1),
            atol=1e-10,
        )

    @pytest.mark.parametrize("strategy", ["S1", "S2"])
    def test_steady_ratio_matches_step_estimator_replay(self, strategy):
        # Same settle rule, stepped through the allocating public step; the
        # lock-step batch settles its chains inside blocks.
        orders = [1, 2, 4, 7]
        configs = [config_for(n, strategy) for n in orders]
        expected = [reference_steady_ratio(n, c) for n, c in zip(orders, configs)]
        assert all(step % 64 for _, step in expected)
        assert steady_velocity_ratios(orders, configs) == [ratio for ratio, _ in expected]
        assert steady_velocity_ratio(4, configs[2]) == expected[2][0]

    @pytest.mark.parametrize("strategy", ["S1", "S2"])
    def test_simulated_ratio_matches_closed_form(self, strategy):
        for n_prime in (1, 4, 10):
            config = config_for(n_prime, strategy)
            simulated = steady_velocity_ratio(n_prime, config)
            analytic = steady_ratio_closed(n_prime, config.params.beta, strategy)
            assert simulated == pytest.approx(analytic, abs=1e-9)


class TestConfigValidation:
    def test_bad_strategy(self):
        with pytest.raises(ValueError):
            EstimatorConfig(params=EstimationParams(alpha=0.5, dt=0.01), strategy="X")

    def test_window_and_steps(self):
        params = EstimationParams(alpha=0.5, dt=0.01)
        with pytest.raises(ValueError):
            EstimatorConfig(params=params, stop_window=1)
        with pytest.raises(ValueError):
            EstimatorConfig(params=params, stop_window=100, max_steps=100)

    def test_zero_excitation_rejected(self):
        params = EstimationParams(alpha=0.5, dt=0.01)
        with pytest.raises(ValueError):
            EstimatorConfig(params=params, excitation_init=(0.0, 0.0))
        with pytest.raises(ValueError):  # x*x + y*y underflows to 0
            EstimatorConfig(params=params, excitation_init=(1.0e-170, 0.0))

    def test_overflowing_excitation_rejected(self):
        params = EstimationParams(alpha=0.5, dt=0.01)
        for excitation in [(1.0e300, 0.0), (0.0, -1.0e200), (math.inf, 0.0)]:
            with pytest.raises(ValueError, match="finite x\\*x \\+ y\\*y"):
                EstimatorConfig(params=params, excitation_init=excitation)
        EstimatorConfig(params=params, excitation_init=(1.0e154, 0.0))


@settings(max_examples=20, deadline=None)
@given(
    n_prime=st.integers(min_value=1, max_value=5),
    strategy=st.sampled_from(["S1", "S2"]),
    seed=st.integers(min_value=0, max_value=2 ** 32),
)
def test_step_equals_matrix_iteration_property(n_prime, strategy, seed):
    alpha_dt = 0.8 * stability_bound(n_prime, "S2")
    params = EstimationParams(alpha=alpha_dt / 0.05, dt=0.05)
    config = EstimatorConfig(params=params, strategy=strategy)
    rng = make_generator(seed, 0)
    initial = uniform_box(rng, n_prime, 2.0)
    if strategy == "S1":
        mats = build_estimator_matrix(n_prime, params)
        expected = iterate_estimator(mats, initial, (1.0, 0.0), 50)
    else:
        mats = build_lagged_estimator_matrix(n_prime, params)
        expected = iterate_lagged_estimator(mats, initial, (1.0, 0.0), 50)
    state = SwarmState.chain(n_prime, initial, (1.0, 0.0))
    for step_states in expected:
        state = step_estimator(state, config)
        got_q = state.positions[1:]
        np.testing.assert_allclose(got_q, step_states[:n_prime], atol=1e-12)
        np.testing.assert_allclose(
            state.velocities[1:], step_states[-n_prime:], atol=1e-12
        )


def _near(r):
    """Raw readouts around integer ``r``: r itself, r +- 0.5, and one ulp
    either side of each rounding edge."""
    edges = (r - 0.5, r + 0.5)
    across = (float(np.nextafter(e, d)) for e in edges for d in (-math.inf, math.inf))
    return [float(r), *edges, *across]


# r = 1, 2, 4, 8 and large r, non-positive r, and non-finite readouts
RAW_RUNS = st.one_of(
    st.sampled_from((-1, 0, 1, 2, 4, 8, 2 ** 20, 2 ** 51 + 1)).flatmap(
        lambda r: st.lists(st.sampled_from(_near(r)), min_size=1, max_size=8)),
    st.lists(st.sampled_from((math.nan, math.inf, -math.inf, -0.3)), min_size=1, max_size=3),
)
RAW_SEQUENCES = st.lists(RAW_RUNS, min_size=1, max_size=8).map(
    lambda runs: [x for run in runs for x in run])


@settings(max_examples=300, deadline=None)
@given(columns=st.lists(st.tuples(RAW_SEQUENCES, st.integers(min_value=2, max_value=6)),
                        min_size=1, max_size=4))
# the r = 1 span edge: 0.5 - 2^-54 and 1.5 - 2^-52 both round to 1
@example(columns=[([float(np.nextafter(0.5, 0.0)), float(np.nextafter(1.5, 0.0))], 2)])
@example(columns=[([3.0, math.nan, 3.0, 3.2, 2.7], 3), ([2.0] * 9, 4), ([5.0, 5.2], 6)])
def test_stop_rule_matches_documented_rule(columns):
    # The readouts are scripted, so the rule sees exactly the given raw
    # readouts, one block of rows per call; a short script is padded with
    # NaN to exceed its window.  Each column runs alone through
    # run_estimation, then all of them together, each with its own window
    # and max_steps, through the lock-step estimate_chains.
    scripts = [raws + [math.nan] * (window + 1 - len(raws)) for raws, window in columns]
    configs = [EstimatorConfig(params=EstimationParams(alpha=0.5, dt=0.01),
                               stop_window=window, max_steps=len(raws))
               for raws, (_, window) in zip(scripts, columns)]
    expected = [reference_stop_rule(raws, window)
                for raws, (_, window) in zip(scripts, columns)]

    def scripted(rows):
        feed = iter(rows)
        return lambda *_: lambda ratios: np.array([next(feed) for _ in ratios])

    for raws, config, want in zip(scripts, configs, expected):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ringform.estimation, "readouts", scripted([[x] for x in raws]))
            trace = run_estimation(1, config, seed=0)
        assert (trace.converged, trace.estimate, trace.steps_to_convergence) == want
        np.testing.assert_array_equal(trace.raw, raws[:len(trace.raw)])

    longest = max(len(raws) for raws in scripts)
    padded = np.array([raws + [math.nan] * (longest - len(raws)) for raws in scripts])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ringform.estimation, "readouts", scripted(padded.T))
        batch = estimate_chains([np.zeros((1, 2))] * len(scripts), configs,
                                [f"column {b}" for b in range(len(scripts))])
    assert [(stop is not None, estimate, stop) for estimate, stop in batch] == expected
