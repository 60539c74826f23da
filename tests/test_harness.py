import math

import numpy as np
import pytest

import ringform.estimation
from helpers import reference_sweep, shipped_config
from ringform import cli
from ringform.estimation import EstimatorConfig, batch_bytes, steady_velocity_ratio
from ringform.core import ParameterError, make_generator, midpoint_law, uniform_box
from ringform.harness import (
    _sweep_chains,
    auto_stop_window,
    scaled_params,
    scenario_report,
    sensitivity_curves,
    sweep_and_curves,
    sweep_batch_bytes,
    sweep_convergence,
)
from ringform.spectral import (
    EstimationParams,
    build_estimator_matrix,
    build_formation_matrix,
    build_lagged_estimator_matrix,
    build_lagged_formation_matrix,
    spectral_radius,
    stability_bound,
    steady_ratio_closed,
)


class TestScaledParams:
    def test_alpha_dt_sits_at_ninety_percent_of_the_tighter_bound(self):
        for n_prime in (4, 19, 29):
            p = scaled_params(n_prime)
            target = 0.9 * stability_bound(n_prime, "S2")
            assert p.alpha * p.dt == pytest.approx(target, rel=1e-12)
            assert p.alpha * p.dt < stability_bound(n_prime, "S1")

    def test_window_grows_with_chain_order(self):
        small = auto_stop_window(4, scaled_params(4), "S1")
        large = auto_stop_window(29, scaled_params(29), "S1")
        assert small >= 50
        assert large > small

    def test_shipped_automatic_stop_windows(self):
        # the windows the shipped pipeline and estimate configs leave unset
        windows = {name: shipped_config(name).pipeline_arguments()["est_config"].stop_window
                   for name in ("hexagon", "triangle")}
        estimate20 = shipped_config("estimate20")
        windows["estimate20"] = estimate20.estimator_config().stop_window
        assert windows == {"hexagon": 1643, "triangle": 57, "estimate20": 917}

    def test_windows_equal_those_of_the_dense_matrices(self):
        # The window reads the radius of the modal blocks; the dense chain
        # matrices, the reference layer, give the same window at every order.
        def dense_window(n_prime, params, build):
            rho = spectral_radius(build(n_prime, params).dense)
            return max(50, math.ceil(math.log(100.0) / -math.log(rho)))

        for n_prime in range(1, 61):
            for params in (scaled_params(n_prime, 0.01), scaled_params(n_prime, 0.05),
                           EstimationParams(0.5, 0.01), EstimationParams(0.5, 0.05)):
                for strategy, build in (("S1", build_estimator_matrix),
                                        ("S2", build_lagged_estimator_matrix)):
                    assert auto_stop_window(n_prime, params, strategy) == \
                        dense_window(n_prime, params, build), (n_prime, params, strategy)


class TestSweep:
    def test_small_sweep_all_exact(self):
        result = sweep_convergence((5, 8), reps=2, scale_per_n=True, seed=1)
        assert len(result.rows) == 8  # 4 sizes x 2 strategies
        assert all(row.all_correct for row in result.rows)
        assert all(row.mean_steps > 0 for row in result.rows)
        # rows are sorted by (n, strategy)
        keys = [(row.n, row.strategy) for row in result.rows]
        assert keys == sorted(keys)

    def test_sweep_is_deterministic(self):
        a = sweep_convergence((5, 7), reps=2, scale_per_n=True, seed=5)
        b = sweep_convergence((5, 7), reps=2, scale_per_n=True, seed=5)
        assert a.rows == b.rows

    def test_cells_reproduce_in_isolation(self):
        # placements are keyed by (seed, cell, rep), so a cell's row does
        # not depend on which other cells the sweep runs
        alone = sweep_convergence((6, 6), reps=2, scale_per_n=True, seed=2)
        within = sweep_convergence((5, 7), reps=2, scale_per_n=True, seed=2)
        assert alone.rows == [row for row in within.rows if row.n == 6]

    def test_reps_past_100_draw_distinct_placements(self):
        # Under the key n*1000 + strategy*100 + rep alone, rep 100 of a
        # cell's S1 chains drew the placement of its S2 rep 0.
        starts = _sweep_chains((5, 6), 101, 0.01, True, 0, 5.0, 60000)[0]
        assert len({start.tobytes() for start in starts}) == len(starts) == 2 * 2 * 101
        # cells in (n, strategy) order, reps within a cell
        for n, strategy, rep, key in ((6, 1, 99, 6199), (6, 1, 100, 2 ** 63 + (13 << 32) + 100)):
            start = starts[((n - 5) * 2 + strategy) * 101 + rep]
            assert np.array_equal(start, uniform_box(make_generator(0, key), n - 1, 5.0))

    @pytest.mark.parametrize("n_range,reps,message", [
        ((1, 6), 1, "sweep_n_min: must be at least 2, got 1"),
        ((7, 6), 1, "sweep_n_max: must be at least the smallest n, 7, got 6"),
        ((5, 6), 0, "sweep_reps: must be at least 1, got 0"),
    ])
    def test_range_rules_name_the_parameter(self, n_range, reps, message):
        with pytest.raises(ParameterError) as err:
            sweep_convergence(n_range, reps)
        assert (err.value.name, str(err.value)) == (message.split(":")[0], message)

    def test_curve_range_names_its_upper_bound(self):
        with pytest.raises(ParameterError) as err:
            sensitivity_curves((3, 2))
        assert str(err.value) == "n_range: upper bound must be at least the lower, 3, got 2"

    def test_starved_cell_reports_miss(self):
        # a max_steps too small for the window guarantees a non-converged cell
        result = sweep_convergence(
            (5, 5), reps=1, scale_per_n=True, seed=1, max_steps=60
        )
        assert [(row.n, row.all_correct) for row in result.rows] == [(5, False)] * 2

    @pytest.mark.parametrize("n_range,scale_per_n,max_steps", [
        ((2, 9), True, 60000),
        ((2, 9), False, 60000),
        ((5, 6), True, 60),  # starved: every chain stops at its own max_steps
    ])
    def test_batch_equals_one_chain_at_a_time(self, n_range, scale_per_n, max_steps):
        # The lock-step batch must give the rows of the per-chain loop exactly:
        # orders 1..8 share one padded buffer with both strategies mixed.
        kwargs = dict(scale_per_n=scale_per_n, seed=11, max_steps=max_steps)
        expected = reference_sweep(n_range, 3, **kwargs)
        assert sweep_convergence(n_range, 3, **kwargs).rows == expected

    def test_unconverged_cell_reports_the_steps_it_ran(self):
        # max_steps = 10 is raised past each cell's stop window, and the
        # chains run those steps without converging
        result = sweep_convergence((5, 6), 1, dt=0.01, scale_per_n=True, max_steps=10)
        ran = [auto_stop_window(n - 1, scaled_params(n - 1), s) + 1 for n in (5, 6)
               for s in ("S1", "S2")]
        assert [row.mean_steps for row in result.rows] == ran
        assert 80 <= min(ran) and max(ran) <= 132
        assert not any(row.all_correct for row in result.rows)


class TestSweepMode:
    """The sweep and the sensitivity curves as one lock-step batch."""

    @pytest.mark.parametrize("scale_per_n", [True, False])
    @pytest.mark.parametrize("reps", [1, 3])
    def test_one_batch_equals_the_two_calls(self, scale_per_n, reps):
        # n_min = 2 gives an order-1 sensitivity chain
        sweep, curve = sweep_and_curves((2, 7), reps, dt=0.01, scale_per_n=scale_per_n,
                                        seed=4, initial_box=5.0)
        # every value is a finite nonzero float, so == is bit for bit
        assert sweep == sweep_convergence((2, 7), reps, scale_per_n=scale_per_n, seed=4)
        assert curve == sensitivity_curves((1, 6))

    @pytest.mark.parametrize("n_range,reps", [((2, 7), 1), ((5, 6), 3), ((4, 4), 2)])
    def test_batch_bytes_count_the_batch_it_runs(self, monkeypatch, n_range, reps):
        sizes = []

        def sized(starts, *args):
            sizes.append(batch_bytes(max(map(len, starts)) + 2, len(starts)))
            raise RuntimeError("sized, not run")

        monkeypatch.setattr(ringform.estimation, "_lock_step", sized)
        with pytest.raises(RuntimeError, match="sized, not run"):
            sweep_and_curves(n_range, reps, dt=0.01, scale_per_n=False, seed=0,
                             initial_box=5.0)
        assert sizes == [sweep_batch_bytes(n_range, reps)]

    def test_work_of_the_benchmark_sweep(self, tmp_path, monkeypatch):
        # The benchmark's sweep workload at seed 3: 64 chains stop by step
        # 3 456 and 32 by step 6 272, live for 90 238 + 88 940 steps.  Each
        # law evaluation steps every chain in the buffers, and a chain
        # leaves them at the end of the block it stops in, so at most 64
        # steps after its stop.  Two batches that step their finished
        # chains would make 9 728 evaluations over 421 888 chain-steps.
        work = []

        def counted(q, *args, **kwargs):
            work.append(q.shape[-1])
            return midpoint_law(q, *args, **kwargs)

        monkeypatch.setattr(ringform.estimation, "midpoint_law", counted)
        cfg = cli.parse_config({
            "mode": "sweep", "seed": 3, "dt": 0.01, "output_dir": str(tmp_path),
            "sweep": {"n_min": 5, "n_max": 20, "reps": 2, "scale_per_n": True},
        })
        assert cli.execute(cfg) == 0
        assert len(work) == 6272
        assert sum(work) <= 90238 + 88940 + 96 * 64


class TestSensitivity:
    def test_simulated_matches_closed_forms(self):
        curve = sensitivity_curves((4, 8))
        for row in curve.rows:
            assert row.ratio_s1_sim == pytest.approx(row.ratio_s1_closed, abs=1e-6)
            assert row.ratio_s2_sim == pytest.approx(row.ratio_s2_closed, abs=1e-6)

    @pytest.mark.parametrize("n_range,beta", [((1, 8), None), ((2, 9), 0.0025)])
    def test_batch_equals_one_order_at_a_time(self, n_range, beta):
        curve = sensitivity_curves(n_range, beta)
        assert [row.n_prime for row in curve.rows] == list(range(n_range[0], n_range[1] + 1))
        for row in curve.rows:
            p = scaled_params(row.n_prime) if beta is None else EstimationParams(
                alpha=2.0 * beta / 0.01, dt=0.01)
            for strategy, sim in (("S1", row.ratio_s1_sim), ("S2", row.ratio_s2_sim)):
                config = EstimatorConfig(params=p, strategy=strategy)
                alone = steady_velocity_ratio(row.n_prime, config)
                assert type(sim) is float
                assert sim == alone

    def test_fixed_beta_mode(self):
        beta = 0.0025
        curve = sensitivity_curves((4, 6), beta=beta)
        for row in curve.rows:
            assert row.beta == pytest.approx(beta)
            assert row.ratio_s2_closed == pytest.approx(
                row.n_prime / ((row.n_prime + 1) * (1 + beta))
            )
            assert row.ratio_s1_closed == pytest.approx(
                steady_ratio_closed(row.n_prime, beta, "S1")
            )

    def test_degenerate_s1_frame_reports_the_recursion_gain(self):
        curve = sensitivity_curves((1, 3), beta=5e-303)
        for row in curve.rows:
            # at beta -> 0 both strategies' gains tend to 2d / (d + 1)
            assert row.ratio_s1_closed == pytest.approx(row.n_prime / (row.n_prime + 1), rel=1e-15)
            assert row.ratio_s1_sim == pytest.approx(row.ratio_s1_closed, abs=1e-6)

    def test_curves_increase_with_chain_order_at_fixed_beta(self):
        curve = sensitivity_curves((2, 12), beta=0.0025)
        s1 = [row.ratio_s1_closed for row in curve.rows]
        s2 = [row.ratio_s2_closed for row in curve.rows]
        assert all(a < b for a, b in zip(s1, s1[1:]))
        assert all(a < b for a, b in zip(s2, s2[1:]))
        # the S1 curve tends to 1/(1 + sqrt(beta))^2, the S2 curve to 1/(1 + beta)
        assert s1[-1] < 1.0 / (1.0 + np.sqrt(0.0025)) ** 2
        assert s2[-1] < 1.0 / 1.0025

    def test_reports_more_sensitive_strategy(self):
        curve = sensitivity_curves((4, 8), beta=0.0025)
        assert curve.more_sensitive in ("S1", "S2")
        tv = {
            "S1": curve.total_variation_s1,
            "S2": curve.total_variation_s2,
        }
        other = "S2" if curve.more_sensitive == "S1" else "S1"
        assert tv[curve.more_sensitive] >= tv[other]


TRIANGLE_TIMES = (0.0, 50.0, 100.0)
HEXAGON_TIMES = (0.0, 50.0, 100.0, 150.0)


class TestTriangleScenario:
    def test_full_story(self):
        report = scenario_report(shipped_config("triangle", seed=13), TRIANGLE_TIMES)
        assert report.pipeline.estimates == [2, 3, 2]
        assert report.extra_estimates["S1"] == [2, 3, 2]
        assert report.figures["max_error_final"] < 1e-2
        assert report.figures["max_vertex_speed_final"] < 1e-4
        assert report.figures["interior_spacing_error"] < 1e-3
        assert report.figures["equilibrium_deviation"] < 1e-2
        assert report.figures["rho_chain"] < 1.0

    def test_rho_chain_follows_the_velocity_lag(self):
        # the triangle's largest chain has 3 robots
        params = EstimationParams(alpha=0.3, dt=0.2)
        for sigma, builder in ((1, build_formation_matrix),
                               (2, build_lagged_formation_matrix)):
            report = scenario_report(shipped_config("triangle", seed=13, sigma=sigma), ())
            dense = spectral_radius(builder(3, params).dense)
            assert report.figures["rho_chain"] == pytest.approx(dense, rel=1e-12)

    def test_determinism(self):
        cfg = shipped_config("triangle", seed=4)
        a = scenario_report(cfg, TRIANGLE_TIMES)
        b = scenario_report(cfg, TRIANGLE_TIMES)
        np.testing.assert_array_equal(
            a.pipeline.formation.final_state.positions,
            b.pipeline.formation.final_state.positions,
        )


class TestHexagonScenario:
    def test_physics_converges_given_enough_time(self):
        # The 20-robot formation chain has spectral radius ~0.9985 per
        # step, and the six-chain cascade shows a large non-normal
        # transient, so at the shipped dt = 0.05 convergence to centimetre
        # errors needs several hundred simulated seconds.  This run
        # verifies the dynamics land exactly on the cascade equilibrium
        # when given enough horizon.
        # the shipped config's horizon is 900 s
        report = scenario_report(shipped_config("hexagon", seed=7), HEXAGON_TIMES)
        assert report.pipeline.estimates == [20] * 6
        assert report.figures["max_error_final"] < 1e-2
        assert report.figures["max_vertex_speed_final"] < 1e-4
        assert report.figures["interior_spacing_error"] < 1e-3
        assert report.figures["equilibrium_deviation"] < 1e-2
        assert report.figures["first_time_within_tol"] is not None
        # at dt = 0.05, 150 s are only 3000 steps of the slow chain mode
        assert report.figures["rho_chain"] > 0.998
        assert report.figures["first_time_within_tol"] > 150.0
        assert set(report.snapshots) == {0.0, 50.0, 100.0, 150.0}

    def test_finer_sampling_meets_the_deadline(self):
        # The velocity average is a per-step consensus: rho_chain stays
        # ~0.9985 per step at any dt, so the decay per second is
        # -ln(rho) / dt.  Criterion 6's run (seed 7, 150 s) at dt = 0.01
        # meets every threshold that criterion asserts.
        report = scenario_report(
            shipped_config("hexagon", seed=7, dt=0.01, max_steps=15000), HEXAGON_TIMES)
        assert report.pipeline.estimates == [20] * 6
        assert report.pipeline.formation.first_step_within_tol == 10007  # t = 100.07 s
        assert report.figures["max_error_final"] < 1e-4
        assert report.figures["max_vertex_speed_final"] < 1e-4
        assert report.figures["interior_spacing_error"] < 1e-3
        assert set(report.snapshots) == set(HEXAGON_TIMES)
        coarse = spectral_radius(
            build_formation_matrix(20, EstimationParams(alpha=0.5, dt=0.05)).dense)
        assert abs(report.figures["rho_chain"] - coarse) < 1e-4

    def test_snapshots_present_at_reference_times(self):
        report = scenario_report(shipped_config("hexagon", seed=3, max_steps=3000),
                                 HEXAGON_TIMES)
        assert set(report.snapshots) == {0.0, 50.0, 100.0, 150.0}
        assert not report.pipeline.formation.converged
