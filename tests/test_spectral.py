import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    analytic_estimator_radius,
    analytic_lagged_radius,
    dense_gain,
    lu_determinant,
    readout_matrix_dense,
)
from ringform.spectral import (
    EstimationParams,
    build_cascade_matrix,
    build_estimator_matrix,
    build_formation_matrix,
    build_lagged_estimator_matrix,
    build_lagged_formation_matrix,
    chain_equilibrium,
    chain_modes,
    decay_seconds,
    readout_determinant,
    readout_matrix,
    s1_readout_frame,
    spectral_radius,
    spectral_report,
    stability_bound,
    steady_gain,
    steady_gain_recursive,
    steady_ratio_closed,
)

P = EstimationParams(alpha=0.5, dt=0.01)


class TestParams:
    def test_beta(self):
        assert EstimationParams(alpha=0.5, dt=0.01).beta == pytest.approx(0.0025)

    def test_rejects_bad_domains(self):
        with pytest.raises(ValueError):
            EstimationParams(alpha=0.0, dt=0.1)
        with pytest.raises(ValueError):
            EstimationParams(alpha=1.0, dt=-0.1)
        with pytest.raises(ValueError):
            EstimationParams(alpha=2.0, dt=1.0)  # beta = 1
        with pytest.raises(ValueError):
            EstimationParams(alpha=3.0, dt=1.0)  # beta > 1


DENSE = {
    "estimator": build_estimator_matrix,
    "lagged_estimator": build_lagged_estimator_matrix,
    "formation": build_formation_matrix,
    "lagged_formation": build_lagged_formation_matrix,
}


A, H, T = 0.5, 0.25, 0.125  # alpha, alpha / 2 and dt, all exact in binary

# Every chain matrix at orders 2 and 3 written out, (dense, input map):
# rows are positions, (stale velocities,) velocities.
LAYOUTS = {
    ("estimator", 2): (
        [[1, 0, T, 0],
         [0, 1, 0, T],
         [-A, H, 0, .5],
         [H, -A, .5, 0]],
        [[0], [0], [0], [.5]]),
    ("estimator", 3): (
        [[1, 0, 0, T, 0, 0],
         [0, 1, 0, 0, T, 0],
         [0, 0, 1, 0, 0, T],
         [-A, H, 0, 0, .5, 0],
         [H, -A, H, .5, 0, .5],
         [0, H, -A, 0, .5, 0]],
        [[0], [0], [0], [0], [0], [.5]]),
    ("formation", 2): (
        [[1, 0, T, 0],
         [0, 1, 0, T],
         [-A, H, 0, .5],
         [A, -A, 1, 0]],
        [[0, 0, 0], [0, 0, 0], [H, .5, 0], [0, 0, -A]]),
    ("formation", 3): (
        [[1, 0, 0, T, 0, 0],
         [0, 1, 0, 0, T, 0],
         [0, 0, 1, 0, 0, T],
         [-A, H, 0, 0, .5, 0],
         [H, -A, H, .5, 0, .5],
         [0, A, -A, 0, 1, 0]],
        [[0, 0, 0], [0, 0, 0], [0, 0, 0], [H, .5, 0], [0, 0, 0], [0, 0, -A]]),
    ("lagged_estimator", 2): (
        [[1, 0, 0, 0, T, 0],
         [0, 1, 0, 0, 0, T],
         [0, 0, 0, 0, 1, 0],
         [0, 0, 0, 0, 0, 1],
         [-A, H, 0, .5, 0, 0],
         [H, -A, .5, 0, 0, 0]],
        [[0], [0], [0], [0], [0], [.5]]),
    ("lagged_estimator", 3): (
        [[1, 0, 0, 0, 0, 0, T, 0, 0],
         [0, 1, 0, 0, 0, 0, 0, T, 0],
         [0, 0, 1, 0, 0, 0, 0, 0, T],
         [0, 0, 0, 0, 0, 0, 1, 0, 0],
         [0, 0, 0, 0, 0, 0, 0, 1, 0],
         [0, 0, 0, 0, 0, 0, 0, 0, 1],
         [-A, H, 0, 0, .5, 0, 0, 0, 0],
         [H, -A, H, .5, 0, .5, 0, 0, 0],
         [0, H, -A, 0, .5, 0, 0, 0, 0]],
        [[0], [0], [0], [0], [0], [0], [0], [0], [.5]]),
    ("lagged_formation", 2): (
        [[1, 0, 0, 0, T, 0],
         [0, 1, 0, 0, 0, T],
         [0, 0, 0, 0, 1, 0],
         [0, 0, 0, 0, 0, 1],
         [-A, H, 0, .5, 0, 0],
         [A, -A, 1, 0, 0, 0]],
        [[0, 0, 0], [0, 0, 0], [0, 0, 0], [0, 0, 0], [H, .5, 0], [0, 0, -A]]),
    ("lagged_formation", 3): (
        [[1, 0, 0, 0, 0, 0, T, 0, 0],
         [0, 1, 0, 0, 0, 0, 0, T, 0],
         [0, 0, 1, 0, 0, 0, 0, 0, T],
         [0, 0, 0, 0, 0, 0, 1, 0, 0],
         [0, 0, 0, 0, 0, 0, 0, 1, 0],
         [0, 0, 0, 0, 0, 0, 0, 0, 1],
         [-A, H, 0, 0, .5, 0, 0, 0, 0],
         [H, -A, H, .5, 0, .5, 0, 0, 0],
         [0, A, -A, 0, 1, 0, 0, 0, 0]],
        [[0, 0, 0], [0, 0, 0], [0, 0, 0], [0, 0, 0], [0, 0, 0], [0, 0, 0],
         [H, .5, 0], [0, 0, 0], [0, 0, -A]]),
}


@pytest.mark.parametrize("kind,order", sorted(LAYOUTS))
def test_builder_is_the_written_out_layout(kind, order):
    dense, input_matrix = LAYOUTS[kind, order]
    mats = DENSE[kind](order, EstimationParams(alpha=A, dt=T))
    assert (mats.kind, mats.order) == (kind, order)
    np.testing.assert_array_equal(mats.dense, np.array(dense, dtype=float))
    np.testing.assert_array_equal(mats.input_matrix, np.array(input_matrix, dtype=float))


class TestBuilders:
    def test_estimator_order_one(self):
        params = EstimationParams(alpha=0.7, dt=0.2)
        mats = build_estimator_matrix(1, params)
        expected = np.array([[1.0, 0.2], [-0.7, 0.0]])
        np.testing.assert_allclose(mats.dense, expected)
        np.testing.assert_allclose(mats.input_matrix, [[0.0], [0.5]])

    def test_estimator_position_block_order_two(self):
        mats = build_estimator_matrix(2, P)
        block = mats.dense[2:, :2]
        np.testing.assert_allclose(block, 0.5 * np.array([[-1.0, 0.5], [0.5, -1.0]]))

    def test_velocity_block_nonzero_count(self):
        mats = build_estimator_matrix(3, P)
        block = mats.dense[3:, 3:]
        nonzero = block[block != 0.0]
        assert nonzero.size == 4 and np.all(nonzero == 0.5)

    def test_estimator_rejects_order_zero(self):
        with pytest.raises(ValueError):
            build_estimator_matrix(0, P)

    def test_lagged_order_one(self):
        params = EstimationParams(alpha=0.7, dt=0.2)
        mats = build_lagged_estimator_matrix(1, params)
        expected = np.array(
            [[1.0, 0.0, 0.2], [0.0, 0.0, 1.0], [-0.7, 0.0, 0.0]]
        )
        np.testing.assert_allclose(mats.dense, expected)

    def test_lagged_middle_block_shifts_velocities(self):
        mats = build_lagged_estimator_matrix(2, P)
        middle = mats.dense[2:4]
        np.testing.assert_allclose(middle[:, :4], np.zeros((2, 4)))
        np.testing.assert_allclose(middle[:, 4:], np.eye(2))

    def test_formation_differs_from_estimator_in_two_entries(self):
        base = build_estimator_matrix(2, P).dense
        formed = build_formation_matrix(2, P).dense
        assert np.count_nonzero(formed - base) == 2

    def test_formation_vertex_row(self):
        params = EstimationParams(alpha=0.3, dt=0.2)
        mats = build_formation_matrix(3, params)
        row = mats.dense[-1]
        # alpha (q_{n-1} - q_n) + v_{n-1}: position part sums to zero
        np.testing.assert_allclose(row[:3], [0.0, 0.3, -0.3])
        assert row[:3].sum() == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_allclose(row[3:], [0.0, 1.0, 0.0])

    def test_formation_input_map(self):
        params = EstimationParams(alpha=0.3, dt=0.2)
        mats = build_formation_matrix(3, params)
        B = mats.input_matrix
        assert B.shape == (6, 3)
        np.testing.assert_allclose(B[3], [0.15, 0.5, 0.0])
        np.testing.assert_allclose(B[5], [0.0, 0.0, -0.3])
        assert np.count_nonzero(B) == 3

    def test_vertex_correction_is_nilpotent(self):
        for n in (2, 5, 9):
            delta = build_formation_matrix(n, P).dense - build_estimator_matrix(n, P).dense
            np.testing.assert_allclose(delta @ delta, np.zeros_like(delta))

    def test_formation_rejects_single_robot(self):
        with pytest.raises(ValueError):
            build_formation_matrix(1, P)
        with pytest.raises(ValueError):
            build_lagged_formation_matrix(1, P)

    def test_lagged_formation_differs_from_lagged_estimator_in_vertex_row(self):
        params = EstimationParams(alpha=0.3, dt=0.2)
        base = build_lagged_estimator_matrix(3, params).dense
        mats = build_lagged_formation_matrix(3, params)
        delta = mats.dense - base
        assert np.count_nonzero(delta) == 2
        # alpha (q_{n-1} - q_n) + v_{n-1}(k-1): the velocity term is stale
        np.testing.assert_allclose(mats.dense[-1, :3], [0.0, 0.3, -0.3])
        np.testing.assert_allclose(mats.dense[-1, 3:6], [0.0, 1.0, 0.0])
        np.testing.assert_allclose(mats.dense[-1, 6:], np.zeros(3))
        B = mats.input_matrix
        assert B.shape == (9, 3)
        np.testing.assert_allclose(B[6], [0.15, 0.5, 0.0])
        np.testing.assert_allclose(B[8], [0.0, 0.0, -0.3])
        assert np.count_nonzero(B) == 3


class TestSpectralRadius:
    def test_identity(self):
        assert spectral_radius(np.eye(7)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert spectral_radius(np.diag([0.5, -0.25])) == pytest.approx(0.5)

    def test_rejects_nonsquare_and_nonfinite(self):
        with pytest.raises(ValueError):
            spectral_radius(np.ones((2, 3)))
        with pytest.raises(ValueError):
            spectral_radius(np.array([[1.0, np.nan], [0.0, 1.0]]))

    def test_stack_is_the_largest_radius_of_its_matrices(self):
        stack = np.array([np.diag([0.5, -0.25]), [[0.0, 1.0], [-0.81, 0.0]], np.eye(2) * 0.1])
        assert spectral_radius(stack) == pytest.approx(0.9)
        assert spectral_radius(stack.reshape(3, 1, 2, 2)) == pytest.approx(0.9)

    def test_stack_rejects_nonsquare_and_nonfinite(self):
        with pytest.raises(ValueError, match="square"):
            spectral_radius(np.ones((4, 2, 3)))
        with pytest.raises(ValueError, match="square"):
            spectral_radius(np.ones(3))
        stack = np.tile(np.eye(2), (3, 1, 1))
        stack[1, 0, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            spectral_radius(stack)

    def test_matches_per_mode_quadratic_oracle(self):
        for d in (1, 2, 5, 19, 30):
            for alpha_dt in (0.001, 0.005, 0.05):
                params = EstimationParams(alpha=alpha_dt / 0.01, dt=0.01)
                got = spectral_radius(build_estimator_matrix(d, params).dense)
                want = analytic_estimator_radius(d, params.alpha, params.dt)
                assert got == pytest.approx(want, rel=1e-8)

    def test_lagged_matches_per_mode_cubic_oracle(self):
        for d in (1, 3, 10, 19):
            for alpha_dt in (0.001, 0.005, 0.1):
                params = EstimationParams(alpha=alpha_dt / 0.01, dt=0.01)
                got = spectral_radius(build_lagged_estimator_matrix(d, params).dense)
                want = analytic_lagged_radius(d, params.alpha, params.dt)
                assert got == pytest.approx(want, rel=1e-8)

    def test_paper_chain_is_schur_but_above_lagged_bound(self):
        # 20-robot chain at alpha = 0.5, dt = 0.01: stable for both layouts
        # even though alpha*dt sits above the lagged sufficient bound.
        params = EstimationParams(alpha=0.5, dt=0.01)
        rho_a = spectral_radius(build_estimator_matrix(19, params).dense)
        rho_ar = spectral_radius(build_lagged_estimator_matrix(19, params).dense)
        assert rho_a < 1.0
        assert rho_ar < 1.0
        assert params.alpha * params.dt > stability_bound(19, "S2")


class TestChainModes:
    @pytest.mark.parametrize("kind", sorted(DENSE))
    def test_block_radius_equals_dense_radius(self, kind):
        # alpha*dt from well inside the bounds to far outside them; at
        # 1.5 every kind and order tested has rho > 1.22.
        first = 2 if kind.endswith("formation") else 1
        worst = 0.0
        for order in list(range(first, 41)) + [97, 200]:
            for alpha_dt in (1e-3, 0.02, 0.3, 1.5):
                params = EstimationParams(alpha=alpha_dt / 0.05, dt=0.05)
                block = spectral_radius(chain_modes(order, params, kind))
                dense = spectral_radius(DENSE[kind](order, params).dense)
                worst = max(worst, abs(block - dense) / dense)
                assert alpha_dt < 1.5 or block > 1.0
        assert worst < 1e-12

    @pytest.mark.parametrize("kind,size", [("estimator", 2), ("lagged_estimator", 3),
                                           ("formation", 2), ("lagged_formation", 3)])
    def test_stack_shape(self, kind, size):
        assert chain_modes(7, P, kind).shape == (7, size, size)

    def test_order_one_blocks_are_the_dense_matrices(self):
        params = EstimationParams(alpha=0.7, dt=0.2)
        for kind in ("estimator", "lagged_estimator"):
            np.testing.assert_allclose(chain_modes(1, params, kind)[0],
                                       DENSE[kind](1, params).dense, atol=1e-15)

    def test_mode_eigenvalues_are_the_dense_spectrum(self):
        params = EstimationParams(alpha=0.3, dt=0.2)
        for kind in DENSE:
            blocks = np.sort_complex(np.linalg.eigvals(chain_modes(6, params, kind)).ravel())
            dense = np.sort_complex(np.linalg.eigvals(DENSE[kind](6, params).dense))
            np.testing.assert_allclose(blocks, dense, atol=1e-9)

    def test_rejects_bad_kind_and_order(self):
        with pytest.raises(ValueError, match="kind"):
            chain_modes(3, P, "cascade")
        with pytest.raises(ValueError):
            chain_modes(0, P, "estimator")
        with pytest.raises(ValueError):
            chain_modes(1, P, "lagged_formation")

    @pytest.mark.parametrize("kind", sorted(DENSE))
    def test_modes_and_builder_reject_the_same_orders(self, kind):
        def message(build):
            try:
                build()
            except ValueError as err:
                return str(err)
            return None

        least = 2 if kind.endswith("formation") else 1
        for order in (-1, 0, 1, 2):
            rejected = message(lambda: DENSE[kind](order, P))
            assert rejected == message(lambda: chain_modes(order, P, kind))
            assert (rejected is None) == (order >= least)

    def test_cascade_radius_is_the_chain_block_radius(self):
        # Hexagon gains: six chains of 20 robots.  The cascade is block
        # triangular with the chain matrix on its diagonal, so its radius
        # is the chain's.  Dense eigvals on the 240 x 240 cascade returns
        # 0.998522 instead: each eigenvalue is six-fold and defective, so
        # the eigensolver resolves it only to about eps**(1/6).
        params = EstimationParams(alpha=0.5, dt=0.05)
        rho = spectral_radius(chain_modes(20, params, "formation"))
        assert rho == pytest.approx(0.998496, abs=5e-7)
        assert rho == pytest.approx(spectral_radius(build_formation_matrix(20, params).dense),
                                    rel=1e-12)

    @pytest.mark.parametrize("dt,rho", [(0.05, 1.0111735), (0.01, 1.0009630)])
    def test_lagged_formation_radius(self, dt, rho):
        # sigma = 2 is unstable for 20-robot chains at alpha = 0.5
        params = EstimationParams(alpha=0.5, dt=dt)
        block = spectral_radius(chain_modes(20, params, "lagged_formation"))
        dense = spectral_radius(build_lagged_formation_matrix(20, params).dense)
        assert block == pytest.approx(rho, abs=5e-8)
        assert block == pytest.approx(dense, rel=1e-12)


class TestStabilityBounds:
    def test_order_one_values(self):
        assert stability_bound(1, "S1") == pytest.approx(1.0 / 3.0)
        assert stability_bound(1, "S2") == pytest.approx(1.0 / 5.0)

    def test_order_two_s1(self):
        assert stability_bound(2, "S1") == pytest.approx(0.75 / 2.75)

    def test_order_nineteen_values(self):
        c2 = math.cos(math.pi / 20.0) ** 2
        assert stability_bound(19, "S1") == pytest.approx((1 - c2) / (3 - c2), rel=1e-12)
        assert stability_bound(19, "S2") == pytest.approx(0.004095326939, abs=1e-9)

    def test_monotone_decreasing_and_ordered(self):
        previous = None
        for d in range(1, 31):
            s1, s2 = stability_bound(d, "S1"), stability_bound(d, "S2")
            assert 0.0 < s2 < s1 < 1.0 / 3.0 or (d == 1 and s1 == pytest.approx(1 / 3))
            if previous is not None:
                assert s1 < previous[0]
                assert s2 < previous[1]
            previous = s1, s2

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            stability_bound(0, "S1")
        with pytest.raises(ValueError):
            stability_bound(3, "S3")


class TestSteadyGains:
    def test_s1_base_cases_beta_005(self):
        assert steady_gain(1, 0.05, "S1") == pytest.approx(1.0 / 1.05, rel=1e-12)
        assert steady_gain(2, 0.05, "S1") == pytest.approx(1.05 / 0.876875, rel=1e-12)

    def test_s1_order_three_matches_dense_inverse(self):
        got = steady_gain(3, 0.05, "S1")
        assert got == pytest.approx(dense_gain(3, 0.05, "S1"), rel=1e-12)

    def test_s2_base_cases(self):
        beta = 0.05
        assert steady_gain(1, beta, "S2") == pytest.approx(1.0 / (1.0 + beta), rel=1e-12)
        assert steady_gain(3, beta, "S2") == pytest.approx(6.0 / (4.0 * (1.0 + beta)), rel=1e-12)

    def test_s2_limit_monotone_from_below(self):
        beta = 0.05
        values = [steady_gain(d, beta, "S2") for d in range(1, 200)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert values[-1] < 2.0 / (1.0 + beta)
        assert values[-1] == pytest.approx(2.0 / (1.0 + beta), rel=1e-2)

    @pytest.mark.parametrize("beta", [0.0025, 0.05, 0.3])
    @pytest.mark.parametrize("strategy", ["S1", "S2"])
    def test_closed_recursive_and_inverse_agree(self, beta, strategy):
        for d in range(1, 51):
            closed = steady_gain(d, beta, strategy)
            recursive = steady_gain_recursive(d, beta, strategy)
            oracle = dense_gain(d, beta, strategy)
            assert closed == pytest.approx(oracle, rel=1e-9)
            assert recursive == pytest.approx(oracle, rel=1e-9)

    def test_s1_overflow_guard_returns_limit(self):
        beta = 0.3
        value = steady_gain(5000, beta, "S1")
        rho2 = 2.0 / (1.0 + math.sqrt(beta)) ** 2
        assert value == pytest.approx(rho2, rel=1e-12)

    def test_s1_degenerate_frame_falls_back_to_recursion(self):
        # beta = 5e-303 rounds both frame ratios to 1, so the closed form is 0/0
        beta = 5e-303
        assert s1_readout_frame(beta)[2:] == (1.0, 1.0)
        for d, gain in zip((1, 2, 3), (1.0, 4.0 / 3.0, 1.5)):
            got = steady_gain(d, beta, "S1")
            assert got == steady_gain_recursive(d, beta, "S1")
            assert got == pytest.approx(gain, rel=1e-15)

    def test_rejects_out_of_domain_beta(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                steady_gain(3, bad, "S1")
            with pytest.raises(ValueError):
                steady_gain_recursive(3, bad, "S2")

    def test_ratio_is_half_gain(self):
        assert steady_ratio_closed(7, 0.01, "S1") == pytest.approx(
            steady_gain(7, 0.01, "S1") / 2.0
        )


class TestDeterminants:
    def test_order_one(self):
        for beta in (0.0025, 0.3):
            assert readout_determinant(1, beta, "S1") == pytest.approx(1 + beta, rel=1e-12)
            assert readout_determinant(1, beta, "S2") == pytest.approx(1 + beta, rel=1e-12)

    def test_s2_order_two_value(self):
        beta = 0.05
        expected = 3.0 * (1.0 + beta) ** 2 / 4.0
        assert readout_determinant(2, beta, "S2") == pytest.approx(expected, rel=1e-12)
        assert lu_determinant(readout_matrix(2, beta, "S2")) == pytest.approx(
            expected, rel=1e-12
        )

    @pytest.mark.parametrize("beta", [0.0025, 0.05, 0.3])
    @pytest.mark.parametrize("strategy", ["S1", "S2"])
    def test_matches_lu_oracle(self, beta, strategy):
        for d in range(1, 51):
            lu = lu_determinant(readout_matrix(d, beta, strategy))
            assert readout_determinant(d, beta, strategy) == pytest.approx(lu, rel=1e-9)
            assert lu != 0.0

    def test_matrix_matches_reference_layout(self):
        for strategy in ("S1", "S2"):
            np.testing.assert_allclose(
                readout_matrix(6, 0.07, strategy),
                readout_matrix_dense(6, 0.07, strategy),
            )

    def test_determinant_recursion_consistency(self):
        # |M(d)| = (1+b)|M(d-1)| - c^2 |M(d-2)| with the strategy's
        # off-diagonal c; the closed forms must satisfy it exactly.
        for strategy, csq in (("S1", lambda b: (1 - b) ** 2 / 4),
                              ("S2", lambda b: (1 + b) ** 2 / 4)):
            for beta in (0.0025, 0.3):
                for d in range(3, 30):
                    lhs = readout_determinant(d, beta, strategy)
                    rhs = (1 + beta) * readout_determinant(d - 1, beta, strategy) \
                        - csq(beta) * readout_determinant(d - 2, beta, strategy)
                    assert lhs == pytest.approx(rhs, rel=1e-9)


class TestEquilibrium:
    def test_triangle_first_chain(self):
        params = EstimationParams(alpha=0.3, dt=0.2)
        mats = build_formation_matrix(2, params)
        positions, velocities = chain_equilibrium(
            mats, anchor_position=(0.0, 0.0), anchor_velocity=(0.0, 0.0),
            l_star=(0.5, -1.0),
        )
        np.testing.assert_allclose(positions, [[-0.5, 1.0], [-1.0, 2.0]], atol=1e-12)
        np.testing.assert_allclose(velocities, np.zeros((2, 2)), atol=1e-12)

    def test_triangle_last_chain_closes_ring(self):
        params = EstimationParams(alpha=0.3, dt=0.2)
        mats = build_formation_matrix(2, params)
        positions, _ = chain_equilibrium(
            mats, anchor_position=(-3.0, 0.0), anchor_velocity=(0.0, 0.0),
            l_star=(-1.5, 0.0),
        )
        np.testing.assert_allclose(positions, [[-1.5, 0.0], [0.0, 0.0]], atol=1e-12)

    def test_zero_spacing_collapses_to_anchor(self):
        params = EstimationParams(alpha=0.3, dt=0.2)
        mats = build_formation_matrix(4, params)
        positions, _ = chain_equilibrium(
            mats, anchor_position=(2.0, -1.0), anchor_velocity=(0.0, 0.0),
            l_star=(0.0, 0.0),
        )
        np.testing.assert_allclose(positions, np.tile([2.0, -1.0], (4, 1)), atol=1e-12)

    def test_moving_anchor_offset(self):
        # nonzero anchor velocity shifts every robot by v / alpha
        params = EstimationParams(alpha=0.4, dt=0.1)
        mats = build_formation_matrix(3, params)
        positions, _ = chain_equilibrium(
            mats, anchor_position=(1.0, 0.0), anchor_velocity=(0.2, 0.0),
            l_star=(0.0, 0.0),
        )
        np.testing.assert_allclose(
            positions, np.tile([1.0 + 0.2 / 0.4, 0.0], (3, 1)), atol=1e-10
        )

    def test_rejects_non_schur_chain(self):
        params = EstimationParams(alpha=1.9, dt=1.0)  # way outside stability
        mats = build_formation_matrix(6, params)
        with pytest.raises(ValueError, match="not Schur"):
            chain_equilibrium(mats, (0, 0), (0, 0), (1, 0))

    def test_inverse_block_formula(self):
        # (I - A_f)^-1 equals [[(a dt)^-1 I, -a^-1 G^-1], [-dt^-1 I, 0]]
        # with G the vertex-corrected position coupling block.
        params = EstimationParams(alpha=0.3, dt=0.2)
        for n in (2, 4, 7):
            mats = build_formation_matrix(n, params)
            dense_inv = np.linalg.inv(np.eye(2 * n) - mats.dense)
            coupling = mats.dense[n:, :n] / params.alpha
            block = np.block([
                [np.eye(n) / (params.alpha * params.dt),
                 -np.linalg.inv(coupling) / params.alpha],
                [-np.eye(n) / params.dt, np.zeros((n, n))],
            ])
            np.testing.assert_allclose(dense_inv, block, atol=1e-8)

    def test_vertex_coupling_inverse_columns(self):
        params = EstimationParams(alpha=0.3, dt=0.2)
        for n in (2, 5, 8):
            mats = build_formation_matrix(n, params)
            coupling = mats.dense[n:, :n] / params.alpha
            inv = np.linalg.inv(coupling)
            np.testing.assert_allclose(inv[:, 0], -2.0 * np.ones(n), atol=1e-10)
            np.testing.assert_allclose(inv[:, -1], -np.arange(1, n + 1), atol=1e-10)


class TestCascade:
    def test_spectrum_is_m_copies_of_the_chain(self):
        # The cascade repeats each chain eigenvalue in a size-m Jordan
        # structure, so eigensolver output there is only accurate to about
        # eps**(1/m); the multiset identity itself is checked through the
        # characteristic polynomials, det(zI - A_s) = det(zI - A_f)^m,
        # which is well conditioned.
        params = EstimationParams(alpha=0.3, dt=0.2)
        rng = np.random.default_rng(5)
        for n, m in ((2, 2), (3, 4), (10, 3)):
            chain = build_formation_matrix(n, params)
            cascade = build_cascade_matrix(n, m, params)
            assert cascade.dense.shape == (2 * n * m, 2 * n * m)
            eye_c = np.eye(2 * n)
            eye_s = np.eye(2 * n * m)
            for _ in range(12):
                z = 1.3 * np.exp(2j * np.pi * rng.random())
                chain_det = np.linalg.det(z * eye_c - chain.dense)
                cascade_det = np.linalg.det(z * eye_s - cascade.dense)
                assert cascade_det == pytest.approx(chain_det ** m, rel=1e-8)
            # eigensolver cross-check at the defectiveness-limited accuracy
            chain_eigs = np.linalg.eigvals(chain.dense)
            cascade_eigs = list(np.linalg.eigvals(cascade.dense))
            for ev in np.tile(chain_eigs, m):
                dists = [abs(ev - x) for x in cascade_eigs]
                nearest = int(np.argmin(dists))
                assert dists[nearest] < 5e-4
                cascade_eigs.pop(nearest)

    def test_block_triangular_structure(self):
        params = EstimationParams(alpha=0.3, dt=0.2)
        cascade = build_cascade_matrix(3, 3, params).dense
        assert np.count_nonzero(cascade[:6, 6:]) == 0
        assert np.count_nonzero(cascade[6:12, 12:]) == 0
        # sub-diagonal coupling feeds only the next chain's first velocity row
        block = cascade[6:12, 0:6]
        assert np.count_nonzero(block) == 2
        assert block[3, 2] == pytest.approx(0.5 * params.alpha)
        assert block[3, 5] == pytest.approx(0.5)


class TestReport:
    def test_report_fields_and_flags(self):
        report = spectral_report(19, EstimationParams(alpha=0.5, dt=0.01))
        assert report["satisfies_s1"] is True
        assert report["satisfies_s2"] is False
        assert report["rho_A"] < 1.0
        assert report["rho_Ar"] < 1.0
        assert report["beta"] == pytest.approx(0.0025)

    def test_report_order_one_has_no_formation_entry(self):
        report = spectral_report(1, EstimationParams(alpha=0.1, dt=0.1))
        assert report["rho_Af"] is None
        assert report["rho_Af_lagged"] is None
        assert report["decay_s_Af"] is None
        assert report["decay_s_Af_lagged"] is None

    def test_report_decay_seconds(self):
        # hexagon gains: the stable sigma = 1 chain decays by 1e-2 in ~153 s
        # at dt = 0.05 and ~30 s at dt = 0.01; sigma = 2 grows (rho > 1).
        for dt, seconds in ((0.05, 152.989), (0.01, 29.982)):
            report = spectral_report(20, EstimationParams(alpha=0.5, dt=dt))
            assert report["decay_s_Af"] == math.log(100.0) * dt / -math.log(report["rho_Af"])
            assert report["decay_s_Af"] == pytest.approx(seconds, abs=1e-3)
            assert report["rho_Af_lagged"] > 1.0
            assert report["decay_s_Af_lagged"] is None
        assert decay_seconds(1.0, 0.05) is None
        assert decay_seconds(np.nextafter(1.0, 0.0), 0.05) > 0.0

    def test_report_radii_are_the_dense_radii(self):
        params = EstimationParams(alpha=0.5, dt=0.05)
        report = spectral_report(20, params)
        for key, builder in (("rho_A", build_estimator_matrix),
                             ("rho_Ar", build_lagged_estimator_matrix),
                             ("rho_Af", build_formation_matrix),
                             ("rho_Af_lagged", build_lagged_formation_matrix)):
            dense = spectral_radius(builder(20, params).dense)
            assert report[key] == pytest.approx(dense, rel=1e-12)
        assert report["rho_Af_lagged"] == pytest.approx(1.0111735, abs=5e-8)


@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(min_value=1, max_value=25),
    fraction=st.floats(min_value=0.05, max_value=0.98),
    strategy=st.sampled_from(["S1", "S2"]),
)
def test_schur_inside_the_sufficient_bound(d, fraction, strategy):
    alpha_dt = fraction * stability_bound(d, strategy)
    params = EstimationParams(alpha=alpha_dt / 0.01, dt=0.01)
    if strategy == "S1":
        dense = build_estimator_matrix(d, params).dense
    else:
        dense = build_lagged_estimator_matrix(d, params).dense
    assert spectral_radius(dense) < 1.0


@settings(max_examples=25, deadline=None)
@given(
    d=st.integers(min_value=1, max_value=40),
    beta=st.floats(min_value=1e-4, max_value=0.9),
    strategy=st.sampled_from(["S1", "S2"]),
)
def test_gain_closed_form_equals_recursion(d, beta, strategy):
    closed = steady_gain(d, beta, strategy)
    recursive = steady_gain_recursive(d, beta, strategy)
    assert closed == pytest.approx(recursive, rel=1e-9)
