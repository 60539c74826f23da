"""Acceptance suite: one test per release criterion, each printing a
single pass/fail line (run with ``pytest -s tests/test_acceptance.py``).

Criterion 6 is expected to fail at the shipped hexagon's dt = 0.05.  The
20-robot formation chain has spectral radius ~0.9985 per step at any
sampling interval, because its velocity average is a per-step consensus,
so the decay per second is -ln(rho) / dt.  At dt = 0.05 the 3000 steps of
150 s shrink the slow mode by only ~1e-2, and the cascade's transient
growth from a metre-scale random start keeps the largest edge error
above 1 cm until t = 582.3 s (seed 7; 582.4 s at seed 42).  The same run
at dt = 0.01 meets every threshold (see tests/test_harness.py).  The test
asserts the stated thresholds anyway and reports the measured values.
"""

import time

import numpy as np
import yaml

from helpers import (
    chain_state,
    dense_gain,
    iterate_estimator,
    iterate_formation_chain,
    iterate_lagged_estimator,
    lu_determinant,
    shipped_config,
)
from ringform.cli import EXIT_OK, main
from ringform.core import SwarmState, make_generator, uniform_box
from ringform.estimation import (
    EstimatorConfig,
    readouts,
    run_estimation,
    step_estimator,
)
from ringform.formation import FormationConfig, step_formation
from ringform.harness import (
    auto_stop_window,
    scenario_report,
    sensitivity_curves,
    sweep_convergence,
)
from ringform.spectral import (
    EstimationParams,
    build_cascade_matrix,
    build_estimator_matrix,
    build_formation_matrix,
    build_lagged_estimator_matrix,
    readout_determinant,
    readout_matrix,
    spectral_radius,
    spectral_report,
    stability_bound,
    steady_gain,
    steady_gain_recursive,
    steady_ratio_closed,
)


def check(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f"  -- {detail}"
    print(line)
    assert ok, f"{name}: {detail}"


def test_criterion_01_estimation_exactness():
    """Chains of 5..30 robots, both strategies, five placements each,
    alpha*dt at 0.9x the tighter bound: every estimate exactly right,
    under 60 s total."""
    started = time.perf_counter()
    result = sweep_convergence((5, 30), reps=5, scale_per_n=True, seed=1)
    elapsed = time.perf_counter() - started
    all_correct = all(row.all_correct for row in result.rows)
    check(
        "criterion 1: estimation exactness n=5..30, both strategies, 5 seeds",
        all_correct and elapsed < 60.0,
        f"all_correct={all_correct}, elapsed={elapsed:.1f}s (budget 60s)",
    )


def test_criterion_02_reference_chain_estimation():
    """20-robot chain at alpha=0.5, dt=0.01, latest-measurement readout:
    stop rule lands on 19; the spectral report is consistent."""
    params = EstimationParams(alpha=0.5, dt=0.01)
    window = auto_stop_window(19, params, "S1")
    config = EstimatorConfig(params=params, strategy="S1", stop_window=window)
    trace = run_estimation(19, config, seed=7)
    report = spectral_report(19, params)
    bound_reference = 0.012088051199016577  # (1-c^2)/(3-c^2), c = cos(pi/20)
    bound_ok = abs(report["bound_s1"] - bound_reference) < 1e-6
    ok = (
        trace.converged
        and trace.estimate == 19
        and report["rho_A"] < 1.0
        and params.alpha * params.dt < report["bound_s1"]
        and bound_ok
    )
    check(
        "criterion 2: 20-robot chain estimation at reference gains",
        ok,
        f"estimate={trace.estimate}, rho_A={report['rho_A']:.6f}, "
        f"bound_s1={report['bound_s1']:.8f}",
    )


def test_criterion_03_closed_forms_vs_oracles():
    """Gains and determinants: closed forms, recursions, and dense
    inverse / LU oracles agree to relative 1e-9 for d <= 50."""
    worst = 0.0
    for beta in (0.0025, 0.05, 0.3):
        for d in range(1, 51):
            inv_gain = dense_gain(d, beta, "S1")
            worst = max(
                worst,
                abs(steady_gain(d, beta, "S1") - inv_gain) / abs(inv_gain),
                abs(steady_gain_recursive(d, beta, "S1") - inv_gain) / abs(inv_gain),
            )
            inv_gain2 = dense_gain(d, beta, "S2")
            worst = max(
                worst,
                abs(steady_gain(d, beta, "S2") - inv_gain2) / abs(inv_gain2),
                abs(steady_gain_recursive(d, beta, "S2") - inv_gain2) / abs(inv_gain2),
            )
            for strategy in ("S1", "S2"):
                lu = lu_determinant(readout_matrix(d, beta, strategy))
                closed = readout_determinant(d, beta, strategy)
                worst = max(worst, abs(closed - lu) / abs(lu))
    check(
        "criterion 3: closed forms vs dense oracles (d<=50, three betas)",
        worst < 1e-9,
        f"worst relative disagreement {worst:.3e} (tolerance 1e-9)",
    )


def test_criterion_04_spectral_property_suite():
    """Inside the sufficient bounds both chain layouts are Schur on the
    whole grid; the formation chain is Schur and the cascade spectrum is
    m copies of the chain's."""
    ok_grid = True
    for n_prime in range(1, 31):
        for fraction in (0.1, 0.3, 0.5, 0.7, 0.9):
            a_dt = fraction * stability_bound(n_prime, "S1")
            p = EstimationParams(alpha=a_dt / 0.01, dt=0.01)
            if spectral_radius(build_estimator_matrix(n_prime, p).dense) >= 1.0:
                ok_grid = False
            a_dt = fraction * stability_bound(n_prime, "S2")
            p = EstimationParams(alpha=a_dt / 0.01, dt=0.01)
            if spectral_radius(build_lagged_estimator_matrix(n_prime, p).dense) >= 1.0:
                ok_grid = False

    ok_formation = True
    worst_cascade = 0.0
    rng = np.random.default_rng(0)
    for n in range(2, 11):
        a_dt = 0.9 * stability_bound(n, "S1")
        p = EstimationParams(alpha=a_dt / 0.01, dt=0.01)
        chain = build_formation_matrix(n, p)
        if spectral_radius(chain.dense) >= 1.0:
            ok_formation = False
        for m in (2, 3, 4):
            cascade = build_cascade_matrix(n, m, p)
            # eigenvalue multisets compared through the characteristic
            # polynomials (det(zI - A_s) = det(zI - A_f)^m); the repeated
            # spectrum is defective, so eigensolver output is only
            # eps**(1/m) accurate while the determinant route is well
            # conditioned at the stated 1e-8.
            eye_c = np.eye(2 * n)
            eye_s = np.eye(2 * n * m)
            for _ in range(8):
                z = 1.25 * np.exp(2j * np.pi * rng.random())
                det_c = np.linalg.det(z * eye_c - chain.dense) ** m
                det_s = np.linalg.det(z * eye_s - cascade.dense)
                worst_cascade = max(worst_cascade, abs(det_s - det_c) / abs(det_c))
    check(
        "criterion 4: Schur inside bounds; cascade spectrum = m copies of chain",
        ok_grid and ok_formation and worst_cascade < 1e-8,
        f"grid_ok={ok_grid}, formation_ok={ok_formation}, "
        f"worst cascade char-poly mismatch {worst_cascade:.3e} (tol 1e-8)",
    )


def test_criterion_05_step_vs_matrix_oracle():
    """Simulator stepping equals the dense matrix iterations entrywise to
    1e-12 for chain orders up to 10 and 200 steps."""
    worst = 0.0
    for n_prime in range(1, 11):
        a_dt = 0.9 * stability_bound(n_prime, "S2")
        params = EstimationParams(alpha=a_dt / 0.01, dt=0.01)
        rng = make_generator(n_prime, 50)
        initial = uniform_box(rng, n_prime, 5.0)
        for strategy, builder, iterate in (
            ("S1", build_estimator_matrix, iterate_estimator),
            ("S2", build_lagged_estimator_matrix, iterate_lagged_estimator),
        ):
            config = EstimatorConfig(params=params, strategy=strategy)
            expected = iterate(builder(n_prime, params), initial, (1.0, 0.0), 200)
            state = chain_state(n_prime, initial, (1.0, 0.0))
            for step_state in expected:
                state = step_estimator(state, config)
                if strategy == "S1":
                    got = np.vstack([state.positions[1:], state.velocities[1:]])
                else:
                    got = np.vstack(
                        [state.positions[1:], state.velocities_prev[1:],
                         state.velocities[1:]]
                    )
                worst = max(worst, float(np.max(np.abs(got - step_state))))

    # formation chains: the first chain of a ring is autonomous, so the
    # ring simulation must reproduce the dense chain iteration.
    r_star = np.array([[1.0, -2.0], [2.0, 2.0], [-3.0, 0.0]])
    for n in range(2, 11):
        a_dt = 0.9 * stability_bound(n, "S1")
        params = EstimationParams(alpha=a_dt / 0.05, dt=0.05)
        config = FormationConfig(3 * n, (0, n, 2 * n), r_star, params)
        rng = make_generator(n, 51)
        start = uniform_box(rng, 3 * n, 5.0)
        start[0] = 0.0
        expected = iterate_formation_chain(
            build_formation_matrix(n, params),
            start[1:n + 1], np.zeros((n, 2)),
            anchor_position=np.zeros(2), anchor_velocity=np.zeros(2),
            l_star=config.l_star[0], steps=200,
        )
        state = SwarmState.at_rest(start)
        for step_state in expected:
            state = step_formation(state, config)
            got = np.vstack([state.positions[1:n + 1], state.velocities[1:n + 1]])
            worst = max(worst, float(np.max(np.abs(got - step_state))))
    check(
        "criterion 5: stepping equals dense matrix iterations (k<=200, n<=10)",
        worst < 1e-12,
        f"worst entrywise deviation {worst:.3e} (tolerance 1e-12)",
    )


def test_criterion_06_hexagon_scenario():
    """120-robot hexagon at alpha=0.5, dt=0.05 from a seeded random start:
    centimetre edge errors by t=150 s, resting vertices, millimetre
    interior spacing.  Expected to fail: at dt = 0.05 the 150 s are too
    few steps for the chain mode's per-step decay (see the module notes)."""
    started = time.perf_counter()
    # configs/hexagon.yaml cut to a 150 s horizon
    report = scenario_report(shipped_config("hexagon", seed=7, max_steps=3000),
                             (0.0, 50.0, 100.0, 150.0))
    elapsed = time.perf_counter() - started
    figures = report.figures
    ok = (
        report.pipeline.estimates == [20] * 6
        and figures["max_error_final"] < 0.01
        and figures["max_vertex_speed_final"] < 1e-4
        and figures["interior_spacing_error"] < 1e-3
        and elapsed < 30.0
    )
    check(
        "criterion 6: hexagon errors < 0.01 m by t=150 s at reference gains",
        ok,
        f"estimates={report.pipeline.estimates[:1]}x6, "
        f"max_error(150s)={figures['max_error_final']:.3e} m, "
        f"max_vertex_speed={figures['max_vertex_speed_final']:.3e} m/s, "
        f"spacing_err={figures['interior_spacing_error']:.3e} m, "
        f"rho_chain={figures['rho_chain']:.6f}, elapsed={elapsed:.1f}s; "
        "rho_chain is per step, so 150 s at dt=0.05 (3000 steps) decay the "
        "slow mode by only ~1e-2 and the largest edge error first drops below "
        "1 cm at t=582.3 s; at "
        "dt=0.01 the same run is within 1 cm from t=100.07 s",
    )


def test_criterion_07_triangle_scenario():
    """7-robot triangle: estimates [2,3,2], then a formation congruent
    with the cascade prediction up to the anchor translation."""
    report = scenario_report(shipped_config("triangle", seed=13), (0.0, 50.0, 100.0))
    prediction = np.array(
        [
            [-0.5, 1.0],
            [-1.0, 2.0],
            [-5.0 / 3.0, 4.0 / 3.0],
            [-7.0 / 3.0, 2.0 / 3.0],
            [-3.0, 0.0],
            [-1.5, 0.0],
        ]
    )
    final = report.pipeline.formation.final_state.positions
    anchor = final[0]
    deviation = float(
        np.max(np.linalg.norm(final[1:] - (prediction + anchor), axis=1))
    )
    closes = float(np.linalg.norm(
        report.pipeline.initial_state.positions[0] - anchor
    ))
    ok = (
        report.pipeline.estimates == [2, 3, 2]
        and report.extra_estimates["S1"] == [2, 3, 2]
        and deviation < 1e-2
        and closes == 0.0
    )
    check(
        "criterion 7: triangle estimates [2,3,2] and cascade-congruent shape",
        ok,
        f"S2={report.pipeline.estimates}, S1={report.extra_estimates['S1']}, "
        f"max deviation from prediction {deviation:.3e} m (tol 1e-2)",
    )


def test_criterion_08_readout_round_trips():
    """Feeding analytic steady ratios into the readouts returns the chain
    order within 1e-6 before rounding, for orders up to 30."""
    cells = [(n_prime, beta, strategy) for n_prime in range(1, 31)
             for beta in (0.45 * stability_bound(n_prime, "S1"), 0.0025)
             for strategy in ("S1", "S2")]
    orders, betas, strategies = zip(*cells)
    ratios = np.array([steady_ratio_closed(*cell) for cell in cells])
    worst = float(np.max(np.abs(readouts(betas, strategies)(ratios) - orders)))
    check(
        "criterion 8: readout round trips for n' <= 30",
        worst < 1e-6,
        f"worst |readout - n'| = {worst:.3e} (tolerance 1e-6)",
    )


def test_criterion_09_sensitivity_curves():
    """Simulated steady ratios match the closed forms to 1e-6 across
    n' = 5..30; the more size-sensitive readout is reported, not assumed."""
    curve = sensitivity_curves((5, 30))
    worst = max(
        max(abs(row.ratio_s1_sim - row.ratio_s1_closed),
            abs(row.ratio_s2_sim - row.ratio_s2_closed))
        for row in curve.rows
    )
    check(
        "criterion 9: sensitivity curves, simulation vs closed form",
        worst < 1e-6,
        f"worst |sim - closed| = {worst:.3e} (tol 1e-6); larger total "
        f"variation: {curve.more_sensitive} "
        f"(S1 {curve.total_variation_s1:.4f} vs S2 {curve.total_variation_s2:.4f})",
    )


def test_criterion_10_determinism(tmp_path):
    """Identical (config, seed) produces byte-identical output files."""
    out = tmp_path / "out"
    config = {
        "mode": "pipeline",
        "seed": 42,
        "alpha": 0.3,
        "dt": 0.2,
        "sigma": 1,
        "max_steps": 400,
        "initial_box": 3.0,
        "stride": 10,
        "output_dir": str(out),
        "topology": {"n_total": 7, "vertex_set": [0, 2, 5]},
        "r_star": [[1.0, -2.0], [2.0, 2.0], [-3.0, 0.0]],
        "estimation": {"alpha": 0.1, "dt": 1.0, "strategy": "S2"},
    }
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(config))
    names = ("estimate.csv", "trace.csv", "errors.csv", "resolved_config.yaml")
    snapshots = []
    codes = []
    for _ in range(2):
        codes.append(main(["pipeline", "--config", str(path)]))
        snapshots.append({name: (out / name).read_bytes() for name in names})
    spectral_cfg = {
        "mode": "spectral", "alpha": 0.5, "dt": 0.01, "n_prime": 19,
        "output_dir": str(tmp_path / "spec"),
    }
    spath = tmp_path / "spectral.yaml"
    spath.write_text(yaml.safe_dump(spectral_cfg))
    spectral_bytes = []
    for _ in range(2):
        main(["spectral", "--config", str(spath)])
        spectral_bytes.append((tmp_path / "spec" / "spectral.json").read_bytes())
    ok = (
        codes == [EXIT_OK, EXIT_OK]
        and snapshots[0] == snapshots[1]
        and spectral_bytes[0] == spectral_bytes[1]
    )
    check(
        "criterion 10: byte-identical outputs for identical (config, seed)",
        ok,
        f"exit codes {codes}, files compared: {', '.join(names)}, spectral.json",
    )
