import tracemalloc

import numpy as np
import pytest

from helpers import philox_doubles, shipped_config
from ringform.core import (
    ABS_CHECK_MAX_SIZE,
    POSITION_LIMIT,
    DivergenceError,
    SwarmState,
    check_finite,
    make_generator,
    uniform_box,
)
from ringform.estimation import EstimateTrace, EstimatorConfig, chain_traces, run_estimation
from ringform.formation import (
    FormationConfig,
    PipelineEstimationError,
    run_formation,
    run_pipeline,
)
from ringform.harness import sweep_and_curves
from ringform.spectral import EstimationParams

NON_FINITE = "ring positions contains non-finite values at step 7"


def magnitude(peak):
    return f"ring positions diverged at step 7: max magnitude {peak} exceeds 1e+06"


def plain(values):
    """An (n, 2) array holding ``values`` among zeros."""
    out = np.zeros((4, 2))
    out.flat[:len(values)] = values
    return out


def large(values):
    """An (n, 2) array, too large for the peak-magnitude check, holding
    ``values`` among zeros."""
    out = np.zeros((ABS_CHECK_MAX_SIZE, 2))
    out.flat[-len(values):] = values
    return out


def strided(values, rows=5):
    """A (rows, 2, B) strided view holding ``values`` among zeros; the rows
    and columns outside the view hold NaN, which the check must not see."""
    buffer = np.full((rows, 2, 5), np.nan)
    view = buffer[1:, :, ::2]
    view[...] = 0.0
    view.flat[:len(values)] = values
    return view


def large_strided(values):
    return strided(values, rows=ABS_CHECK_MAX_SIZE // 3)


@pytest.mark.parametrize("shape", [plain, strided, large, large_strided])
@pytest.mark.parametrize(
    "values,message",
    [
        ([np.nan], NON_FINITE),
        ([np.inf], NON_FINITE),
        ([-np.inf], NON_FINITE),
        ([POSITION_LIMIT, -POSITION_LIMIT], None),
        ([np.nextafter(POSITION_LIMIT, np.inf)], magnitude("1.000e+06")),
        ([-1.5e6], magnitude("1.500e+06")),
        ([-2e6], magnitude("2.000e+06")),
        ([2e6, np.nan], NON_FINITE),
        ([np.nan, 2e6], NON_FINITE),
        ([-2e6, np.nan], NON_FINITE),
        ([np.nan, -2e6], NON_FINITE),
    ],
)
def test_check_finite_messages(shape, values, message):
    array = shape(values)
    if message is None:
        check_finite(array, 7, "ring positions")
        return
    with pytest.raises(DivergenceError) as excinfo:
        check_finite(array, 7, "ring positions")
    assert str(excinfo.value) == message


@pytest.mark.parametrize("seed,stream", [(42, 0), (3, 5 * 1000 + 100 + 7),
                                         (3, 2 ** 63 + ((2 * 5 + 1) << 32) + 100)],
                         ids=["run", "sweep", "sweep-rep-100"])
def test_generator_is_philox_from_counter_one(seed, stream):
    # numpy's Philox adds one to its zero counter before each block, so the
    # first block is at counter (1, 0, 0, 0), not at Random123's usual 0.
    drawn = make_generator(seed, stream).random(10).tolist()
    assert drawn == philox_doubles(seed, stream, 10)
    assert drawn != philox_doubles(seed, stream, 10, first_counter=0)


@pytest.mark.parametrize("array", [np.empty((0, 2)), np.empty((0, 2, 3))])
def test_check_finite_passes_an_empty_array(array):
    check_finite(array, 0, "chain positions")


def test_check_finite_allocates_nothing_on_a_passing_large_array():
    values = np.linspace(-POSITION_LIMIT, POSITION_LIMIT, 2 * ABS_CHECK_MAX_SIZE).reshape(-1, 2)
    tracemalloc.start()
    try:
        check_finite(values, 0, "ring positions")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < values.nbytes // 8


# Stable estimator gains: placed in a 1e7 box, a chain fails the step-64
# position check.
FAR_CHAIN = EstimatorConfig(params=EstimationParams(alpha=0.5, dt=0.01), max_steps=5000)
TRI_RING = FormationConfig(7, (0, 2, 5), [[1.0, -2.0], [2.0, 2.0], [-3.0, 0.0]],
                           EstimationParams(alpha=1.99, dt=1.0))  # far outside stability


def stops_early(run):
    """The error that ends ``run()``."""
    with pytest.raises((DivergenceError, PipelineEstimationError)) as stop:
        run()
    return stop.value


def pipeline_stop(**overrides):
    """The error that ends a pipeline run of the shipped triangle."""
    return stops_early(lambda: run_pipeline(
        **shipped_config("triangle", **overrides).pipeline_arguments()))


EARLY_STOPS = {
    "check_finite": (lambda: stops_early(lambda: check_finite(np.full((3, 2), 2e6), 1, "x")),
                     []),
    "run_estimation": (lambda: stops_early(lambda: run_estimation(
        10, FAR_CHAIN, seed=0, initial_box=1.0e7)), [10]),
    "chain_traces": (lambda: stops_early(lambda: chain_traces(
        [uniform_box(make_generator(0, 0), 10, 1.0e7), uniform_box(make_generator(1, 0), 3, 5.0)],
        [FAR_CHAIN, FAR_CHAIN])), [10, 3]),
    "run_formation": (lambda: stops_early(lambda: run_formation(
        SwarmState.at_rest(uniform_box(make_generator(5, 0), 7, 3.0)), TRI_RING, 5000)),
        ["FormationTrace"]),
    "pipeline-phase-1": (lambda: pipeline_stop(initial_box=1.0e9), [2, 3, 2]),
    "pipeline-phase-2": (lambda: pipeline_stop(alpha=0.6, sigma=2, initial_box=1.05e6),
                         [2, 3, 2, "FormationTrace"]),
    "pipeline-estimation": (lambda: pipeline_stop(est_stop_window=50, est_max_steps=52),
                            [2, 3, 2]),
    "sweep_and_curves": (lambda: stops_early(lambda: sweep_and_curves(
        (5, 8), 2, dt=0.01, scale_per_n=True, seed=0, initial_box=1.0e7)), []),
}


@pytest.mark.parametrize("case", EARLY_STOPS)
def test_early_stop_lists_its_traces_in_run_order(case):
    # Every early stop carries the traces its run made as a list: each
    # chain's trace (its order), then the formation's.
    stop, expected = EARLY_STOPS[case]
    err = stop()
    assert type(err.partial) is list
    assert [trace.n_prime_true if isinstance(trace, EstimateTrace) else type(trace).__name__
            for trace in err.partial] == expected
    assert isinstance(err, PipelineEstimationError) == (case == "pipeline-estimation")
