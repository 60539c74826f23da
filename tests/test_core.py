import tracemalloc

import numpy as np
import pytest

from ringform.core import ABS_CHECK_MAX_SIZE, POSITION_LIMIT, DivergenceError, check_finite

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
