import numpy as np
import pytest

from ringform.core import POSITION_LIMIT, DivergenceError, check_finite

NON_FINITE = "ring positions contains non-finite values at step 7"


def magnitude(peak):
    return f"ring positions diverged at step 7: max magnitude {peak} exceeds 1e+06"


def plain(values):
    """An (n, 2) array holding ``values`` among zeros."""
    out = np.zeros((4, 2))
    out.flat[:len(values)] = values
    return out


def strided(values):
    """A (rows, 2, B) strided view holding ``values`` among zeros; the rows
    and columns outside the view hold NaN, which the check must not see."""
    buffer = np.full((5, 2, 5), np.nan)
    view = buffer[1:, :, ::2]
    view[...] = 0.0
    view.flat[:len(values)] = values
    return view


@pytest.mark.parametrize("shape", [plain, strided])
@pytest.mark.parametrize(
    "values,message",
    [
        ([np.nan], NON_FINITE),
        ([np.inf], NON_FINITE),
        ([-np.inf], NON_FINITE),
        ([POSITION_LIMIT, -POSITION_LIMIT], None),
        ([np.nextafter(POSITION_LIMIT, np.inf)], magnitude("1.000e+06")),
        ([-1.5e6], magnitude("1.500e+06")),
        ([2e6, np.nan], NON_FINITE),
        ([np.nan, 2e6], NON_FINITE),
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
