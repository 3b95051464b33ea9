import math

import numpy as np
import pytest

from freepoisson import SingularityError
from freepoisson.greens import green_values


def test_known_values():
    assert green_values(1, 0.0) == 0.0
    assert green_values(1, 3.0) == 1.5
    assert green_values(2, 1.0) == 0.0
    assert green_values(3, 1.0) == pytest.approx(-1.0 / (4.0 * math.pi), rel=1e-15)
    assert green_values(3, 1.0) == pytest.approx(-0.0795774715, abs=1e-10)


def test_singularity_raised():
    for dim in (2, 3):
        with pytest.raises(SingularityError):
            green_values(dim, 0.0)
    with pytest.raises(ValueError):
        green_values(2, -1.0)
    with pytest.raises(ValueError):
        green_values(4, 1.0)


def test_strictly_increasing_in_r():
    r = np.linspace(0.05, 10.0, 400)
    for dim in (1, 2, 3):
        vals = green_values(dim, r)
        assert np.all(np.diff(vals) > 0)
