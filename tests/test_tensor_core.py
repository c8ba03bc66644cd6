import numpy as np
import pytest

from dota import DenseTensor, ShapeError


def rand(shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape)


class TestDenseTensor:
    def test_data_is_read_only(self):
        t = DenseTensor(rand((2, 2)))
        with pytest.raises(ValueError):
            t.data[0, 0] = 5.0

    def test_rejects_zero_mode(self):
        with pytest.raises(ShapeError):
            DenseTensor(np.empty((2, 0)))

    def test_non_float_upcast(self):
        t = DenseTensor(np.array([[1, 2], [3, 4]]))
        assert t.dtype == np.float64
