import numpy as np
import pytest

from dota import (
    Bundle,
    DenseTensor,
    Hyper,
    MpoShape,
    ShapeError,
    dota_init,
    make_task,
    mpo_decompose,
    qdota_init,
    quantize_nf4,
)
from dota.harness import _Stack


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

    def test_rejects_order_zero(self):
        with pytest.raises(ShapeError):
            DenseTensor(np.float64(1.0))

    def test_non_float_upcast(self):
        t = DenseTensor(np.array([[1, 2], [3, 4]]))
        assert t.dtype == np.float64


SHAPE = MpoShape.square([4, 4])

# Each builds a fresh instance of a dataclass that holds arrays; two calls
# give instances with equal contents.
ARRAY_HOLDERS = {
    "DenseTensor": lambda: DenseTensor(rand((2, 3))),
    "DotaAdapter": lambda: dota_init(rand((16, 16)), SHAPE, 2),
    "QdotaAdapter": lambda: qdota_init(rand((16, 16)), SHAPE, 2),
    "QuantizedMatrix": lambda: quantize_nf4(rand((16, 16)), 32),
    "Bundle": lambda: Bundle(mpo_decompose(rand((16, 16)), SHAPE, 2), rand((16, 16))),
    "SyntheticTask": lambda: make_task(SHAPE, 2, 0.05, seed=1),
    "_Stack": lambda: _Stack([make_task(SHAPE, 2, 0.05, seed=1)], ["full-ft"],
                             Hyper(steps=1, lr=0.1, rank=2), *np.empty((2, 1, 1, 16, 16))),
}


@pytest.mark.parametrize("name", sorted(ARRAY_HOLDERS))
def test_array_holders_compare_by_identity(name):
    a, b = ARRAY_HOLDERS[name](), ARRAY_HOLDERS[name]()
    assert a != b
    assert a == a and b == b
    assert len({a, b}) == 2
