"""Dense tensor primitives: layout, reshape/permute, contraction, cost model."""

import numpy as np
import pytest

from tnkit import (
    DenseTensor,
    TruncationSpec,
    contract,
    contract_flops,
    permute,
    reshape,
    truncated_svd,
)
from tnkit.errors import (
    ElementCountMismatch,
    ExtentMismatch,
    InvalidAxis,
    InvalidPermutation,
)

rng = np.random.default_rng(42)


def random_tensor(shape):
    arr = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return DenseTensor.from_ndarray(arr), arr


def test_linearization_first_index_fastest():
    # element (x, y) of a (2, 3) tensor sits at flat position x + 2*y
    t = DenseTensor((2, 3), np.arange(6))
    assert t[1, 0] == 1
    assert t[0, 1] == 2
    assert t[1, 2] == 5
    # three indices: flat = x + w_x*(y + w_y*z)
    t3 = DenseTensor((2, 3, 4), np.arange(24))
    assert t3[1, 2, 3] == 1 + 2 * (2 + 3 * 3)


def test_element_count_must_match_shape():
    with pytest.raises(ElementCountMismatch):
        DenseTensor((2, 3), np.arange(5))


def test_from_ndarray_round_trips():
    t, arr = random_tensor((3, 4, 2))
    assert t.shape == (3, 4, 2)
    np.testing.assert_allclose(t.to_ndarray(), arr)


def test_reshape_is_a_relabeling_of_the_same_buffer():
    """Fusing (2,3,4) -> (6,4) keeps the flat data vector (Fortran fuse rule)."""
    t, arr = random_tensor((2, 3, 4))
    r = reshape(t, (6, 4))
    assert r.shape == (6, 4)
    np.testing.assert_array_equal(r.data, t.data)
    np.testing.assert_allclose(r.to_ndarray(), arr.reshape(6, 4, order="F"))
    # splitting back is the inverse
    np.testing.assert_allclose(reshape(r, (2, 3, 4)).to_ndarray(), arr)


def test_reshape_rejects_wrong_size():
    t, _ = random_tensor((2, 3))
    with pytest.raises(ElementCountMismatch):
        reshape(t, (4, 2))


def test_permute_matches_numpy_transpose():
    t, arr = random_tensor((2, 3, 4, 5))
    p = permute(t, (3, 0, 2, 1))
    assert p.shape == (5, 2, 4, 3)
    np.testing.assert_allclose(p.to_ndarray(), arr.transpose(3, 0, 2, 1))


def test_permute_validates_the_permutation():
    t, _ = random_tensor((2, 3))
    with pytest.raises(InvalidPermutation):
        permute(t, (0, 0))
    with pytest.raises(InvalidPermutation):
        permute(t, (0,))


def test_contract_matches_einsum():
    a, arr_a = random_tensor((2, 3, 4))
    b, arr_b = random_tensor((4, 3, 5))
    out = contract(a, [1, 2], b, [1, 0])
    ref = np.einsum("xzy,yzw->xw", arr_a, arr_b)
    np.testing.assert_allclose(out.to_ndarray(), ref, atol=1e-13)


def test_contract_outer_product_with_empty_axes():
    a, arr_a = random_tensor((2, 3))
    b, arr_b = random_tensor((4,))
    out = contract(a, [], b, [])
    np.testing.assert_allclose(out.to_ndarray(), np.einsum("ab,c->abc", arr_a, arr_b))


def test_contract_to_scalar():
    a, arr_a = random_tensor((3, 4))
    out = contract(a, [0, 1], a.conj(), [0, 1])
    assert out.shape == ()
    assert np.isclose(complex(out.data[0]), np.vdot(arr_a, arr_a))


def test_contract_extent_mismatch():
    a, _ = random_tensor((2, 3))
    b, _ = random_tensor((4, 5))
    for fn in (contract, contract_flops):
        with pytest.raises(ExtentMismatch):
            fn(a, [1], b, [0])
        with pytest.raises(InvalidAxis):
            fn(a, [2], b, [0])


def test_flop_model_counts_every_distinct_extent_once():
    a = DenseTensor.zeros((2, 3, 4))
    b = DenseTensor.zeros((4, 3, 5))
    # open 2,5 plus contracted 3,4 -> 2*3*4*5
    assert contract_flops(a, [1, 2], b, [1, 0]) == 2 * 3 * 4 * 5
    c = DenseTensor.zeros((7,) * 4)
    d = DenseTensor.zeros((7,) * 5)
    assert contract_flops(c, [0, 1], d, [0, 1]) == 7**7


def test_tensors_are_read_only_and_own_their_data():
    t, arr = random_tensor((2, 3))
    with pytest.raises(ValueError):
        t.to_ndarray()[0, 0] = 7.0
    before = t.to_ndarray().copy()
    arr[0, 0] = 7.0
    np.testing.assert_array_equal(t.to_ndarray(), before)


def test_real_operands_stay_real():
    a = DenseTensor.from_ndarray(rng.standard_normal((2, 3, 4)))
    b = DenseTensor.from_ndarray(rng.standard_normal((4, 3)))
    results = [
        permute(a, (2, 0, 1)),
        reshape(a, (6, 4)),
        contract(a, [1, 2], b, [1, 0]),
    ]
    for t in results:
        assert t.to_ndarray().dtype == np.float64
    res = truncated_svd(reshape(a, (6, 4)).to_ndarray(), TruncationSpec(chi_max=2))
    assert res.u.dtype == res.v_dag.dtype == np.float64


def test_dump_load_round_trip():
    t, _ = random_tensor((2, 3, 2))
    back = DenseTensor.load(t.dump())
    assert back.shape == t.shape
    np.testing.assert_array_equal(back.data, t.data)
