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
from tnkit.errors import ValidationError
from tnkit.tensors import _number

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
    with pytest.raises(ValidationError, match=r"shape \(2, 3\) holds 6 elements, data has 5"):
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
    with pytest.raises(ValidationError, match=r"cannot reshape \(2, 3\) \(6 elements\) to \(4, 2\) \(8\)"):
        reshape(t, (4, 2))


def test_permute_matches_numpy_transpose():
    t, arr = random_tensor((2, 3, 4, 5))
    p = permute(t, (3, 0, 2, 1))
    assert p.shape == (5, 2, 4, 3)
    np.testing.assert_allclose(p.to_ndarray(), arr.transpose(3, 0, 2, 1))


def test_permute_validates_the_permutation():
    t, _ = random_tensor((2, 3))
    with pytest.raises(ValidationError, match="is not a permutation of 0..1"):
        permute(t, (0, 0))
    with pytest.raises(ValidationError, match="is not a permutation of 0..1"):
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
        with pytest.raises(ValidationError, match="contracted axes 1,0 have extents 3 != 4"):
            fn(a, [1], b, [0])
        with pytest.raises(ValidationError, match=r"axes_a: axis 2 out of range \[0, 2\)"):
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


@pytest.mark.parametrize(
    "call, match",
    [
        pytest.param(lambda t: DenseTensor((2, 0), []), "extents must be >= 1", id="zero-extent"),
        pytest.param(lambda t: DenseTensor((2.5, 2), np.arange(4.0)), r"extents must be integers, got \(2.5, 2\)", id="extent-float"),
        pytest.param(lambda t: DenseTensor((True, 2), [1.0, 2.0]), r"extents must be integers, got \(True, 2\)", id="extent-bool"),
        pytest.param(lambda t: DenseTensor.zeros((2.0,)), r"extents must be integers, got \(2.0,\)", id="zeros-extent-float"),
        pytest.param(lambda t: reshape(t, (12.0,)), r"extents must be integers, got \(12.0,\)", id="reshape-extent-float"),
        pytest.param(lambda t: DenseTensor((2,), [np.nan, 1.0]), "tensor data must hold finite numbers only", id="data-nan"),
        pytest.param(lambda t: DenseTensor((2,), [1.0, -np.inf]), "tensor data must hold finite numbers only", id="data-inf"),
        pytest.param(
            lambda t: DenseTensor((2,), [1.0, complex(0.0, np.nan)]), "tensor data must hold finite numbers only", id="data-complex-nan",
        ),
        pytest.param(
            lambda t: DenseTensor.from_ndarray(np.full((2, 2), np.nan)), "tensor data must hold finite numbers only", id="from-ndarray-nan",
        ),
        pytest.param(
            lambda t: DenseTensor.from_ndarray([[1.0, np.inf]]), "tensor data must hold finite numbers only", id="from-ndarray-inf",
        ),
        pytest.param(
            lambda t: DenseTensor.from_ndarray(np.array([np.inf + 0j, 1j])),
            "tensor data must hold finite numbers only", id="from-ndarray-complex-inf",
        ),
        pytest.param(lambda t: t[0, 1], "expected 3 indices, got 2", id="index-count"),
        pytest.param(lambda t: t[0, 3, 0], r"axis 1 index 3 out of range \[0, 3\)", id="index-past-end"),
        pytest.param(lambda t: t[-1, 0, 0], r"axis 0 index -1 out of range \[0, 2\)", id="index-negative"),
        pytest.param(lambda t: reshape(t, (6, 2))[1.7, 0.2], "axis 0 index 1.7 is not an integer", id="index-float"),
        pytest.param(lambda t: reshape(t, (6, 2))[True, False], "axis 0 index True is not an integer", id="index-bool"),
        pytest.param(
            lambda t: permute(reshape(t, (6, 2)), (1.9, 0.2)), "permutation entry 1.9 is not an integer", id="permute-float",
        ),
        pytest.param(lambda t: contract(t, [1.5], t, [1.2]), "axes_a: axis 1.5 is not an integer", id="axes-float"),
        pytest.param(lambda t: contract(t, [True], t, [1]), "axes_a: axis True is not an integer", id="axes-bool"),
        pytest.param(lambda t: contract_flops(t, [1.5], t, [1.2]), "axes_a: axis 1.5 is not an integer", id="flops-axes-float"),
        pytest.param(lambda t: contract_flops(t, [1], t, [True]), "axes_b: axis True is not an integer", id="flops-axes-bool"),
        pytest.param(lambda t: contract(t, [0, 0], t, [0, 1]), "axes_a: axis 0 repeated", id="axes-repeated"),
        pytest.param(lambda t: contract(t, [0, 1], t, [0]), "axis lists differ in length: 2 vs 1", id="axes-unequal"),
        pytest.param(lambda t: DenseTensor.load(t.dump()[:-1]), "tensor dump is not valid JSON", id="load-malformed"),
        pytest.param(
            lambda t: DenseTensor.load('{"shape": [2], "data_im": [0, 0]}'), "tensor dump has no key 'data_re'", id="load-no-data-re"
        ),
        pytest.param(
            lambda t: DenseTensor.load('{"shape": 3, "data_re": [], "data_im": []}'),
            "tensor dump shape must be a list of integers, got 3", id="load-shape-not-a-list",
        ),
        pytest.param(
            lambda t: DenseTensor.load('{"shape": [2.0], "data_re": [1, 2], "data_im": [0, 0]}'),
            r"tensor dump shape must be a list of integers, got \[2.0\]", id="load-shape-float",
        ),
        pytest.param(
            lambda t: DenseTensor.load('{"shape": [2], "data_re": ["a", "b"], "data_im": [0, 0]}'),
            "tensor dump data must be lists of numbers", id="load-data-text",
        ),
        pytest.param(
            lambda t: DenseTensor.load('{"shape": [2], "data_re": ["1.5", "2"], "data_im": [0, 0]}'),
            r"tensor dump data must be lists of numbers, got \['1.5', '2'\]", id="load-data-numeric-text",
        ),
        pytest.param(
            lambda t: DenseTensor.load('{"shape": [2], "data_re": [1, 2], "data_im": [false, 0]}'),
            r"tensor dump data must be lists of numbers, got \[False, 0\]", id="load-data-bool",
        ),
        pytest.param(
            lambda t: DenseTensor.load('{"shape": [1], "data_re": 1.5, "data_im": 0}'),
            "tensor dump data must be lists of numbers, got 1.5", id="load-data-not-a-list",
        ),
        pytest.param(
            lambda t: DenseTensor.load('{"shape": [3], "data_re": [NaN, 0, 0], "data_im": [0, 0, 0]}'),
            r"tensor dump data must be finite within the float range, got \[nan, 0, 0\]", id="load-data-nan",
        ),
        pytest.param(
            lambda t: DenseTensor.load('{"shape": [2], "data_re": [1, 2], "data_im": [0, -Infinity]}'),
            r"tensor dump data must be finite within the float range, got \[0, -inf\]", id="load-data-infinity",
        ),
        pytest.param(
            lambda t: DenseTensor.load('{"shape": [2], "data_re": [1e400, 2], "data_im": [0, 0]}'),
            r"tensor dump data must be finite within the float range, got \[inf, 2\]", id="load-data-float-overflow",
        ),
        pytest.param(
            lambda t: DenseTensor.load('{"shape": [1], "data_re": [' + "9" * 400 + '], "data_im": [0]}'),
            r"tensor dump data must be finite within the float range, got \[9999", id="load-data-int-overflow",
        ),
        pytest.param(
            lambda t: DenseTensor.load('{"shape": [2], "data_re": [1, 2], "data_im": [0]}'),
            r"tensor dump data_re and data_im differ in shape: \(2,\) != \(1,\)", id="load-data-lengths",
        ),
    ],
)
def test_tensor_guards(call, match):
    with pytest.raises(ValidationError, match=match):
        call(DenseTensor((2, 3, 2), np.arange(12.0)))


_HUGE = 10**400  # an integer no float can hold


@pytest.mark.parametrize(
    "value, kind, bounds, want",
    [
        pytest.param(True, float, {}, "x must be a finite number, got True", id="bool-as-number"),
        pytest.param(False, int, {}, "x must be an integer, got False", id="bool-as-integer"),
        pytest.param("0.5", float, {}, "x must be a finite number, got '0.5'", id="text"),
        pytest.param(None, int, {"ge": 1}, "x must be an integer >= 1, got None", id="none"),
        pytest.param(float("nan"), float, {}, "x must be a finite number, got nan", id="nan"),
        pytest.param(np.float64("nan"), float, {}, f"x must be a finite number, got {np.float64('nan')!r}", id="numpy-nan"),
        pytest.param(float("inf"), float, {}, "x must be a finite number, got inf", id="inf"),
        pytest.param(-np.inf, float, {}, "x must be a finite number, got -inf", id="minus-inf"),
        pytest.param(_HUGE, float, {}, f"x must be a finite number, got {_HUGE}", id="huge-int-as-number"),
        pytest.param(-_HUGE, float, {"lt": 0}, f"x must be a finite number < 0, got {-_HUGE}", id="minus-huge-int"),
        pytest.param(2.5, int, {}, "x must be an integer, got 2.5", id="float-as-integer"),
        pytest.param(2.0, int, {}, "x must be an integer, got 2.0", id="integral-float-as-integer"),
        pytest.param(0, int, {"ge": 1}, "x must be an integer >= 1, got 0", id="below-ge"),
        pytest.param(0.0, float, {"gt": 0}, "x must be a finite number > 0, got 0.0", id="at-gt"),
        pytest.param(65, int, {"ge": 2, "le": 64}, "x must be an integer >= 2 and <= 64, got 65", id="above-le"),
        pytest.param(1, float, {"ge": 0, "lt": 1}, "x must be a finite number >= 0 and < 1, got 1", id="at-lt"),
        pytest.param(np.float64(0.5), float, {"gt": 0}, 0.5, id="numpy-float"),
        pytest.param(np.int64(3), int, {"ge": 1}, 3, id="numpy-integer"),
        pytest.param(np.int64(3), float, {}, 3.0, id="numpy-integer-as-number"),
        pytest.param(3, float, {}, 3.0, id="int-as-number"),
        pytest.param(2**1023, float, {}, 2.0**1023, id="large-int-as-number"),
        pytest.param(_HUGE, int, {"ge": 1}, _HUGE, id="huge-integer"),
        pytest.param(1, int, {"ge": 1}, 1, id="at-ge"),
        pytest.param(64, int, {"ge": 2, "le": 64}, 64, id="at-le"),
        pytest.param(0, float, {"ge": 0, "lt": 1}, 0.0, id="within-both"),
    ],
)
def test_number_is_one_rule_with_one_message(value, kind, bounds, want):
    # a str ``want`` is the whole message of the refusal; anything else is the value returned, as ``kind``
    if isinstance(want, str):
        with pytest.raises(ValidationError) as e:
            _number(value, "x", kind, **bounds)
        assert str(e.value) == want
    else:
        got = _number(value, "x", kind, **bounds)
        assert got == want and type(got) is kind


def test_a_vector_takes_a_scalar_index():
    assert DenseTensor((3,), [1.0, 2.0, 3.0])[2] == 3.0
