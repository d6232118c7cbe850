"""Dense tensors and the four primitive operations: the tutorial API.

A :class:`DenseTensor` is a value: one read-only n-dimensional numpy array of
any memory layout and any inexact dtype. Real input stays real; complex
arithmetic appears only where a complex operand brings it in. The functions
here validate every index they are given, which is what a reader working
through the four operations wants; the algorithm modules do not go through
them but hold read-only ndarrays and call numpy directly. The package's
argument rules live here too: :func:`_index` for indices, :func:`_number`
for scalars and :func:`_array` for every array a public function takes.

Flat vectors follow one linearization: first index fastest (column-major).
For a rank-3 tensor of shape ``(w_x, w_y, w_z)`` the element ``(x, y, z)``
(0-based) sits at flat position ``x + w_x*(y + w_y*z)`` — all values of ``x``
are enumerated before ``y`` advances. The convention applies wherever a
tensor meets a flat vector: the ``DenseTensor(shape, flat)`` constructor,
``.data``, ``dump``/``load``, the index-fusing rule of :func:`reshape` and the
package's state vectors, where site/axis 0 is the fastest index.

The four primitives:

* ``reshape``  — ``ndarray.reshape(order="F")``: a view when the layout
  allows, a copy otherwise;
* ``permute``  — ``transpose``, always a view;
* ``contract`` — pairwise contraction by ``numpy.tensordot``;
* ``decompose`` — lives in :mod:`tnkit.decomp` (SVD / Hermitian eig).
"""

from __future__ import annotations

import json
import math
import numbers
import operator
from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError

_FLOAT_LIMIT = 2**1024 - 2**970  # float(x) is finite exactly when |x| is below this (so NaN fails too)


def _as_shape(shape: Iterable[int]) -> tuple[int, ...]:
    out = tuple(shape)
    if not all(_is_integer(s) for s in out):
        raise ValidationError(f"extents must be integers, got {out!r}")
    out = tuple(int(s) for s in out)
    for s in out:
        if s < 1:
            raise ValidationError(f"extents must be >= 1, got {out}")
    return out


def _is_integer(x) -> bool:
    """True for an integer that is not a bool: a Python int, a numpy integer, or a JSON integer once parsed."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


_BOUNDS = {"ge": (operator.ge, ">="), "gt": (operator.gt, ">"), "le": (operator.le, "<="), "lt": (operator.lt, "<")}


def _number(value, what: str, kind=float, **bounds):
    """``kind(value)`` if ``value`` is an integer (``kind=int``) or a finite real, not a bool, within ``bounds``.

    ``bounds`` name ``ge``, ``gt``, ``le`` or ``lt``, e.g. ``_number(cutoff, "cutoff", ge=0, lt=1)``;
    otherwise ValidationError naming ``what``. A Python int is finite when a float can hold it.
    """
    if kind is int:
        ok = _is_integer(value)
    elif isinstance(value, int):  # math.isfinite(10**400) raises OverflowError, as does np.float64(1) < _FLOAT_LIMIT
        ok = not isinstance(value, bool) and abs(value) < _FLOAT_LIMIT
    else:
        ok = isinstance(value, numbers.Real) and math.isfinite(value)
    if not (ok and all(_BOUNDS[name][0](kind(value), bound) for name, bound in bounds.items())):
        rule = " and".join(f" {_BOUNDS[name][1]} {bound}" for name, bound in bounds.items())
        raise ValidationError(f"{what} must be {'an integer' if kind is int else 'a finite number'}{rule}, got {value!r}")
    return kind(value)


def _index(value, stop: int, what: str) -> int:
    """``value`` as an int if it is an integer (not a bool) in ``range(stop)``; else ValidationError naming ``what``."""
    if not _is_integer(value):
        raise ValidationError(f"{what} {value!r} is not an integer")
    if not 0 <= value < stop:
        raise ValidationError(f"{what} {value} out of range [0, {stop})")
    return int(value)


def _array(value, what: str, ndim: int | None = None, shape: tuple[int, ...] | None = None) -> np.ndarray:
    """``np.asarray(value)``, integer and bool data as float64, inexact data as it is (no copy).

    ValidationError, naming ``what``, for a ragged sequence, a rank other than ``ndim``, a shape
    other than ``shape``, a dtype that is not numeric (text, ``None``, objects) or a NaN or
    infinite entry. Every array a public function takes goes through this once; internal steps do not.
    """
    try:
        a = np.asarray(value)
    except ValueError:  # a ragged nested sequence
        raise ValidationError(f"{what} must be {shape or 'an array'}, got a ragged sequence") from None
    if ndim is not None and a.ndim != ndim:
        raise ValidationError(f"{what} has rank {a.ndim}, expected {ndim}")
    if shape is not None and a.shape != shape:
        raise ValidationError(f"{what} must be {shape}, got {a.shape}")
    if a.dtype.kind not in "biufc" or not np.isfinite(a).all():
        raise ValidationError(f"{what} must hold finite numbers only")
    return a if a.dtype.kind in "fc" else a.astype(np.float64)


class DenseTensor:
    """Immutable dense tensor holding one read-only ndarray.

    Parameters
    ----------
    shape : sequence of int
        Extent of each index; every extent is at least 1. ``()`` is a scalar.
    data : array-like
        Flat data of length ``prod(shape)`` in first-index-fastest order. It
        is copied, and checked by :func:`_array`.
    """

    __slots__ = ("_arr",)

    def __init__(self, shape: Sequence[int], data) -> None:
        shp = _as_shape(shape)
        flat = _array(data, "tensor data").flatten()
        if flat.size != math.prod(shp):
            raise ValidationError(
                f"shape {shp} holds {math.prod(shp)} elements, data has {flat.size}"
            )
        self._arr = flat.reshape(shp, order="F")
        self._arr.flags.writeable = False

    # -- constructors --------------------------------------------------

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "DenseTensor":
        """Package-internal: adopt an array no one else writes to, without copying."""
        t = cls.__new__(cls)
        arr.flags.writeable = False
        t._arr = arr
        return t

    @classmethod
    def from_ndarray(cls, arr) -> "DenseTensor":
        """Build from a copy of an n-dimensional array (axis order preserved), checked by :func:`_array`."""
        return cls._wrap(np.array(_array(arr, "tensor data")))

    @classmethod
    def zeros(cls, shape: Sequence[int]) -> "DenseTensor":
        return cls._wrap(np.zeros(_as_shape(shape)))

    # -- basic properties ----------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self._arr.shape

    @property
    def rank(self) -> int:
        return self._arr.ndim

    @property
    def size(self) -> int:
        return self._arr.size

    @property
    def data(self) -> np.ndarray:
        """Read-only flat vector in first-index-fastest order.

        A view when the array is column-major contiguous, a copy otherwise.
        """
        flat = self._arr.reshape(-1, order="F")
        flat.flags.writeable = False
        return flat

    def __getitem__(self, multi_index) -> complex:
        multi_index = (multi_index,) if np.isscalar(multi_index) else tuple(multi_index)
        if len(multi_index) != self.rank:
            raise ValidationError(f"expected {self.rank} indices, got {len(multi_index)}")
        idx = tuple(_index(i, w, f"axis {k} index") for k, (i, w) in enumerate(zip(multi_index, self.shape)))
        return self._arr[idx].item()

    def to_ndarray(self) -> np.ndarray:
        """The read-only n-dimensional array itself (no copy)."""
        return self._arr

    def conj(self) -> "DenseTensor":
        return DenseTensor._wrap(self._arr.conj())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DenseTensor(shape={self.shape}, dtype={self._arr.dtype})"

    # -- debug dump ------------------------------------------------------

    def dump(self) -> str:
        """JSON debug dump: {shape, data_re, data_im} in flat linear order."""
        return json.dumps(_to_record(self._arr))

    @classmethod
    def load(cls, text: str) -> "DenseTensor":
        """Inverse of :meth:`dump`; an all-zero imaginary part loads as real. ValidationError for other text."""
        return _from_record(_json_object(text, "tensor dump"))


def _to_record(arr: np.ndarray) -> dict:
    """The dict that :meth:`DenseTensor.dump` writes for ``arr``, and :func:`~tnkit.mps.mps_to_json` per site."""
    flat = arr.reshape(-1, order="F")
    return {"shape": list(arr.shape), "data_re": flat.real.tolist(), "data_im": flat.imag.tolist()}


def _from_record(record) -> DenseTensor:
    """Inverse of :func:`_to_record` for a parsed JSON value; ValidationError unless it is one."""
    shape, data_re, data_im = _fields(record, "tensor dump", "shape", "data_re", "data_im")
    if not isinstance(shape, list) or not all(_is_integer(e) for e in shape):
        raise ValidationError(f"tensor dump shape must be a list of integers, got {shape!r}")
    for part in (data_re, data_im):  # numpy would also read numeric strings and bools
        if not isinstance(part, list) or not all(type(x) in (int, float) for x in part):
            raise ValidationError(f"tensor dump data must be lists of numbers, got {part!r:.60}")
        if not all(abs(x) < _FLOAT_LIMIT for x in part):  # json reads NaN, Infinity, 1e400 and 400-digit integers
            raise ValidationError(f"tensor dump data must be finite within the float range, got {part!r:.60}")
    re, im = (np.asarray(part, dtype=np.float64) for part in (data_re, data_im))
    if re.shape != im.shape:
        raise ValidationError(f"tensor dump data_re and data_im differ in shape: {re.shape} != {im.shape}")
    return DenseTensor(shape, re + 1j * im if np.any(im) else re)


def _json_object(text: str, what: str):
    """``text`` parsed as JSON; ValidationError, naming ``what``, if it is not valid JSON."""
    try:
        return json.loads(text)
    except ValueError as exc:
        raise ValidationError(f"{what} is not valid JSON: {exc}") from exc


def _fields(obj, what: str, *keys: str) -> list:
    """The values of ``keys`` in the JSON object ``obj``; ValidationError, naming ``what``, if any is missing."""
    for k in keys:
        if not isinstance(obj, dict) or k not in obj:
            raise ValidationError(f"{what} has no key {k!r}")
    return [obj[k] for k in keys]


def reshape(t: DenseTensor, new_shape: Sequence[int]) -> DenseTensor:
    """Regroup indices by the first-index-fastest fuse rule.

    The result holds the flat data vector of ``t`` unchanged, so e.g. a
    ``(10, 5, 20)`` tensor reshapes to ``(2, 5, 5, 10, 2)``. It is a view when
    the memory layout allows and a copy otherwise.
    """
    shp = _as_shape(new_shape)
    if math.prod(shp) != t.size:
        raise ValidationError(
            f"cannot reshape {t.shape} ({t.size} elements) to {shp} ({math.prod(shp)})"
        )
    return DenseTensor._wrap(t.to_ndarray().reshape(shp, order="F"))


def permute(t: DenseTensor, perm: Sequence[int]) -> DenseTensor:
    """Reorder indices (a view, no data moves).

    ``out`` satisfies ``out[i_perm[0], i_perm[1], ...] == t[i_0, i_1, ...]``;
    axis ``k`` of the output is axis ``perm[k]`` of the input. For example
    ``perm=(3, 0, 1, 2)`` on a rank-4 tensor makes the fourth index the first.
    """
    p = tuple(_index(x, t.rank, "permutation entry") for x in perm)
    if sorted(p) != list(range(t.rank)):
        raise ValidationError(f"{p} is not a permutation of 0..{t.rank - 1}")
    return DenseTensor._wrap(t.to_ndarray().transpose(p))


def _check_axes(t: DenseTensor, axes: Sequence[int], name: str) -> tuple[int, ...]:
    ax = tuple(_index(a, t.rank, f"{name}: axis") for a in axes)
    for k, a in enumerate(ax):
        if a in ax[:k]:
            raise ValidationError(f"{name}: axis {a} repeated")
    return ax


def _paired_axes(
    a: DenseTensor, axes_a: Sequence[int], b: DenseTensor, axes_b: Sequence[int]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Validate the contracted axis pairs of ``a`` and ``b`` and return them."""
    ax_a = _check_axes(a, axes_a, "axes_a")
    ax_b = _check_axes(b, axes_b, "axes_b")
    if len(ax_a) != len(ax_b):
        raise ValidationError(f"axis lists differ in length: {len(ax_a)} vs {len(ax_b)}")
    for pa, pb in zip(ax_a, ax_b):
        if a.shape[pa] != b.shape[pb]:
            raise ValidationError(
                f"contracted axes {pa},{pb} have extents {a.shape[pa]} != {b.shape[pb]}"
            )
    return ax_a, ax_b


def contract_flops(
    a: DenseTensor, axes_a: Sequence[int], b: DenseTensor, axes_b: Sequence[int]
) -> int:
    """Analytic cost model: the product of all distinct index extents.

    Open indices of both operands and each contracted pair (counted once)
    contribute one factor each — e.g. contracting a rank-4 with a rank-5
    tensor over two shared indices of extent chi costs chi**7. This is a
    model, not a wall-time measurement.
    """
    _, ax_b = _paired_axes(a, axes_a, b, axes_b)
    cost = 1
    for i in range(a.rank):
        cost *= a.shape[i]
    for i in range(b.rank):
        if i not in ax_b:
            cost *= b.shape[i]
    return cost


def contract(
    a: DenseTensor, axes_a: Sequence[int], b: DenseTensor, axes_b: Sequence[int]
) -> DenseTensor:
    """Contract paired axes of two tensors.

    ``axes_a[k]`` of ``a`` is summed against ``axes_b[k]`` of ``b``; paired
    extents must match. The result carries the remaining axes of ``a`` (in
    their original order) followed by the remaining axes of ``b``. With empty
    axis lists this is the outer product.
    """
    ax_a, ax_b = _paired_axes(a, axes_a, b, axes_b)
    return DenseTensor._wrap(np.tensordot(a.to_ndarray(), b.to_ndarray(), axes=(ax_a, ax_b)))
