"""Dense tensors and the four primitive operations: the tutorial API.

A :class:`DenseTensor` is a value: one read-only n-dimensional numpy array of
any memory layout and any inexact dtype. Real input stays real; complex
arithmetic appears only where a complex operand brings it in. The functions
here validate every index they are given, which is what a reader working
through the four operations wants; the algorithm modules do not go through
them but hold read-only ndarrays and call numpy directly.

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
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    ElementCountMismatch,
    ExtentMismatch,
    InvalidAxis,
    InvalidPermutation,
)


def _as_shape(shape: Iterable[int]) -> tuple[int, ...]:
    out = tuple(int(s) for s in shape)
    for s in out:
        if s < 1:
            raise ExtentMismatch(f"extents must be >= 1, got {out}")
    return out


def _inexact(a: np.ndarray) -> np.ndarray:
    """Integer and boolean data becomes float64; inexact dtypes pass through."""
    return a if a.dtype.kind in "fc" else a.astype(np.float64)


def _read_only(a) -> np.ndarray:
    """A read-only view of ``a`` (made inexact); ``a`` itself stays writeable."""
    view = _inexact(np.asarray(a)).view()
    view.flags.writeable = False
    return view


class DenseTensor:
    """Immutable dense tensor holding one read-only ndarray.

    Parameters
    ----------
    shape : sequence of int
        Extent of each index; every extent is at least 1. ``()`` is a scalar.
    data : array-like
        Flat data of length ``prod(shape)`` in first-index-fastest order. It
        is copied.
    """

    __slots__ = ("_arr",)

    def __init__(self, shape: Sequence[int], data) -> None:
        shp = _as_shape(shape)
        flat = _inexact(np.array(data)).reshape(-1)
        if flat.size != math.prod(shp):
            raise ElementCountMismatch(
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
        """Build from a copy of an n-dimensional array (axis order preserved)."""
        return cls._wrap(_inexact(np.array(arr)))

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
        if np.isscalar(multi_index):
            multi_index = (multi_index,)
        idx = tuple(int(i) for i in multi_index)
        if len(idx) != self.rank:
            raise InvalidAxis(f"expected {self.rank} indices, got {len(idx)}")
        for i, w in zip(idx, self.shape):
            if not 0 <= i < w:
                raise InvalidAxis(f"index {idx} out of bounds for shape {self.shape}")
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
        flat = self.data
        return json.dumps(
            {
                "shape": list(self.shape),
                "data_re": flat.real.tolist(),
                "data_im": flat.imag.tolist(),
            }
        )

    @classmethod
    def load(cls, text: str) -> "DenseTensor":
        """Inverse of :meth:`dump`; an all-zero imaginary part loads as real."""
        obj = json.loads(text)
        re = np.asarray(obj["data_re"], dtype=np.float64)
        im = np.asarray(obj["data_im"], dtype=np.float64)
        return cls(tuple(obj["shape"]), re + 1j * im if np.any(im) else re)


def reshape(t: DenseTensor, new_shape: Sequence[int]) -> DenseTensor:
    """Regroup indices by the first-index-fastest fuse rule.

    The result holds the flat data vector of ``t`` unchanged, so e.g. a
    ``(10, 5, 20)`` tensor reshapes to ``(2, 5, 5, 10, 2)``. It is a view when
    the memory layout allows and a copy otherwise.
    """
    shp = _as_shape(new_shape)
    if math.prod(shp) != t.size:
        raise ElementCountMismatch(
            f"cannot reshape {t.shape} ({t.size} elements) to {shp} ({math.prod(shp)})"
        )
    return DenseTensor._wrap(t.to_ndarray().reshape(shp, order="F"))


def permute(t: DenseTensor, perm: Sequence[int]) -> DenseTensor:
    """Reorder indices (a view, no data moves).

    ``out`` satisfies ``out[i_perm[0], i_perm[1], ...] == t[i_0, i_1, ...]``;
    axis ``k`` of the output is axis ``perm[k]`` of the input. For example
    ``perm=(3, 0, 1, 2)`` on a rank-4 tensor makes the fourth index the first.
    """
    p = tuple(int(x) for x in perm)
    if sorted(p) != list(range(t.rank)):
        raise InvalidPermutation(f"{p} is not a permutation of 0..{t.rank - 1}")
    return DenseTensor._wrap(t.to_ndarray().transpose(p))


def _check_axes(t: DenseTensor, axes: Sequence[int], name: str) -> tuple[int, ...]:
    ax = tuple(int(a) for a in axes)
    seen = set()
    for a in ax:
        if not 0 <= a < t.rank:
            raise InvalidAxis(f"{name}: axis {a} out of range for rank {t.rank}")
        if a in seen:
            raise InvalidAxis(f"{name}: axis {a} repeated")
        seen.add(a)
    return ax


def _paired_axes(
    a: DenseTensor, axes_a: Sequence[int], b: DenseTensor, axes_b: Sequence[int]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Validate the contracted axis pairs of ``a`` and ``b`` and return them."""
    ax_a = _check_axes(a, axes_a, "axes_a")
    ax_b = _check_axes(b, axes_b, "axes_b")
    if len(ax_a) != len(ax_b):
        raise InvalidAxis(f"axis lists differ in length: {len(ax_a)} vs {len(ax_b)}")
    for pa, pb in zip(ax_a, ax_b):
        if a.shape[pa] != b.shape[pb]:
            raise ExtentMismatch(
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
