"""Free-standing autograd ops: concatenation, stacking, segment sums."""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor, as_tensor


def concat(tensors: list[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along an axis."""
    ts = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.data.shape[axis] for t in ts]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for t, start, end in zip(ts, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                index = [slice(None)] * grad.ndim
                index[axis] = slice(start, end)
                t._accumulate(grad[tuple(index)])

    return Tensor(out_data, parents=tuple(ts), backward=backward)


def stack(tensors: list[Tensor], axis: int = 0) -> Tensor:
    """Stack equal-shape tensors along a new axis."""
    ts = [as_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in ts], axis=axis)

    def backward(grad: np.ndarray) -> None:
        slabs = np.split(grad, len(ts), axis=axis)
        for t, slab in zip(ts, slabs):
            if t.requires_grad:
                t._accumulate(np.squeeze(slab, axis=axis))

    return Tensor(out_data, parents=tuple(ts), backward=backward)


def segment_sum_csr(values: Tensor, seg_nodes: np.ndarray,
                    seg_starts: np.ndarray, sorted_ids: np.ndarray,
                    num_segments: int) -> Tensor:
    """Sum rows of ``values``, pre-sorted by segment id, into segments.

    The GNN aggregation primitive: message rows arrive grouped by
    receiving node (:class:`repro.perf.cache.GraphStatics` sorts each
    edge type by receiver once per graph), so one contiguous
    ``np.add.reduceat`` sweep sums each receiver's messages left to
    right.  ``seg_nodes``/``seg_starts`` are the distinct receivers and
    the offsets of their first rows; ``sorted_ids`` is the full
    receiver id per row, which the gradient (a row gather) needs.
    """
    values = as_tensor(values)
    ids = np.asarray(sorted_ids, dtype=np.int64)
    if ids.ndim != 1 or len(ids) != values.shape[0]:
        raise ValueError(
            f"sorted_ids must be 1-D with length {values.shape[0]}, "
            f"got {ids.shape}"
        )
    if len(seg_nodes) != len(seg_starts):
        raise ValueError(
            f"seg_nodes/seg_starts length mismatch: "
            f"{len(seg_nodes)} != {len(seg_starts)}"
        )
    if len(seg_nodes) and (seg_nodes.min() < 0
                           or seg_nodes.max() >= num_segments):
        raise ValueError("segment id out of range")
    out_data = np.zeros((num_segments,) + values.shape[1:],
                        dtype=values.data.dtype)
    if len(seg_nodes):
        out_data[seg_nodes] = np.add.reduceat(values.data, seg_starts,
                                              axis=0)

    def backward(grad: np.ndarray) -> None:
        values._accumulate(grad[ids])

    return Tensor(out_data, parents=(values,), backward=backward)


def where_positive(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise select ``a`` where condition > 0 else ``b`` (no grad to cond)."""
    a, b = as_tensor(a), as_tensor(b)
    mask = np.asarray(condition) > 0
    out_data = np.where(mask, a.data, b.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(np.where(mask, grad, 0.0))
        if b.requires_grad:
            b._accumulate(np.where(mask, 0.0, grad))

    return Tensor(out_data, parents=(a, b), backward=backward)
