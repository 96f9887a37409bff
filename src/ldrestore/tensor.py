"""Dense tensors with tape-based reverse-mode differentiation.

Tensors wrap C-contiguous numpy arrays of the compute dtype: float32, or
float64 inside a ``float64()`` block, which is the only way to change it.
``Tensor.__init__`` is the one conversion point. Every array an op
allocates (the padded grid, a conv's grid product, a reduction's
gradient, the backward seed) takes its dtype from the op's operands, so a
float32 tape stays float32 through the backward pass. float64 is the
reference mode: tests that compare against a float64 oracle run under it.
Arrays that leave the tape for images, metrics or checkpoints are widened
to float64, which is exact.

Every differentiable operation records a tape node holding its inputs and a
backward closure; calling ``backward`` on a scalar loss walks the tape once
in reverse topological order and accumulates gradients additively into
every tensor that was created with ``requires_grad=True``.

A node's backward closure takes the output gradient and returns one entry
per input. An input that needs no gradient (``not inp._needs_grad()``: not
``requires_grad`` and not produced by a recorded op) gets ``None``, and its
gradient is never computed, so a frozen weight costs no gradient product.

Shapes are explicit. There is no general broadcasting: mixed-shape
combinations exist only as named ops (``channel_bias``, ``row_scale``,
``broadcast_spatial``) with hand-written backward rules. Every spatial op
(convolution, pooling, resampling, channel concatenation and bias) takes a
batch ``(n, c, h, w)`` only, and a 3-D input raises ``DimensionError``; a
single item is a batch of one.

Convolution is one tape node per call, with inputs (x, k) or (x, k, bias).
It works on a channel-major grid: ``_to_grid`` copies an (n, c, h, w) batch
into zeros of shape (c, head + n*hp*wp + tail), each image in a slot of its
own (hp, wp) grid, and its adjoint ``_from_grid`` reads each image's window
back out. The conv's slot is hp, wp = max(h + padding, ho), max(w +
padding, wo): the image at its top left, then at least ``padding`` zero rows
and columns. On the flattened grid those zeros are also the bottom border
of one image and the top border of the next, and the right border of one
row and the left border of the next, so neighbours share a single border;
head = padding*wp + padding zeros give the first image its top and left
border. With enough tail zeros that the last tap stays inside the grid,
kernel tap (i, j) reads one contiguous slice at offset i*wp + j. The
forward takes one product per tap, the tap's (co, c) block of the kernel
times the tap's slice, summed into a ``(co, n*hp*wp)`` grid
(``_tap_matmul``). It then adds the bias and reads each image's (ho, wo)
window out. A low-rank adapter reaches the node only through its kernel
(``network.adapted_weight``). The input gradient is the transposed
convolution, which is a direct convolution with the flipped kernel over the
zero-extended output gradient (Dumoulin & Visin, arXiv 1603.07285). So the
backward puts the output gradient on the grid after the same number of
leading zeros, and runs ``_tap_matmul`` with the per-tap blocks in reverse
order and transposed. The kernel gradient, whose inner dimension is the
whole grid, takes the grid in column blocks that stay in cache across the
taps. No patch matrix is formed anywhere in the node, except with a single
channel on the product's input side: there the ``(kh*kw, n*hp*wp)`` patch
matrix is smaller than the output, and one product with it replaces kh*kw
products of inner dimension 1. Grid positions outside the crop get zero
gradient, and the bias gradient is the grid gradient summed over batch and
space. ``im2col`` and ``fold_channels_last`` record the patch matrix and the
crop as tape ops of their own, on the same grid pair: tests compose them
with ``channel_bias``, which takes one bias row per item (the conv bias
tiled over the batch), as the reference for the node, and the benchmark's
tracer looks them up by name. This module is the only one that knows the
layout.

Importing this module fixes glibc's heap thresholds (``_keep_heap_mapped``).
With no patch matrix, every temporary of a training step is below about
0.5 MB, and glibc's self-adjusting thresholds then return the memory a step
frees to the OS, which the next step faults back in: about 1250-2000 minor
page faults per step, against under one with the thresholds fixed. The
values are constants, not settings.
"""

import ctypes
import os
from contextlib import contextmanager

import numpy as np

from .errors import ContractViolation, DimensionError, ParameterError

_GRAD_ENABLED = True
_DTYPE = np.float32

# glibc's mallopt parameters (malloc.h) and the values this module sets
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_TRIM_THRESHOLD = 256 << 20  # far above the heap a training step uses
_MMAP_THRESHOLD = 32 << 20  # glibc's maximum on 64-bit

# bytes of the padded grid one column block of a conv's weight gradient reads
# (see _tap_matmul_t)
_GRAD_BLOCK_BYTES = 256 << 10


def _keep_heap_mapped():
    """Fix glibc's heap thresholds so memory a step frees stays mapped for the next.

    A training step allocates and frees a tape of arrays each smaller than
    about 0.5 MB. glibc's default thresholds move with the sizes it sees
    freed, and with this pattern they return the freed tape to the OS every
    step; the next step then takes ~1250-2000 minor page faults to map it
    back in. Setting both thresholds turns that adjustment off: arrays under
    32 MiB come from the heap, and up to 256 MiB of free heap stays mapped.
    Other C libraries are left as they are.
    """
    try:
        if not (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc"):
            return
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


_keep_heap_mapped()


@contextmanager
def no_grad():
    """Disable tape recording inside the block (inference / sampling)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


@contextmanager
def float64():
    """Compute in float64 inside the block (reference mode for gradient and oracle checks).

    Tensors created in the block hold float64; tensors created before it keep
    their float32 data, and an op mixing the two yields float64.
    """
    global _DTYPE
    prev = _DTYPE
    _DTYPE = np.float64
    try:
        yield
    finally:
        _DTYPE = prev


class TapeNode:
    """One recorded operation: inputs and how to push gradients back."""

    __slots__ = ("op", "inputs", "backward")

    def __init__(self, op, inputs, backward):
        self.op = op
        self.inputs = inputs
        self.backward = backward


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "node")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data, dtype=_DTYPE)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self.node = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractViolation(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def _needs_grad(self):
        return self.requires_grad or self.node is not None

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


def _recording(inputs) -> bool:
    """Whether an op on these inputs records a tape node."""
    return _GRAD_ENABLED and any(t._needs_grad() for t in inputs)


def _make(data, op, inputs, grad_fns) -> Tensor:
    """Wrap an op's output; grad_fns[i](g) gives the gradient for inputs[i].

    The recorded backward calls only the gradient functions of inputs that
    need a gradient and returns None for the others.
    """
    out = Tensor(data)
    if _recording(inputs):

        def backward(g):
            return tuple(fn(g) if t._needs_grad() else None for t, fn in zip(inputs, grad_fns))

        out.node = TapeNode(op, inputs, backward)
    return out


def _pass(g):
    return g


def _same_shape(a, b, op):
    if a.shape != b.shape:
        raise DimensionError(f"{op}: shape {a.shape} vs {b.shape}")


def _batch_shape(shape, op):
    """shape as (n, c, h, w), or DimensionError naming it: spatial ops take batches only."""
    if len(shape) != 4:
        raise DimensionError(f"{op}: need a batch (n, c, h, w), got shape {tuple(shape)}")
    return tuple(shape)


# ---------------------------------------------------------------------------
# elementwise


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "add")
    return _make(a.data + b.data, "add", (a, b), (_pass, _pass))


def add_scalar(a: Tensor, c: float) -> Tensor:
    return _make(a.data + c, "add_scalar", (a,), (_pass,))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "mul")
    return _make(a.data * b.data, "mul", (a, b), (lambda g: g * b.data, lambda g: g * a.data))


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return _make(a.data * c, "scale", (a,), (lambda g: g * c,))


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0.0
    return _make(np.where(mask, a.data, 0.0), "relu", (a,), (lambda g: g * mask,))


def _logistic(x):
    """1 / (1 + exp(-x)), with one exp, computed in place in one buffer.

    A temporary costs about as much as a pass over the data here. Where
    exp(-x) overflows, 1 + inf is inf and the result is exactly 0; the
    overflow is expected, so its warning is silenced for this call only.
    Results below the smallest normal number are flushed to zero. float32
    reaches them for x below about -87, which sampling produces, and a GEMM
    that reads subnormals runs tens of times slower on x86. The flush costs
    a masked pass, so it runs only when the smallest result needs it.
    """
    s = np.negative(x)
    with np.errstate(over="ignore"):
        np.exp(s, out=s)
    s += 1.0
    np.divide(1.0, s, out=s)
    tiny = np.finfo(s.dtype).tiny
    if s.size and s.min() < tiny:
        np.copyto(s, 0.0, where=s < tiny)
    return s


def sigmoid(a: Tensor) -> Tensor:
    s = _logistic(a.data)

    def backward(g):  # g * s * (1 - s), in one buffer
        d = 1.0 - s
        d *= s
        d *= g
        return d

    return _make(s, "sigmoid", (a,), (backward,))


def silu(a: Tensor) -> Tensor:
    s = _logistic(a.data)

    def backward(g):  # g * s * (1 + x * (1 - s)), in one buffer
        d = 1.0 - s
        d *= a.data
        d += 1.0
        d *= s
        d *= g
        return d

    return _make(a.data * s, "silu", (a,), (backward,))


# ---------------------------------------------------------------------------
# reductions and losses


def tsum(a: Tensor) -> Tensor:
    return _make(np.sum(a.data), "sum", (a,), (lambda g: np.full_like(a.data, float(g)),))


def tmean(a: Tensor) -> Tensor:
    n = a.data.size
    return _make(np.mean(a.data), "mean", (a,), (lambda g: np.full_like(a.data, float(g) / n),))


def mse(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "mse")
    diff = a.data - b.data
    n = diff.size
    return _make(
        np.mean(diff * diff), "mse", (a, b),
        (lambda g: 2.0 * float(g) / n * diff, lambda g: -2.0 * float(g) / n * diff),
    )


def frobenius_norm_sq(a: Tensor) -> Tensor:
    return _make(np.sum(a.data * a.data), "fro2", (a,), (lambda g: 2.0 * float(g) * a.data,))


# ---------------------------------------------------------------------------
# shape ops


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape)) != a.data.size:
        raise DimensionError(f"reshape: {a.shape} -> {shape} changes element count")
    return _make(a.data.reshape(shape), "reshape", (a,), (lambda g: g.reshape(a.shape),))


def concat_channels(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate two (n, c, h, w) batches along the channel axis."""
    _batch_shape(a.shape, "concat_channels")
    _batch_shape(b.shape, "concat_channels")
    if a.shape[0] != b.shape[0] or a.shape[2:] != b.shape[2:]:
        raise DimensionError(f"concat_channels: shape {a.shape} vs {b.shape}")
    ca = a.shape[1]
    return _make(
        np.concatenate([a.data, b.data], axis=1), "concat", (a, b),
        (lambda g: np.ascontiguousarray(g[:, :ca]), lambda g: np.ascontiguousarray(g[:, ca:])),
    )


def channel_bias(x: Tensor, b: Tensor) -> Tensor:
    """Add a per-channel bias, constant over spatial positions: x (n,c,h,w)
    with b (n,c), one row per item."""
    _batch_shape(x.shape, "channel_bias")
    if b.shape != x.shape[:2]:
        raise DimensionError(f"channel_bias: x {x.shape} vs b {b.shape}; need b {x.shape[:2]}")
    out = x.data + b.data[:, :, None, None]
    return _make(out, "channel_bias", (x, b), (_pass, lambda g: g.sum(axis=(2, 3))))


def broadcast_spatial(v: Tensor, h: int, w: int) -> Tensor:
    """Tile per-item channel vectors over an h x w grid: (n,c)->(n,c,h,w)."""
    if v.ndim != 2:
        raise DimensionError(f"broadcast_spatial: need (n, c), got shape {v.shape}")
    n, c = v.shape
    out = np.broadcast_to(v.data[:, :, None, None], (n, c, h, w)).copy()
    return _make(out, "broadcast_spatial", (v,), (lambda g: g.sum(axis=(2, 3)),))


def row_scale(x: Tensor, s: Tensor) -> Tensor:
    """Scale each leading-axis slice by its own factor: y[i] = s[i] * x[i]."""
    if s.ndim != 1 or x.ndim < 1 or x.shape[0] != s.shape[0]:
        raise DimensionError(f"row_scale: x {x.shape} vs s {s.shape}")
    shape = (s.shape[0],) + (1,) * (x.ndim - 1)
    sb = s.data.reshape(shape)
    axes = tuple(range(1, x.ndim))  # empty for a 1-D x, where the sum is the identity
    return _make(x.data * sb, "row_scale", (x, s), (lambda g: g * sb, lambda g: (g * x.data).sum(axis=axes)))


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Gather rows of a (vocab, dim) table; backward scatter-adds."""
    ids = np.asarray(ids, dtype=np.int64)
    if table.ndim != 2 or ids.ndim != 1:
        raise DimensionError(f"embedding_lookup: table {table.shape}, ids {ids.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ParameterError("embedding_lookup: id out of range")

    def backward(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids, g)
        return gt

    return _make(table.data[ids].copy(), "embedding", (table,), (backward,))


# ---------------------------------------------------------------------------
# matrix products


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionError(f"matmul: need 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: inner dims differ, {a.shape} x {b.shape}")
    return _make(a.data @ b.data, "matmul", (a, b), (lambda g: g @ b.data.T, lambda g: a.data.T @ g))


def linear(x: Tensor, w: Tensor) -> Tensor:
    """y = x @ w.T for x (n,k), w (d,k); the building block of dense and conv sites."""
    if x.ndim != 2 or w.ndim != 2:
        raise DimensionError(f"linear: need 2-D operands, got {x.shape} and {w.shape}")
    if x.shape[1] != w.shape[1]:
        raise DimensionError(f"linear: inner dims differ, {x.shape} x {w.shape}^T")
    return _make(x.data @ w.data.T, "linear", (x, w), (lambda g: g @ w.data, lambda g: g.T @ x.data))


# ---------------------------------------------------------------------------
# convolution over the flattened padded grid, and resampling


def _conv_geometry(x_shape, k_shape, padding):
    if len(k_shape) != 4:
        raise DimensionError(f"conv2d: kernel must be 4-D, got {k_shape}")
    co, ci, kh, kw = k_shape
    if kh % 2 == 0 or kw % 2 == 0:
        raise ParameterError(f"conv2d: kernel dims must be odd, got {kh}x{kw}")
    if padding < 0:
        raise ParameterError(f"conv2d: padding must be >= 0, got {padding}")
    n, c, h, w = _batch_shape(x_shape, "conv2d")
    if c != ci:
        raise DimensionError(f"conv2d: input channels {c} vs kernel {ci} ({x_shape} with {k_shape})")
    ho = h + 2 * padding - kh + 1
    wo = w + 2 * padding - kw + 1
    if ho < 1 or wo < 1:
        raise DimensionError(f"conv2d: kernel {k_shape} larger than padded input {x_shape}")
    # each image's grid slot: the image, then padding zero rows and columns
    # that also pad the next image's top and the next row's left, and room
    # for the (ho, wo) output window
    hp, wp = max(h + padding, ho), max(w + padding, wo)
    return n, c, h, w, co, kh, kw, ho, wo, hp, wp


def _to_grid(a, hp, wp, at, head=0, tail=0):
    """(n, c, h, w) batch -> zeroed channel-major grid (c, head + n*hp*wp + tail).

    Image b fills rows and columns at..at+h-1 and at..at+w-1 of the b-th
    (hp, wp) grid, which starts at column head + b*hp*wp; everything else
    is zero. A batch that fills its grids, with no head or tail, is only
    swapped to (c, n) order, which is a view when n = 1.
    """
    n, c, h, w = a.shape
    swapped = a.transpose(1, 0, 2, 3)
    if (h, w) == (hp, wp) and head == tail == 0:
        return np.ascontiguousarray(swapped).reshape(c, n * hp * wp)
    length = n * hp * wp
    grid = np.zeros((c, head + length + tail), dtype=a.dtype)
    grid[:, head : head + length].reshape(c, n, hp, wp)[:, :, at : at + h, at : at + w] = swapped
    return grid


def _from_grid(grid, n, hp, wp, at, h, w):
    """Adjoint of _to_grid without head or tail: (c, n*hp*wp) -> (n, c, h, w),
    the (h, w) window at offset (at, at) of each image's grid."""
    c = grid.shape[0]
    v = grid.reshape(c, n, hp, wp)[:, :, at : at + h, at : at + w]
    return np.ascontiguousarray(v.transpose(1, 0, 2, 3))


def _tap_offsets(kh, kw, wp):
    """Offset of tap (i, j) into a flattened padded grid of width wp, in (i, j) order."""
    return [i * wp + j for i in range(kh) for j in range(kw)]


def _patches(xp, kh, kw, wp, length):
    """(c*kh*kw, length) patch matrix of a padded grid: row (ci, i, j) is xp[ci, i*wp+j:][:length]."""
    if kh == kw == 1:
        return xp
    c = xp.shape[0]
    cols = np.empty((c, kh * kw, length), dtype=xp.dtype)
    for t, off in enumerate(_tap_offsets(kh, kw, wp)):
        cols[:, t] = xp[:, off : off + length]
    return cols.reshape(c * kh * kw, length)


def _col2im(gcols, kh, kw, wp, length):
    """Adjoint of _patches onto the grid without its tail, which is constant: (c, length)."""
    taps = gcols.reshape(-1, kh * kw, length)
    gxp = taps[:, 0].copy()
    for t, off in enumerate(_tap_offsets(kh, kw, wp)[1:], 1):
        gxp[:, off:] += taps[:, t, : length - off]
    return gxp


def _tap_matmul(mt, xp, kh, kw, wp, length, dtype):
    """sum over taps t of mt[t] @ xp[:, off_t:][:, :length], mt (kh*kw, rows, c): (rows, length).

    With one input channel the (kh*kw, length) patch matrix is smaller than
    the output, and one product with it replaces kh*kw broadcast
    multiply-adds: enc.conv1 at the default config, 0.36-0.46 -> 0.05-0.07 ms.
    """
    out = np.empty((mt.shape[1], length), dtype=dtype)
    if xp.shape[0] == 1:
        return np.matmul(mt[:, :, 0].T, _patches(xp, kh, kw, wp, length), out=out)
    tmp = np.empty_like(out) if kh * kw > 1 else None
    for t, off in enumerate(_tap_offsets(kh, kw, wp)):
        np.matmul(mt[t], xp[:, off : off + length], out=tmp if t else out)
        if t:
            out += tmp
    return out


def _grad_block(c, length, itemsize):
    """Columns per block of _tap_matmul_t: the fewest equal blocks whose slice
    of a c-channel grid stays within _GRAD_BLOCK_BYTES."""
    blocks = -(-c * length * itemsize // _GRAD_BLOCK_BYTES)
    return -(-length // blocks)


def _tap_matmul_t(g, xp, kh, kw, wp, length):
    """g @ _patches(xp).T, as one product per tap with a slice of xp: (rows, c*kh*kw).

    Each product's inner dimension is the whole grid. The grid's columns are
    split into blocks of _grad_block columns, and every tap runs on one
    block before the next, so the kh*kw overlapping slices of a block are
    read while they are in cache; the first block writes each tap's product
    and later blocks add to it. The 256 KiB budget is measured (float32,
    OpenBLAS on one thread, a 2-core Xeon with 2 MiB of L2 per core): one
    block runs at 45-53 GFLOP/s up to a slice of 160 KiB, and falls to
    22-35 GFLOP/s somewhere between 192 and 384 KiB depending on the shape,
    where two blocks run at 45-73. Below 160 KiB a split costs 5-25%. At
    the default config only den.up (c=40) and dec.conv2 (c=12), with slices
    of about 361 and 408 KiB, split, into two blocks each; the next largest
    slice, den.conv_in's, is 145 KiB. With one input channel the patch
    matrix is smaller than g and the result is one product with it.
    """
    c = xp.shape[0]
    if c == 1:
        return g @ _patches(xp, kh, kw, wp, length).T
    dtype = np.result_type(g, xp)
    out = np.empty((kh * kw, g.shape[0], c), dtype=dtype)
    tmp = np.empty_like(out[0])
    block = _grad_block(c, length, dtype.itemsize)
    for lo in range(0, length, block):
        hi = min(lo + block, length)
        gb = g[:, lo:hi]
        for t, off in enumerate(_tap_offsets(kh, kw, wp)):
            xs = xp[:, off + lo : off + hi].T
            if lo:
                out[t] += np.matmul(gb, xs, out=tmp)
            else:
                np.matmul(gb, xs, out=out[t])
    return out.transpose(1, 2, 0).reshape(g.shape[0], -1)


def im2col(x: Tensor, kh: int, kw: int, padding: int) -> Tensor:
    """Patch matrix of a (kh, kw) window over the zero-padded grid: (c*kh*kw, n*hp*wp).

    x is an (n, c, h, w) batch. Column (b, r, s) in (n, hp, wp) order and
    row (ci, i, j), the order of a kernel's (co, ci*kh*kw) view, hold the
    padded input at (b, ci, r+i, s+j). Only columns with r <= hp-kh and
    s <= wp-kw are windows of the input; the others hold finite values that
    fold_channels_last crops away. conv2d forms no such matrix; this op is
    the reference that tests compose it against.
    """
    n, c, h, w = _batch_shape(x.shape, "im2col")
    hp, wp = h + 2 * padding, w + 2 * padding
    if hp < kh or wp < kw:
        raise DimensionError(f"im2col: window {kh}x{kw} larger than padded input {x.shape}")
    length = n * hp * wp
    cols = _patches(_to_grid(x.data, hp, wp, padding, tail=(kh - 1) * wp + kw - 1), kh, kw, wp, length)
    return _make(
        cols, "im2col", (x,),
        (lambda g: _from_grid(_col2im(g, kh, kw, wp, length), n, hp, wp, padding, h, w),),
    )


def fold_channels_last(y: Tensor, lead_shape, out_hw) -> Tensor:
    """Grid product (co, n*hp*wp) -> (n, co, ho, wo) activations, lead (n, hp, wp),
    keeping the top-left (ho, wo) = out_hw of each grid.
    """
    if len(lead_shape) != 3:
        raise DimensionError(f"fold_channels_last: need lead (n, hp, wp), got {lead_shape}")
    n, hp, wp = lead_shape
    ho, wo = out_hw
    if y.ndim != 2 or y.shape[1] != n * hp * wp or not (0 < ho <= hp and 0 < wo <= wp):
        raise DimensionError(f"fold_channels_last: {y.shape} with grid {lead_shape} cropped to {out_hw}")
    return _make(_from_grid(y.data, n, hp, wp, 0, ho, wo), "fold", (y,), (lambda g: _to_grid(g, hp, wp, 0),))


def conv2d(x: Tensor, k: Tensor, padding: int = 0, bias=None) -> Tensor:
    """Cross-correlation with zero padding; x (n,c,h,w), k (co,ci,kh,kw).

    bias (co,), if given, is added to every output position. One tape node
    with inputs (x, k) or (x, k, bias).

    The forward puts x on the grid with _to_grid, each image at the top
    left of its (hp, wp) slot after head zeros, so that neighbouring images
    and rows share one zero border (see the module docstring), and takes
    one product per tap of the kernel (_tap_matmul). The backward puts the
    output gradient on the grid after span = (kh-1)*wp + kw-1 zeros, the
    last tap's offset. The input gradient is then the same _tap_matmul with
    the kernel's per-tap blocks in reverse tap order and transposed; on
    that grid image b's pixel (r, s) sits at row r + padding, column
    s + padding of slot b, where _from_grid reads it back. The grid of x is
    rebuilt only when k needs a gradient.
    """
    n, c, h, w, co, kh, kw, ho, wo, hp, wp = _conv_geometry(x.shape, k.shape, padding)
    if bias is not None and bias.shape != (co,):
        raise DimensionError(f"conv2d: bias {bias.shape} does not fit kernel {k.shape}; need ({co},)")
    inputs = (x, k) + ((bias,) if bias is not None else ())
    dtype = np.result_type(*(t.data for t in inputs))
    span = (kh - 1) * wp + kw - 1  # offset of the last tap
    head = padding * wp + padding  # the first image's top and left border
    tail = max(0, span - head)  # so that the last tap stays inside the grid
    geom = (kh, kw, wp, n * hp * wp)
    # the kernel as one contiguous (co, c) block per tap
    mt = np.ascontiguousarray(k.data.reshape(co, c, kh * kw).transpose(2, 0, 1))
    y = _tap_matmul(mt, _to_grid(x.data, hp, wp, 0, head, tail), *geom, dtype)
    if bias is not None:
        y += bias.data[:, None]
    out = Tensor(_from_grid(y, n, hp, wp, 0, ho, wo))
    if not _recording(inputs):
        return out

    def backward(g):
        need = [t._needs_grad() for t in inputs]
        grads = [None for _ in inputs]
        # tap t of the input gradient reads the output gradient span - off_t
        # columns back, which the leading zeros keep inside the grid
        gh = _to_grid(g, hp, wp, 0, head=span)
        gg = gh[:, span:]
        if need[0]:
            # the transposed conv of g: the forward's taps reversed and transposed
            gxp = _tap_matmul(mt[::-1].transpose(0, 2, 1), gh, *geom, np.result_type(mt, gh))
            grads[0] = _from_grid(gxp, n, hp, wp, padding, h, w)
            del gxp  # before the grid of x is built
        if need[1]:
            xp = _to_grid(x.data, hp, wp, 0, head, tail)
            grads[1] = _tap_matmul_t(gg, xp, *geom).reshape(k.shape)
        if bias is not None and need[2]:
            grads[2] = gg.sum(axis=1)
        return tuple(grads)

    out.node = TapeNode("conv2d", inputs, backward)
    return out


def _quarter_sum(a):
    """Sum of each 2x2 spatial block, as three adds of strided quarter views.

    A reduction over the split axes of a (..., h/2, 2, w/2, 2) view would
    walk non-adjacent axes, about ten times slower here.
    """
    out = a[..., 0::2, 0::2] + a[..., 0::2, 1::2]
    out += a[..., 1::2, 0::2]
    out += a[..., 1::2, 1::2]
    return out


def avg_pool2(x: Tensor) -> Tensor:
    """2x2 average pooling; spatial dims must be even."""
    _, _, h, w = _batch_shape(x.shape, "avg_pool2")
    if h % 2 or w % 2:
        raise DimensionError(f"avg_pool2: odd spatial dims {x.shape}")
    out = _quarter_sum(x.data)
    out *= 0.25

    def backward(g):
        return np.repeat(np.repeat(g, 2, axis=-1), 2, axis=-2) * 0.25

    return _make(out, "avg_pool2", (x,), (backward,))


def upsample2(x: Tensor) -> Tensor:
    """Nearest-neighbour 2x upsampling of the spatial dims."""
    _batch_shape(x.shape, "upsample2")
    out = np.repeat(np.repeat(x.data, 2, axis=-1), 2, axis=-2)
    return _make(out, "upsample2", (x,), (_quarter_sum,))


# ---------------------------------------------------------------------------
# backward pass


def backward(loss: Tensor):
    """Populate .grad for every requires_grad tensor reachable from a scalar loss."""
    if loss.data.shape != ():
        raise ContractViolation(f"backward needs a scalar loss, got shape {loss.shape}")

    # iterative postorder: children fully processed before their consumers
    order = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        t, expanded = stack.pop()
        if expanded:
            order.append(t)
            continue
        if id(t) in visited:
            continue
        visited.add(id(t))
        stack.append((t, True))
        if t.node is not None:
            for inp in t.node.inputs:
                if inp._needs_grad() and id(inp) not in visited:
                    stack.append((inp, False))

    grads = {id(loss): np.ones_like(loss.data)}
    for t in reversed(order):
        g = grads.pop(id(t), None)
        if g is None:
            continue
        if t.requires_grad:
            if t.grad is None:
                t.grad = np.zeros_like(t.data)
            t.grad += g
        if t.node is not None:
            for inp, gi in zip(t.node.inputs, t.node.backward(g)):
                if gi is None or not inp._needs_grad():
                    continue
                key = id(inp)
                if key in grads:
                    grads[key] = grads[key] + gi
                else:
                    grads[key] = gi

