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
every tensor that was created with ``requires_grad=True``. The walk
consumes the tape: each recorded tensor's node is released before its
backward runs, so the arrays a node saved are freed as soon as its
gradients are out, not when the caller drops the loss (autograd engines do
the same, Paszke et al., arXiv 1912.01703). A released tensor keeps its
data, but a backward that reaches it, a second pass from one loss or a new
graph built on it, raises ``ContractViolation`` before any ``.grad``
changes. Leaves keep no node and are never released.

A node's backward closure takes the output gradient and returns one entry
per input. An input that needs no gradient (``not inp._needs_grad()``: not
``requires_grad`` and not produced by a recorded op) gets ``None``, and its
gradient is never computed, so a frozen weight costs no gradient product.
Where such an input shares a product with one that needs a gradient (conv2d's
x and x2 on one grid), only the wanted rows of the product are formed.

What a node keeps until backward is its inputs, which stay tensors because
the benchmark's tracer reads ``node.inputs``, and what its closure cannot
cheaply form again from them. An intermediate that one elementwise pass
over an input rebuilds is formed again in backward instead of being kept,
the activation-recomputation trade of Chen et al. (arXiv 1604.06174): silu
forms its logistic again from x, with the same bits, and mse its difference
a - b. At the default config (batch 8) that keeps 1.19 MiB of logistics and
0.09 MiB of differences off a base training step's tape, which holds
3.83 MB at backward start (tracemalloc), for one more pass over each silu
input in backward. A conv keeps no grid of its input (see below).

Shapes are explicit. There is no general broadcasting: mixed-shape
combinations exist only as named ops (``channel_bias``, ``row_scale`` and
``broadcast_spatial``) with hand-written backward rules. Every spatial op
(convolution, pooling, resampling, channel concatenation and bias) takes a
batch ``(n, c, h, w)`` only, and a 3-D input raises ``DimensionError``; a
single item is a batch of one.

Convolution is one tape node, and one function builds it for both public
ops: ``conv2d(x, k, bias, x2=None)``, and ``upsample_conv2d(x, k, bias,
skip=None)``, which is conv2d(upsample2(x), k, bias), the decoder's
resize-convolution (Odena et al., Distill 2016), without the upsampled
copy. Its inputs are (x, k, bias), or (x, k, bias, x2) with a second input
(see below). The kernel is square with an odd side s, and the input is
zero-padded by p = s // 2 on every side, so the output keeps the
(upsampled) input's size ("same" padding, Dumoulin & Visin, arXiv
1603.07285). A low-rank adapter reaches the node only through its kernel
(``network.adapted_weight``).

The node works on one channel-major grid of x: ``_to_grid`` copies an
(n, c, h, w) batch into zeros of shape (c, head + n*hp*wp + head), each
image at the top left of a slot of its own (hp, wp) = (h + p, w + p), and
its adjoint ``_from_grid`` reads each image's (h, w) back out. On the
flattened grid the p zero rows and columns after an image are also the
bottom border of that image and the top border of the next, and the right
border of one row and the left border of the next, so neighbours share a
single border. The head = p*wp + p zeros before the first slot give the
first image its top and left border. A tap at grid offset o, (i, j) of the
kernel at i*wp + j, then reads one contiguous slice, and the head zeros
after the last slot keep the last tap, at 2*head, inside the grid.

After a nearest upsample by up, 1 or 2, output row up*r + a reads input
row r + (a + i - p) // up under kernel row i, and likewise for columns. So
each output phase (a, b), the pixels (up*r + a, up*q + b), is a conv of x
on x's own grid, whose border of p is enough, with ceil(s / up) taps a side
(``_phase_offsets``). A phase tap's (co, c) block is the sum of the kernel
taps that land on it (``_phase_map``). This is sub-pixel convolution (Shi
et al., arXiv 1609.05158) read backwards. At up = 1 there is one phase,
whose taps are the kernel's own: that is conv2d. At up = 2 a 3x3 kernel
gives 4 taps per phase, 16 products on x's grid against 9 on the upsampled
grid, which is 4x larger: 2.25x fewer multiply-adds. The forward takes one
product per phase tap, its block times its slice, summed into a
``(co, n*hp*wp)`` grid per phase (``_tap_matmul``), adds the bias, and
writes each phase's crop into out[:, :, a::up, b::up].

The input gradient is the sum of the phases' transposed convolutions, each
a direct convolution with the flipped blocks over the zero-extended output
gradient. So the backward puts the output gradient's up*up phases on one
grid of x's layout, phase after phase as a batch of up*up*n, and runs
``_tap_matmul`` once over every block in reverse order and transposed, each
at its mirrored offset into its phase's part of that grid. The kernel
gradient is one product per phase tap, the phase's gradient grid times the
tap's slice of x's grid, with the whole grid as inner dimension
(``_tap_matmul_t``); at up = 2 one product with the 0/1 phase map folds it
back onto the kernel's taps. Grid positions outside the crop get zero
gradient, and the bias gradient is the gradient grid's slots summed. No
patch matrix is formed anywhere in the node, except with a single channel
on the product's input side: there the ``(taps, n*hp*wp)`` patch matrix is
smaller than the output, and one product with it replaces one product of
inner dimension 1 per tap; for a 1x1 kernel a broadcast multiply replaces
that one product. ``im2col`` and ``fold_channels_last`` record the patch
matrix of conv2d's grid and its crop as tape ops of their own: tests
compose them with ``channel_bias``, which takes one bias row per item (the
conv bias tiled over the batch), as the reference for the node, and the
benchmark's tracer looks them up by name. This module is the only one that
knows the layout.

A second input, whose channels follow x's in the kernel, joins the node by
its shape. At x's resolution, conv2d's x2 (n, c2, h, w) is written onto x's
grid below x's rows, which is exactly the grid of their concat, so the node
gives conv2d(concat_channels(x, x2), k, bias) bit for bit without forming
the concat, and the backward splits the rows of the input gradient's grid
between the two. At the output's resolution, when that differs from x's,
upsample_conv2d's skip (n, cs, 2h, 2w), the U-Net's skip connection at the
denoiser's den.up, is conv2d(concat_channels(upsample2(x), skip), k, bias).
The concat splits the kernel by input channel, so the node runs the same
code at up = 1 for the skip, with k[:, c:] on the skip's own grid, and adds
its crop to the phases. Neither the upsampled copy nor the concat is
formed. At the default config (batch 8) that takes den.up from 9 products
of (16, 40) @ (40, 2312) to 16 of (16, 24) @ (24, 648) and 9 of
(16, 16) @ (16, 2312): 13.3M -> 9.3M multiply-adds per pass, less than the
2.25x of the phases because the 8x8 grid's border is 27% of its columns.
The bias is (co,). Per-item conditioning, one vector per item, reaches a
conv through ``broadcast_spatial`` (as an x2) or ``channel_bias`` (after
the conv), each a node of its own.

Importing this module fixes glibc's heap thresholds (``_keep_heap_mapped``).
With no patch matrix, every temporary of a training step is below about
0.5 MB, and glibc's self-adjusting thresholds then return the memory a step
frees to the OS, which the next step faults back in: about 1250-2000 minor
page faults per step, against under one with the thresholds fixed. The
values are constants, not settings.
"""

import ctypes
import functools
import math
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
    """x * logistic(x). The node keeps only its input: the forward multiplies x
    into the logistic's buffer in place, and the backward forms the logistic
    again from x, the same bits, rather than keeping it (see the module
    docstring)."""
    out = _logistic(a.data)
    out *= a.data

    def backward(g):  # g * s * (1 + x * (1 - s))
        s = _logistic(a.data)
        d = 1.0 - s
        d *= a.data
        d += 1.0
        d *= s
        d *= g
        return d

    return _make(out, "silu", (a,), (backward,))


# ---------------------------------------------------------------------------
# reductions and losses


def tsum(a: Tensor) -> Tensor:
    return _make(np.sum(a.data), "tsum", (a,), (lambda g: np.full_like(a.data, float(g)),))


def tmean(a: Tensor) -> Tensor:
    n = a.data.size
    return _make(np.mean(a.data), "tmean", (a,), (lambda g: np.full_like(a.data, float(g) / n),))


def mse(a: Tensor, b: Tensor) -> Tensor:
    """Mean of (a - b)^2. The node keeps no difference: the backward forms
    a - b again from its inputs."""
    _same_shape(a, b, "mse")
    diff = a.data - b.data
    n = diff.size
    return _make(
        np.mean(diff * diff), "mse", (a, b),
        (lambda g: 2.0 * float(g) / n * (a.data - b.data), lambda g: -2.0 * float(g) / n * (a.data - b.data)),
    )


def frobenius_norm_sq(*tensors: Tensor) -> Tensor:
    """Sum of the squared entries of every tensor given, as one node: the
    per-tensor sums are added left to right, and tensor t's gradient is
    2 * g * t."""
    if not tensors:
        raise ContractViolation("frobenius_norm_sq needs at least one tensor")
    total = np.sum(tensors[0].data * tensors[0].data)
    for t in tensors[1:]:
        total = total + np.sum(t.data * t.data)
    return _make(total, "frobenius_norm_sq", tensors, [lambda g, t=t: 2.0 * float(g) * t.data for t in tensors])


# ---------------------------------------------------------------------------
# shape ops


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if any(s < 0 for s in shape):
        raise DimensionError(f"reshape: {a.shape} -> {shape} has a negative dimension")
    if math.prod(shape) != a.data.size:
        raise DimensionError(f"reshape: {a.shape} -> {shape} changes element count")
    try:
        data = a.data.reshape(shape)
    except ValueError as e:  # numpy refuses a zero-size shape whose other dims overflow its index type
        raise DimensionError(f"reshape: {a.shape} -> {shape}: {e}") from None
    return _make(data, "reshape", (a,), (lambda g: g.reshape(a.shape),))


def concat_channels(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate two (n, c, h, w) batches along the channel axis."""
    _batch_shape(a.shape, "concat_channels")
    _batch_shape(b.shape, "concat_channels")
    if a.shape[0] != b.shape[0] or a.shape[2:] != b.shape[2:]:
        raise DimensionError(f"concat_channels: shape {a.shape} vs {b.shape}")
    ca = a.shape[1]
    return _make(
        np.concatenate([a.data, b.data], axis=1), "concat_channels", (a, b),
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

    return _make(table.data[ids].copy(), "embedding_lookup", (table,), (backward,))


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


def _conv_grid(x_shape, k_shape, op):
    """conv2d's grid of an (n, c, h, w) batch under a kernel of trailing dims
    k_shape[-2:], which must be square with an odd side k: (n, c, h, w, k,
    hp, wp, head). Each image's slot is the image followed by p = k // 2
    zero rows and columns, and head = p*wp + p zeros give the first image
    its top and left border (see the module docstring). An empty batch
    (n = 0) raises DimensionError."""
    kh, kw = k_shape[-2:]
    if kh != kw or kh % 2 == 0:
        raise ParameterError(f"{op}: kernel must be square with an odd side, got {tuple(k_shape)}")
    n, c, h, w = _batch_shape(x_shape, op)
    if n == 0:
        raise DimensionError(f"{op}: need at least one image in the batch, got shape {tuple(x_shape)}")
    p = kh // 2
    hp, wp = h + p, w + p
    return n, c, h, w, kh, hp, wp, p * wp + p


def _to_grid(a, hp, wp, head=0, a2=None, up=1):
    """(n, c, h, w) batch -> zeroed channel-major grid (c, head + n*hp*wp + head).

    Image b fills the top-left (h, w) of the b-th (hp, wp) slot, which
    starts at column head + b*hp*wp; everything else is zero. With a2, an
    (n, c2, h, w) batch, the grid has a's c rows and then a2's c2: it is the
    grid of their channel concat. With up, a is (n, c, up*h, up*w), and its
    up*up phases a[:, :, i::up, j::up], phase up*i + j first, fill the slots
    as one batch of up*up*n images (h, w). A batch that fills its slots,
    with no head and no a2, is only swapped to (c, n) order, which is a view
    when n = 1 and up = 1.
    """
    n, c, h, w = a.shape
    h, w = h // up, w // up
    phases = a.reshape(n, c, h, up, w, up).transpose(1, 3, 5, 0, 2, 4)
    if (h, w) == (hp, wp) and not head and a2 is None:
        return np.ascontiguousarray(phases).reshape(c, -1)
    parts = (a,) if a2 is None else (a, a2)
    length = up * up * n * hp * wp
    grid = np.zeros((sum(p.shape[1] for p in parts), length + 2 * head), dtype=np.result_type(*parts))
    slots = grid[:, head : head + length].reshape(-1, up, up, n, hp, wp)
    slots[:c, ..., :h, :w] = phases
    if a2 is not None:
        slots[c:, 0, 0, :, :h, :w] = a2.transpose(1, 0, 2, 3)
    return grid


def _from_grid(grid, n, hp, wp, h, w):
    """Adjoint of _to_grid without head: (c, n*hp*wp) -> (n, c, h, w), the
    top-left (h, w) of each image's slot."""
    c = grid.shape[0]
    v = grid.reshape(c, n, hp, wp)[:, :, :h, :w]
    return np.ascontiguousarray(v.transpose(1, 0, 2, 3))


def _tap_offsets(k, wp):
    """Offset of tap (i, j) of a k x k kernel into a flattened grid of width wp, in (i, j) order."""
    return [i * wp + j for i in range(k) for j in range(k)]


def _patches(xp, offsets, length):
    """(c*t, length) patch matrix of a grid for t tap offsets: row (ci, t) is xp[ci, off_t:][:length]."""
    c = xp.shape[0]
    cols = np.empty((c, len(offsets), length), dtype=xp.dtype)
    for t, off in enumerate(offsets):
        cols[:, t] = xp[:, off : off + length]
    return cols.reshape(c * len(offsets), length)


def _col2im(gcols, offsets, length):
    """Adjoint of _patches onto the whole grid, up to the last tap's slice: (c, length + off_last)."""
    taps = gcols.reshape(-1, len(offsets), length)
    gxp = np.zeros((taps.shape[0], length + offsets[-1]), dtype=gcols.dtype)
    for t, off in enumerate(offsets):
        gxp[:, off : off + length] += taps[:, t]
    return gxp


def _tap_matmul(mt, xp, offsets, length, dtype):
    """sum over taps t of mt[t] @ xp[:, offsets[t]:][:, :length], mt (taps, rows, c): (rows, length).

    Each tap is a (rows, c) block and the grid slice at its offset, so the
    same loop serves the conv node's forward, one call per output phase
    (_phase_offsets; at up = 1 the kernel's own taps), and its input
    gradient (every phase's blocks transposed, at mirrored offsets into the
    output gradient's grid).
    With one input channel the (taps, length) patch matrix is smaller than
    the output, and one product with it replaces one broadcast
    multiply-add per tap: enc.conv1 at the default config, 0.36-0.46 ->
    0.05-0.07 ms. With one channel and one tap the product has inner
    dimension 1, and a broadcast multiply gives the same values in a tenth
    of the time: dec.out's input gradient at the default config, 300 ->
    17 us.
    """
    out = np.empty((mt.shape[1], length), dtype=dtype)
    if xp.shape[0] == 1:
        if len(offsets) == 1:
            return np.multiply(mt[0], xp[:, offsets[0] : offsets[0] + length], out=out)
        return np.matmul(mt[:, :, 0].T, _patches(xp, offsets, length), out=out)
    tmp = np.empty_like(out) if len(offsets) > 1 else None
    for t, off in enumerate(offsets):
        np.matmul(mt[t], xp[:, off : off + length], out=tmp if t else out)
        if t:
            out += tmp
    return out


def _tap_matmul_t(g, xp, offsets, length):
    """g @ _patches(xp, offsets).T, as one product per tap with a slice of xp: (rows, c*taps).

    The weight gradient of the taps of _tap_matmul, with columns in (c, tap)
    order. Each product's inner dimension is the whole grid. With one input
    channel the patch matrix is smaller than g, and one product with it
    replaces one product of inner dimension 1 per tap: enc.conv1 at the
    default config, 62-74 -> 44 us. Items of 64 px, one of
    dataset.VALID_SIZES, give 3x3 grids four times the default's, where
    these products were not timed, because no workload runs them.
    """
    c = xp.shape[0]
    if c == 1:
        return g @ _patches(xp, offsets, length).T
    out = np.empty((len(offsets), g.shape[0], c), dtype=np.result_type(g, xp))
    for t, off in enumerate(offsets):
        np.matmul(g, xp[:, off : off + length].T, out=out[t])
    return out.transpose(1, 2, 0).reshape(g.shape[0], -1)


def im2col(x: Tensor, k: int) -> Tensor:
    """Patch matrix of a k x k window over conv2d's grid of x: (c*k*k, n*hp*wp).

    x is an (n, c, h, w) batch and k is odd, with p = k // 2. Column
    (b, r, s) in (n, hp, wp) order and row (ci, i, j), the order of a
    kernel's (co, ci*k*k) view, hold x at (b, ci, r+i-p, s+j-p), or zero
    outside the image. Only columns with r < h and s < w are windows centred
    on a pixel; the others hold finite values that fold_channels_last crops
    away. conv2d forms no such matrix; this op is the reference that tests
    compose it against.
    """
    n, c, h, w, k, hp, wp, head = _conv_grid(x.shape, (k, k), "im2col")
    length = n * hp * wp
    offsets = _tap_offsets(k, wp)
    cols = _patches(_to_grid(x.data, hp, wp, head), offsets, length)
    return _make(
        cols, "im2col", (x,),
        (lambda g: _from_grid(_col2im(g, offsets, length)[:, head : head + length], n, hp, wp, h, w),),
    )


def fold_channels_last(y: Tensor, x_shape, k: int) -> Tensor:
    """Grid product (co, n*hp*wp) -> (n, co, h, w) activations: the crop of
    conv2d's grid of an (n, c, h, w) = x_shape batch under a k x k kernel."""
    n, _, h, w, k, hp, wp, _ = _conv_grid(x_shape, (k, k), "fold_channels_last")
    if y.ndim != 2 or y.shape[1] != n * hp * wp:
        raise DimensionError(f"fold_channels_last: {y.shape} is not the grid of {tuple(x_shape)} under {k}x{k}")
    return _make(_from_grid(y.data, n, hp, wp, h, w), "fold_channels_last", (y,), (lambda g: _to_grid(g, hp, wp),))


def _checked_grid(x, k, bias, op, x2=None, up=1):
    """The checks of a conv node's (x, k, bias, x2), raised as op; x's _conv_grid under k.

    x2 is a second input whose channels follow x's in the kernel, which then
    takes c + c2 input channels. For x (n, c, h, w) it is a batch
    (n, c2, up*h, up*w): conv2d's x2 (up 1) or upsample_conv2d's skip (up 2).
    The bias is (co,). The messages are formed only when a check fails.
    """
    if k.ndim != 4:
        raise DimensionError(f"{op}: kernel must be 4-D, got {k.shape}")
    grid = _conv_grid(x.shape, k.shape, op)
    n, c, h, w = grid[:4]
    co, ci = k.shape[:2]
    name = "x2" if up == 1 else "skip"
    if x2 is not None:
        if x2.ndim != 4 or x2.shape[0] != n or x2.shape[2:] != (up * h, up * w):
            raise DimensionError(f"{op}: {name} {x2.shape} is not a batch ({n}, c2, {up * h}, {up * w})"
                                 f" for x {x.shape}")
        c += x2.shape[1]
    if c != ci:
        shapes = f"{x.shape} with {k.shape}" if x2 is None else f"{x.shape} and {name} {x2.shape} with {k.shape}"
        raise DimensionError(f"{op}: input channels {c} vs kernel {ci} ({shapes})")
    if bias.shape != (co,):
        raise DimensionError(f"{op}: bias {bias.shape} does not fit kernel {k.shape}; need ({co},)")
    return grid


@functools.lru_cache(maxsize=None)
def _phase_offsets(s, up, wp):
    """Tap offsets of each output phase of an s x s kernel after an up x up
    nearest upsample, into the input's grid of width wp: a tuple per phase,
    phase up*a + b first, taps in (m, n) order. Under kernel row i, output
    row up*r + a reads the grid row (a + i - p) // up + p below row r's own,
    p = s // 2, so phase a's ceil(s / up) tap rows start at
    lead = (a - p) // up + p; columns alike. At up = 1 the one phase's taps
    are the kernel's own, at i*wp + j. Cached per (s, up, wp).
    """
    p = s // 2
    lead = [(a - p) // up + p for a in range(up)]
    taps = _tap_offsets(-(-s // up), wp)
    return tuple(tuple(o + la * wp + lb for o in taps) for la in lead for lb in lead)


@functools.lru_cache(maxsize=None)
def _phase_map(s, dtype):
    """The 0/1 map (4*P*P, s*s), P = s // 2 + 1, from an s x s kernel's taps
    to the phase taps of a 2x upsample (_phase_offsets): row (a, b, m, n),
    phase 2a + b first, sums the kernel taps (i, j) that land on phase tap
    (m, n). The map is cached, so it is read-only.
    """
    p = s // 2
    i = np.arange(s)
    rows = np.zeros((2, p + 1, s), dtype=dtype)
    for a in (0, 1):
        rows[a, (a + i - p) // 2 - (a - p) // 2, i] = 1
    pmap = np.einsum("ami,bnj->abmnij", rows, rows).reshape(4 * (p + 1) ** 2, s * s)
    pmap.flags.writeable = False
    return pmap


def _phase_conv(y, a, a2, k, up, grid, bias=None):
    """Run the conv of a (and of a2, on a's grid below a's rows) after an
    up x up upsample, under the (co, c, s, s) kernel k on grid = _conv_grid
    of a, into y (n, co, up*h, up*w); return its phase blocks
    (up*up, taps, co, c) for the backward.

    At up = 1 the blocks are the kernel's own taps, with no product. With a
    bias, the bias is added and each phase's crop written into
    y[:, :, a::up, b::up]; without one, the crops are added to what y
    holds, which is how the node's second grid joins the first.
    """
    n, _, h, w, s, hp, wp, head = grid
    co, c = k.shape[:2]
    if up == 1:
        mt = np.ascontiguousarray(k.reshape(co, c, 1, s * s).transpose(2, 3, 0, 1))
    else:
        mt = np.ascontiguousarray((k.reshape(co * c, s * s) @ _phase_map(s, k.dtype).T).T).reshape(up * up, -1, co, c)
    xp = _to_grid(a, hp, wp, head, a2)
    for ph, offsets in enumerate(_phase_offsets(s, up, wp)):
        yp = _tap_matmul(mt[ph], xp, offsets, n * hp * wp, y.dtype)
        out = y[:, :, ph // up :: up, ph % up :: up]
        if bias is None:
            out += yp.reshape(co, n, hp, wp)[:, :, :h, :w].transpose(1, 0, 2, 3)
        else:
            yp += bias[:, None]
            out[...] = yp.reshape(co, n, hp, wp)[:, :, :h, :w].transpose(1, 0, 2, 3)
    return mt


def _phase_conv_grads(g, a, a2, mt, up, grid, need):
    """The gradients of a _phase_conv that ran the blocks mt on grid, for the
    output gradient g: (ga, gk, gb, ga2) for (a, k, bias, a2), each None
    unless need, four flags in that order, asks for it.

    The input gradient's one product sums every block in reverse order,
    each at its mirrored offset 2*head - off into its phase's part of g's
    grid, which at up = 1 is ascending offset. It runs over the input
    channels of the batches that need a gradient only, so a frozen batch's
    rows are not computed. The grid of a is rebuilt only for gk, and gb sums
    only the slots of g's grid, not its head.
    """
    n, c, h, w, s, hp, wp, head = grid
    co, ci, length, phases = mt.shape[2], mt.shape[3], n * hp * wp, _phase_offsets(s, up, wp)
    gh = _to_grid(g, hp, wp, head, up=up)
    ga = gk = gb = ga2 = None
    if need[0] or need[3]:
        lo, hi = 0 if need[0] else c, ci if need[3] else c
        offsets = [ph * length + 2 * head - o for ph, offs in enumerate(phases) for o in offs][::-1]
        blocks = mt.reshape(-1, co, ci)[::-1, :, lo:hi].transpose(0, 2, 1)
        gap = _tap_matmul(blocks, gh, offsets, length, np.result_type(mt, gh))
        if need[0]:
            ga = _from_grid(gap[:c], n, hp, wp, h, w)
        if need[3]:
            ga2 = _from_grid(gap[c - lo :], n, hp, wp, h, w)
        del gap  # before the grid of a is built
    if need[1]:
        xp = _to_grid(a, hp, wp, head, a2)
        gks = [_tap_matmul_t(gh[:, head + ph * length :][:, :length], xp, offs, length)
               for ph, offs in enumerate(phases)]
        if up == 1:
            gk = gks[0]
        else:  # (phase, co, ci, tap) -> (co, ci, phase, tap), folded onto the kernel's taps
            gk = np.stack(gks).reshape(up * up, co, ci, -1).transpose(1, 2, 0, 3).reshape(co * ci, -1)
            gk = gk @ _phase_map(s, mt.dtype)
        gk = gk.reshape(co, ci, s, s)
    if need[2]:
        gb = gh[:, head : head + up * up * length].sum(axis=1)
    return ga, gk, gb, ga2


def _conv(x, k, bias, x2, up, op):
    """The conv node of conv2d (up 1) and upsample_conv2d (up 2), recorded as
    op, with inputs (x, k, bias) or (x, k, bias, x2); see the module docstring.

    x2 at x's resolution joins x's grid. At the output's resolution, when
    that differs from x's, it is a second grid of the node, a conv at up = 1
    of its own with the kernel's channels after x's.
    """
    grid = _checked_grid(x, k, bias, op, x2, up)
    n, c, h, w = grid[:4]
    inputs = (x, k, bias) if x2 is None else (x, k, bias, x2)
    y = np.empty((n, k.shape[0], up * h, up * w), dtype=np.result_type(*(t.data for t in inputs)))
    skip = None if x2 is None or x2.shape[2:] == x.shape[2:] else x2
    a2 = None if x2 is None or skip is not None else x2.data
    mt = _phase_conv(y, x.data, a2, k.data if skip is None else k.data[:, :c], up, grid, bias.data)
    if skip is not None:
        skip_grid = _conv_grid(skip.shape, k.shape, op)
        ms = _phase_conv(y, skip.data, None, k.data[:, c:], 1, skip_grid)
    out = Tensor(y)
    if not _recording(inputs):
        return out

    def backward(g):
        need = [t._needs_grad() for t in inputs] + [False]
        gx, gk, gb, g2 = _phase_conv_grads(g, x.data, a2, mt, up, grid, (*need[:3], a2 is not None and need[3]))
        if skip is not None and (need[1] or need[3]):
            g2, gks, _, _ = _phase_conv_grads(g, skip.data, None, ms, 1, skip_grid, (need[3], need[1], False, False))
            gk = None if gks is None else np.concatenate([gk, gks], axis=1)
        return (gx, gk, gb, g2)[: len(inputs)]

    out.node = TapeNode(op, inputs, backward)
    return out


def conv2d(x: Tensor, k: Tensor, bias: Tensor, x2: Tensor = None) -> Tensor:
    """Same-padded cross-correlation plus a bias: x (n, c, h, w), k (co, c, s, s)
    with s odd, bias (co,) -> (n, co, h, w). One tape node with inputs
    (x, k, bias), or (x, k, bias, x2).

    x2 is a second batch (n, c2, h, w) whose channels follow x's in the
    kernel, which is then (co, c + c2, s, s). The node is
    conv2d(concat_channels(x, x2), k, bias): both go on one grid, which is
    the grid of the concat, and the backward splits the rows of the input
    gradient's grid between them. The concat is not formed. This is the
    conv node at up = 1, one phase whose taps are the kernel's own (see the
    module docstring).
    """
    return _conv(x, k, bias, x2, 1, "conv2d")


def upsample_conv2d(x: Tensor, k: Tensor, bias: Tensor, skip: Tensor = None) -> Tensor:
    """conv2d(upsample2(x), k, bias), with the same checks: x (n, c, h, w),
    k (co, c, s, s) with s odd, bias (co,) -> (n, co, 2h, 2w). With a skip
    (n, cs, 2h, 2w), the U-Net's skip connection, it is
    conv2d(concat_channels(upsample2(x), skip), k, bias) and k is
    (co, c + cs, s, s), x's channels first. One tape node with inputs
    (x, k, bias), or (x, k, bias, skip), which forms neither the upsampled
    copy nor the concat: the conv node at up = 2, whose four output phases
    are convs on x's own grid, with the skip a conv at up = 1 on its own
    grid (see the module docstring).
    """
    return _conv(x, k, bias, skip, 2, "upsample_conv2d")


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


def _refuse_released(g):
    raise ContractViolation("backward through a released tape node")


# the node of every tensor whose own node a backward pass has consumed
_RELEASED = TapeNode("released", (), _refuse_released)


def backward(loss: Tensor):
    """Populate .grad for every requires_grad tensor reachable from a scalar loss,
    and release the tape on the way.

    Each recorded tensor's node is replaced by the shared _RELEASED node
    before its backward runs, and the walk holds no tensor it has passed,
    so a node's inputs, saved arrays and any intermediate only it held are
    freed before the next node allocates its gradients. Tensors keep their
    .data. A pass that reaches a released tensor, the second backward of one
    loss or a new graph built on a released tensor, raises
    ContractViolation before any .grad changes.
    """
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
        if t.node is _RELEASED:
            raise ContractViolation(f"backward reached a {t!r} whose tape an earlier backward released")
        visited.add(id(t))
        stack.append((t, True))
        if t.node is not None:
            for inp in t.node.inputs:
                if inp._needs_grad() and id(inp) not in visited:
                    stack.append((inp, False))

    grads = {id(loss): np.ones_like(loss.data)}
    while order:
        # rebinding t, node and g drops the previous tensor and node before this one allocates
        t = order.pop()
        node, g = t.node, grads.pop(id(t), None)
        if node is not None:
            t.node = _RELEASED
        if g is None:
            continue
        if t.requires_grad:
            if t.grad is None:
                t.grad = np.zeros_like(t.data)
            t.grad += g
        if node is not None:
            _push_grads(grads, node, g)


def _push_grads(grads, node, g):
    """Add node's input gradients for output gradient g into grads, keyed by input id.

    A function of its own so that its loop variables, which hold an input
    and its gradient, are dropped when it returns rather than when the walk
    next rebinds them."""
    for inp, gi in zip(node.inputs, node.backward(g)):
        if gi is None:
            continue
        key = id(inp)
        if key in grads:
            grads[key] = grads[key] + gi
        else:
            grads[key] = gi
