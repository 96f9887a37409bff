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
3.58 MB at backward start (tracemalloc), for one more pass over each silu
input in backward. A conv keeps no grid of its input (see below).

Shapes are explicit. There is no general broadcasting: mixed-shape
combinations exist only as named ops (``channel_bias``, ``row_scale``,
``broadcast_spatial``, and ``conv2d``'s per-item inputs below) with
hand-written backward rules. Every spatial op (convolution, pooling,
resampling, channel concatenation and bias) takes a batch ``(n, c, h, w)``
only, and a 3-D input raises ``DimensionError``; a single item is a batch
of one.

Convolution is one tape node per call, with inputs (x, k, bias), or (x, k,
bias, x2) with a second input (see below). The kernel is square with an odd
side k, and the input is zero-padded by p = k // 2 on every side, so the
output keeps the input's (h, w) ("same" padding, Dumoulin & Visin, arXiv
1603.07285). It works on one channel-major grid:
``_to_grid`` copies an (n, c, h, w) batch into zeros of shape (c, head +
n*hp*wp + head), each image at the top left of a slot of its own (hp, wp) =
(h + p, w + p), and its adjoint ``_from_grid`` reads each image's (h, w)
back out. On the flattened grid the p zero rows and columns after an image
are also the bottom border of that image and the top border of the next,
and the right border of one row and the left border of the next, so
neighbours share a single border. The head = p*wp + p zeros before the
first slot give the first image its top and left border. Kernel tap (i, j)
then reads one contiguous slice at offset i*wp + j, and the head zeros
after the last slot keep the last tap, at 2*head, inside the grid. The
forward takes one product per tap, the tap's (co, c) block of the kernel
times the tap's slice, summed into a ``(co, n*hp*wp)`` grid
(``_tap_matmul``). It then adds the bias and reads each image's (h, w) out.
A low-rank adapter reaches the node only through its kernel
(``network.adapted_weight``). The input gradient is the transposed
convolution, which is a direct convolution with the flipped kernel over the
zero-extended output gradient. So the backward puts the output gradient on
the same grid, and runs ``_tap_matmul`` with the per-tap blocks in reverse
order and transposed. The kernel gradient is one product per tap too, the
output gradient's grid times the tap's slice of the input's grid, with the
whole grid as inner dimension. No patch matrix is formed anywhere in the
node, except with a single channel on the product's input side: there the
``(k*k, n*hp*wp)`` patch matrix is smaller than the output, and one
product with it replaces k*k products of inner dimension 1; for a 1x1
kernel a broadcast multiply replaces that one product. Grid positions
outside the crop get zero gradient, and the bias gradient is the grid
gradient summed over batch and space. ``im2col`` and
``fold_channels_last`` record the patch matrix of that grid and its crop
as tape ops of their own: tests compose them with ``channel_bias``, which
takes one bias row per item (the conv bias tiled over the batch), as the
reference for the node, and the benchmark's tracer looks them up by name.
This module is the only one that knows the layout.

A conv2d node takes conditioning as inputs of its own, so none of it is
copied onto the tape. The second input x2 has its channels after x's in the
kernel. A batch x2 (n, c2, h, w) is written onto x's grid below x's rows,
which is exactly the grid of their concat, so the node gives
conv2d(concat_channels(x, x2), k, bias) bit for bit, and the backward
splits the rows of the input gradient's grid between the two. A per-item
vector x2 (n, c2) stands for its constant map over space. Under a 1x1
kernel that map adds k[:, c:] @ x2[i] at every pixel of item i, a per-item
constant like a bias. A wider same-padded kernel would not give a constant
at the border, so it is refused. The bias is (co,), or one row per item,
(n, co), which is how FiLM conditioning (Perez et al., arXiv 1709.07871)
shifts each channel. The gradients of these constants are per-item sums of
the output gradient. ``upsample_conv2d`` takes neither per-item form.

A nearest 2x upsample followed by a conv, the decoder's resize-convolution
(Odena et al., Distill 2016), is one node too (``upsample_conv2d``), which
works on the low-resolution grid and never forms the upsampled copy. Under
kernel row i, output row 2r + a reads low-resolution row
r + (a + i - p) // 2, and likewise for columns, so each output phase
(a, b), the pixels (2r + a, 2q + b), is a conv of x with (p + 1)^2 taps on
x's own grid, whose border of p is enough. This is sub-pixel convolution
(Shi et al., arXiv 1609.05158) read backwards. A phase tap's (co, c) block
is the sum of the kernel taps that land on it. For a 3x3 kernel that is 4
taps per phase, 16 products on the low-resolution grid against 9 on the
upsampled grid, which is 4x larger: 2.25x fewer multiply-adds. The phases
run through the same tap loops as conv2d, and strided writes
(out[:, :, a::2, b::2]) interleave them into the output.

The same node takes a U-Net's skip connection as an optional input, the
denoiser's den.up: conv2d(concat_channels(upsample2(x), skip), k, bias).
The concat splits the kernel by input channel, so the node is the phase
convs of x with k[:, :c] plus a conv2d of the skip with k[:, c:] on the
skip's own grid, whose crop is added to the interleaved phases in one
strided pass. Neither the upsampled copy nor the concat is formed. At the
default config (batch 8) that takes den.up from 9 products of
(16, 40) @ (40, 2312) to 16 of (16, 24) @ (24, 648) and 9 of
(16, 16) @ (16, 2312): 13.3M -> 9.3M multiply-adds per pass, less than the
2.25x of the phases because the 8x8 grid's border is 27% of its columns.

Importing this module fixes glibc's heap thresholds (``_keep_heap_mapped``).
With no patch matrix, every temporary of a training step is below about
0.5 MB, and glibc's self-adjusting thresholds then return the memory a step
frees to the OS, which the next step faults back in: about 1250-2000 minor
page faults per step, against under one with the thresholds fixed. The
values are constants, not settings.
"""

import ctypes
import functools
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
    return _make(np.sum(a.data), "sum", (a,), (lambda g: np.full_like(a.data, float(g)),))


def tmean(a: Tensor) -> Tensor:
    n = a.data.size
    return _make(np.mean(a.data), "mean", (a,), (lambda g: np.full_like(a.data, float(g) / n),))


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
    return _make(total, "fro2", tensors, [lambda g, t=t: 2.0 * float(g) * t.data for t in tensors])


# ---------------------------------------------------------------------------
# shape ops


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if any(s < 0 for s in shape):
        raise DimensionError(f"reshape: {a.shape} -> {shape} has a negative dimension")
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


def _conv_grid(x_shape, k_shape, op):
    """conv2d's grid of an (n, c, h, w) batch under a kernel of trailing dims
    k_shape[-2:], which must be square with an odd side k: (n, c, h, w, k,
    hp, wp, head). Each image's slot is the image followed by p = k // 2
    zero rows and columns, and head = p*wp + p zeros give the first image
    its top and left border (see the module docstring)."""
    kh, kw = k_shape[-2:]
    if kh != kw or kh % 2 == 0:
        raise ParameterError(f"{op}: kernel must be square with an odd side, got {tuple(k_shape)}")
    n, c, h, w = _batch_shape(x_shape, op)
    p = kh // 2
    hp, wp = h + p, w + p
    return n, c, h, w, kh, hp, wp, p * wp + p


def _to_grid(a, hp, wp, head=0, a2=None):
    """(n, c, h, w) batch -> zeroed channel-major grid (c, head + n*hp*wp + head).

    Image b fills the top-left (h, w) of the b-th (hp, wp) slot, which
    starts at column head + b*hp*wp; everything else is zero. With a2, an
    (n, c2, h, w) batch, the grid has a's c rows and then a2's c2: it is the
    grid of their channel concat. A batch that fills its slots, with no head
    and no a2, is only swapped to (c, n) order, which is a view when n = 1.
    """
    n, c, h, w = a.shape
    if (h, w) == (hp, wp) and not head and a2 is None:
        return np.ascontiguousarray(a.transpose(1, 0, 2, 3)).reshape(c, n * hp * wp)
    parts = (a,) if a2 is None else (a, a2)
    length = n * hp * wp
    grid = np.zeros((sum(p.shape[1] for p in parts), length + 2 * head), dtype=np.result_type(*parts))
    slots = grid[:, head : head + length].reshape(-1, n, hp, wp)
    slots[:c, :, :h, :w] = a.transpose(1, 0, 2, 3)
    if a2 is not None:
        slots[c:, :, :h, :w] = a2.transpose(1, 0, 2, 3)
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
    same loop serves a conv's forward (the kernel's taps, _tap_offsets), its
    input gradient (the blocks transposed, at mirrored offsets into the
    output gradient's grid) and the phase convolutions of upsample_conv2d.
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
    return _make(_from_grid(y.data, n, hp, wp, h, w), "fold", (y,), (lambda g: _to_grid(g, hp, wp),))


def _checked_grid(x, k, bias, op, x2=None, up=1):
    """The checks of a conv node's (x, k, bias, x2), raised as op; x's _conv_grid under k.

    x2 is a second input whose channels follow x's in the kernel, which then
    takes c + c2 input channels. For x (n, c, h, w) it is a batch
    (n, c2, up*h, up*w): conv2d's x2 (up 1) or upsample_conv2d's skip (up 2).
    conv2d also takes a per-item vector x2 (n, c2), which stands for its
    constant map and so needs a 1x1 kernel: a same-padded wider kernel does
    not keep a constant map constant at the border. conv2d's bias is (co,)
    or one row per item, (n, co); upsample_conv2d's is (co,).
    """
    if k.ndim != 4:
        raise DimensionError(f"{op}: kernel must be 4-D, got {k.shape}")
    grid = _conv_grid(x.shape, k.shape, op)
    n, c, h, w = grid[:4]
    co, ci = k.shape[:2]
    per_item = up == 1
    shapes = f"{x.shape} with {k.shape}"
    if x2 is not None:
        name = "x2" if per_item else "skip"
        if per_item and x2.ndim == 2 and x2.shape[0] == n:
            if k.shape[2] != 1:
                raise DimensionError(f"{op}: a per-item x2 {x2.shape} needs a 1x1 kernel, got {k.shape}")
        elif x2.ndim != 4 or x2.shape[0] != n or x2.shape[2:] != (up * h, up * w):
            want = f"a batch ({n}, c2, {up * h}, {up * w})" + (f" or a vector ({n}, c2)" if per_item else "")
            raise DimensionError(f"{op}: {name} {x2.shape} is not {want} for x {x.shape}")
        c += x2.shape[1]
        shapes = f"{x.shape} and {name} {x2.shape} with {k.shape}"
    if c != ci:
        raise DimensionError(f"{op}: input channels {c} vs kernel {ci} ({shapes})")
    if bias.shape != (co,) and not (per_item and bias.shape == (n, co)):
        need = f"({co},) or ({n}, {co}) for x {x.shape}" if per_item else f"({co},)"
        raise DimensionError(f"{op}: bias {bias.shape} does not fit kernel {k.shape}; need {need}")
    return grid


def _tap_blocks(k):
    """A (co, c, s, s) kernel as one contiguous (co, c) block per tap, in tap order: (s*s, co, c)."""
    co, c = k.shape[:2]
    return np.ascontiguousarray(k.reshape(co, c, -1).transpose(2, 0, 1))


def conv2d(x: Tensor, k: Tensor, bias: Tensor, x2: Tensor = None) -> Tensor:
    """Same-padded cross-correlation plus a bias: x (n, c, h, w), k (co, c, s, s)
    with s odd, bias (co,) or (n, co), one row per item -> (n, co, h, w). One
    tape node with inputs (x, k, bias), or (x, k, bias, x2).

    x2 is a second input whose channels follow x's in the kernel, which is
    then (co, c + c2, s, s). A batch (n, c2, h, w) makes the node
    conv2d(concat_channels(x, x2), k, bias): both go on one grid, which is
    the grid of the concat, and the backward splits the rows of the input
    gradient's grid between them. A per-item vector (n, c2) stands for its
    constant map, conv2d(concat_channels(x, broadcast_spatial(x2, h, w)), k,
    bias), and needs a 1x1 kernel. The node adds k[:, c:, 0, 0] @ x2[i] to
    item i, the way it adds a per-item bias row. Neither the concat nor the
    map is formed. The gradients of a per-item bias, of a vector x2 and of
    the kernel's columns for it come from the per-item sums of the output
    gradient.

    The forward puts x on the grid with _to_grid, each image at the top
    left of its (hp, wp) slot between head zeros, so that neighbouring
    images and rows share one zero border (see the module docstring), and
    takes one product per tap of the kernel (_tap_matmul). The backward
    puts the output gradient on the same grid. The input gradient is then
    the same _tap_matmul with the kernel's per-tap blocks in reverse tap
    order and transposed, which is each block at its mirrored offset
    2*head - off_t: the border keeps that slice inside the grid, and image
    b's pixel (r, s) comes out at the top left of slot b, where _from_grid
    reads it. With a batch x2, that product runs over the input channels of
    x, of x2 or of both, whichever need a gradient, so a frozen input's rows
    are never formed. The grid of x is rebuilt only when k needs a gradient.
    """
    grid = _checked_grid(x, k, bias, "conv2d", x2)
    n, c, h, w, ks, hp, wp, head = grid
    co = k.shape[0]
    inputs = (x, k, bias) if x2 is None else (x, k, bias, x2)
    dtype = np.result_type(*(t.data for t in inputs))
    vector = x2 is not None and x2.ndim == 2
    a2 = None if x2 is None or vector else x2.data  # the batch that shares x's grid
    mt = _tap_blocks(k.data[:, :c] if vector else k.data)
    y = _tap_matmul(mt, _to_grid(x.data, hp, wp, head, a2), _tap_offsets(ks, wp), n * hp * wp, dtype)
    # each output channel's constant: (co, 1) shared by the items, or (co, n)
    shift = bias.data.T if bias.ndim == 2 else bias.data[:, None]
    if vector:
        shift = k.data[:, c:, 0, 0] @ x2.data.T + shift
    slots = y.reshape(co, n, hp * wp)
    slots += shift[:, :, None]
    out = Tensor(_from_grid(y, n, hp, wp, h, w))
    if not _recording(inputs):
        return out

    def backward(g):
        need = [t._needs_grad() for t in inputs]
        need_a2 = a2 is not None and need[3]
        grads = [None] * len(inputs)
        gg, grads[0], ga2, gk = _conv_backward(g, x.data, mt, grid, need[0], need[1], a2, need_a2)
        if need_a2:
            grads[3] = ga2
        # (co, n): the output gradient summed over each item, its constant's gradient
        sums = gg.reshape(co, n, hp * wp).sum(axis=2) if vector or bias.ndim == 2 else None
        if need[1]:
            if vector:
                gk = np.concatenate([gk, sums @ x2.data], axis=1)
            grads[1] = gk.reshape(k.shape)
        if need[2]:
            grads[2] = sums.T if bias.ndim == 2 else gg.sum(axis=1)
        if vector and need[3]:
            grads[3] = sums.T @ k.data[:, c:, 0, 0]
        return tuple(grads)

    out.node = TapeNode("conv2d", inputs, backward)
    return out


def _conv_backward(g, a, mt, grid, need_a, need_k, a2=None, need_a2=False):
    """conv2d's backward on grid = _conv_grid of the batch a, whose forward ran
    _tap_matmul(mt, ...) on the grid of a, or of a and a2 (_to_grid): (gg,
    ga, ga2, gk) for the output gradient g.

    gg is g on the grid without its head, whose row sums are the bias
    gradient. ga and ga2 are a's and a2's rows of the transposed conv of g:
    the forward's blocks in reverse tap order and transposed, which is each
    block at its mirrored offset 2*head - off_t (see conv2d). The blocks are
    cut to the input channels of the batches that need a gradient, so a
    frozen batch's rows are not computed. gk is the kernel's
    (co, (c + c2)*s*s) gradient. ga is None unless need_a, ga2 None unless
    need_a2 and gk None unless need_k; the grid of a is rebuilt only for gk.
    """
    n, c, h, w, ks, hp, wp, head = grid
    length = n * hp * wp
    offsets = _tap_offsets(ks, wp)
    gh = _to_grid(g, hp, wp, head)
    gg = gh[:, head : head + length]
    ga = ga2 = gk = None
    if need_a or need_a2:
        lo, hi = 0 if need_a else c, mt.shape[2] if need_a2 else c
        gap = _tap_matmul(mt[::-1, :, lo:hi].transpose(0, 2, 1), gh, offsets, length, np.result_type(mt, gh))
        if need_a:
            ga = _from_grid(gap[:c], n, hp, wp, h, w)
        if need_a2:
            ga2 = _from_grid(gap[c - lo :], n, hp, wp, h, w)
        del gap  # before the grid of a is built
    if need_k:
        gk = _tap_matmul_t(gg, _to_grid(a, hp, wp, head, a2), offsets, length)
    return gg, ga, ga2, gk


@functools.lru_cache(maxsize=None)
def _phase_map(s, dtype):
    """upsample_conv2d's phase taps for an s x s kernel, with p = s // 2 and
    P = p + 1: the 0/1 map (4*P*P, s*s) from kernel taps to phase taps, and
    lead[a], the grid row (and column) of phase a's first tap.

    Under kernel row i, output row 2r + a reads low-resolution row
    r + (a + i - p) // 2, which sits (a + i - p) // 2 + p rows below row r's
    own row on conv2d's grid of x. Phase a's P tap rows start at the
    smallest of these, lead[a] = (a - p) // 2 + p, so kernel row i lands on
    phase tap row (a + i - p) // 2 + p - lead[a]; columns alike.
    Row (a, b, m, n) of the map, phase 2a + b first, sums the kernel taps
    (i, j) that land on phase tap (m, n). The map is cached, so it is
    read-only.
    """
    p = s // 2
    lead = tuple((a - p) // 2 + p for a in (0, 1))
    i = np.arange(s)
    rows = np.zeros((2, p + 1, s), dtype=dtype)
    for a in (0, 1):
        rows[a, (a + i - p) // 2 + p - lead[a], i] = 1
    pmap = np.einsum("ami,bnj->abmnij", rows, rows).reshape(4 * (p + 1) ** 2, s * s)
    pmap.flags.writeable = False
    return pmap, lead


def upsample_conv2d(x: Tensor, k: Tensor, bias: Tensor, skip: Tensor = None) -> Tensor:
    """conv2d(upsample2(x), k, bias), with the same checks: x (n, c, h, w),
    k (co, c, s, s) with s odd, bias (co,) -> (n, co, 2h, 2w). With a skip
    (n, cs, 2h, 2w), the U-Net's skip connection, it is
    conv2d(concat_channels(upsample2(x), skip), k, bias) and k is
    (co, c + cs, s, s), x's channels first. One tape node with inputs
    (x, k, bias), or (x, k, bias, skip), which forms neither the upsampled
    copy nor the concat.

    Output phase (a, b), the pixels (2r + a, 2q + b), is a P x P conv of x
    on x's own grid (see the module docstring). Its (co, c) blocks are sums
    of kernel taps, one product with _phase_map's 0/1 map. The forward runs
    _tap_matmul once per phase and writes each phase's crop into
    out[:, :, a::2, b::2]. The skip's channels k[:, c:] are a conv2d of the
    skip on its own grid, without a bias, whose crop is added to the
    interleaved phases in one pass. The backward reads the output gradient's
    four phases onto four grids of x's layout, laid end to end. The input
    gradient, the sum of the phases' transposed convs, is then one
    _tap_matmul over every block transposed, each at its mirrored offset
    2*head - off into its own phase's grid. The kernel gradient is
    _tap_matmul_t once per phase, folded back onto the s x s taps by one
    product with the same map, followed by the skip channels' conv2d kernel
    gradient on the skip's grid, which also gives the skip its gradient
    (_conv_backward). The grids of x and the skip are rebuilt only when k
    needs a gradient.
    """
    n, c, h, w, ks, hp, wp, head = _checked_grid(x, k, bias, "upsample_conv2d", skip, up=2)
    co = k.shape[0]
    inputs = (x, k, bias) if skip is None else (x, k, bias, skip)
    dtype = np.result_type(*(t.data for t in inputs))
    length = n * hp * wp
    pmap, lead = _phase_map(ks, k.data.dtype)
    taps = ks // 2 + 1
    # one contiguous (co, c) block per phase tap, taps*taps of them per phase 2a + b
    kx = k.data[:, :c].reshape(co * c, ks * ks)
    mt = np.ascontiguousarray((kx @ pmap.T).T).reshape(4, taps * taps, co, c)
    phases = [(a, b) for a in (0, 1) for b in (0, 1)]
    phase_offsets = [[o + lead[a] * wp + lead[b] for o in _tap_offsets(taps, wp)] for a, b in phases]
    xp = _to_grid(x.data, hp, wp, head)
    y = np.empty((n, co, 2 * h, 2 * w), dtype=dtype)
    for (a, b), offsets, blocks in zip(phases, phase_offsets, mt):
        yp = _tap_matmul(blocks, xp, offsets, length, dtype)
        yp += bias.data[:, None]
        y[:, :, a::2, b::2] = yp.reshape(co, n, hp, wp)[:, :, :h, :w].transpose(1, 0, 2, 3)
    if skip is not None:
        skip_grid = _conv_grid(skip.shape, k.shape, "upsample_conv2d")
        _, cs, _, _, _, shp, swp, shead = skip_grid
        ms = _tap_blocks(k.data[:, c:])
        ys = _tap_matmul(ms, _to_grid(skip.data, shp, swp, shead), _tap_offsets(ks, swp), n * shp * swp, dtype)
        y += ys.reshape(co, n, shp, swp)[:, :, : 2 * h, : 2 * w].transpose(1, 0, 2, 3)
    out = Tensor(y)
    if not _recording(inputs):
        return out

    def backward(g):
        need = [t._needs_grad() for t in inputs]
        grads = [None] * len(inputs)
        span = length + 2 * head
        gh = np.zeros((co, 4, span), dtype=g.dtype)
        slots = gh[:, :, head : head + length].reshape(co, 4, n, hp, wp)
        for ph, (a, b) in enumerate(phases):
            slots[:, ph, :, :h, :w] = g[:, :, a::2, b::2].transpose(1, 0, 2, 3)
        gh = gh.reshape(co, 4 * span)
        if need[0]:
            offsets = [ph * span + 2 * head - o for ph, offs in enumerate(phase_offsets) for o in offs]
            gxp = _tap_matmul(mt.reshape(-1, co, c).transpose(0, 2, 1), gh, offsets, length, np.result_type(mt, gh))
            grads[0] = _from_grid(gxp, n, hp, wp, h, w)
            del gxp  # before the grid of x is built
        if need[1]:
            xp = _to_grid(x.data, hp, wp, head)
            gk = np.stack([_tap_matmul_t(gh[:, ph * span + head :][:, :length], xp, offs, length)
                           for ph, offs in enumerate(phase_offsets)])
            # (phase, co, c, tap) -> (co, c, phase, tap), folded onto the kernel's taps
            gk = gk.reshape(4, co, c, taps * taps).transpose(1, 2, 0, 3).reshape(co * c, pmap.shape[0])
            grads[1] = (gk @ pmap).reshape(co, c, ks, ks)
        if need[2]:
            grads[2] = gh.sum(axis=1)
        if skip is not None and (need[1] or need[3]):
            _, grads[3], _, gks = _conv_backward(g, skip.data, ms, skip_grid, need[3], need[1])
            if need[1]:
                grads[1] = np.concatenate([grads[1], gks.reshape(co, cs, ks, ks)], axis=1)
        return tuple(grads)

    out.node = TapeNode("upsample_conv2d", inputs, backward)
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
