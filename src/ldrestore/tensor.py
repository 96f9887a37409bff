"""Dense float64 tensors with tape-based reverse-mode differentiation.

Tensors wrap C-contiguous numpy arrays. Every differentiable operation
records a tape node holding its inputs and a backward closure; calling
``backward`` on a scalar loss walks the tape once in reverse topological
order and accumulates gradients additively into every tensor that was
created with ``requires_grad=True``.

A node's backward closure takes the output gradient and returns one entry
per input. An input that needs no gradient (``not inp._needs_grad()``: not
``requires_grad`` and not produced by a recorded op) gets ``None``, and its
gradient is never computed, so a frozen weight costs no gradient product.

Shapes are explicit. There is no general broadcasting: mixed-shape
combinations exist only as named ops (``channel_bias``, ``row_scale``,
``broadcast_spatial``) with hand-written backward rules. Convolution and
pooling accept either a single item ``(c, h, w)`` or a leading batch axis
``(n, c, h, w)``; the batched form is the plain op applied per item with a
shared kernel.

Convolution is patch-major. ``im2col`` lays the input out as a
``(c*kh*kw, n*ho*wo)`` matrix: one row per kernel tap in the kernel's
``(ci, kh, kw)`` order, one column per output position. The kernel's
``(co, ci*kh*kw)`` view times that matrix is already channel-first, so
folding it into ``(n, co, ho, wo)`` moves whole spatial blocks. This module
is the only one that knows the layout.
"""

from contextlib import contextmanager

import numpy as np

from .errors import ContractViolation, DimensionError, OracleError, ParameterError

_GRAD_ENABLED = True


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


def grad_enabled() -> bool:
    return _GRAD_ENABLED


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
        arr = np.asarray(data, dtype=np.float64)
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

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy())

    def zero_grad(self):
        self.grad = None

    def _needs_grad(self):
        return self.requires_grad or self.node is not None

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # arithmetic sugar; scalars are the only permitted mixed-shape operands
    def __add__(self, other):
        if isinstance(other, Tensor):
            return add(self, other)
        return add_scalar(self, float(other))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Tensor):
            return add(self, scale(other, -1.0))
        return add_scalar(self, -float(other))

    def __rsub__(self, other):
        return add_scalar(scale(self, -1.0), float(other))

    def __mul__(self, other):
        if isinstance(other, Tensor):
            return mul(self, other)
        return scale(self, float(other))

    __rmul__ = __mul__

    def __neg__(self):
        return scale(self, -1.0)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data, op, inputs, grad_fns) -> Tensor:
    """Wrap an op's output; grad_fns[i](g) gives the gradient for inputs[i].

    The recorded backward calls only the gradient functions of inputs that
    need a gradient and returns None for the others.
    """
    out = Tensor(data)
    if _GRAD_ENABLED and any(t._needs_grad() for t in inputs):

        def backward(g):
            return tuple(fn(g) if t._needs_grad() else None for t, fn in zip(inputs, grad_fns))

        out.node = TapeNode(op, inputs, backward)
    return out


def _pass(g):
    return g


def _same_shape(a, b, op):
    if a.shape != b.shape:
        raise DimensionError(f"{op}: shape {a.shape} vs {b.shape}")


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
    """1 / (1 + exp(-x)) as exp(min(x, 0)) / (1 + exp(-|x|)), where no exp overflows.

    Computed in place: a temporary costs about as much as a pass over the
    data here, which is also why this form is used rather than np.where.
    """
    num = np.minimum(x, 0.0)
    np.exp(num, out=num)
    den = np.abs(x)
    np.negative(den, out=den)
    np.exp(den, out=den)
    den += 1.0
    num /= den
    return num


def sigmoid(a: Tensor) -> Tensor:
    s = _logistic(a.data)
    return _make(s, "sigmoid", (a,), (lambda g: g * s * (1.0 - s),))


def silu(a: Tensor) -> Tensor:
    s = _logistic(a.data)
    return _make(a.data * s, "silu", (a,), (lambda g: g * s * (1.0 + a.data * (1.0 - s)),))


# ---------------------------------------------------------------------------
# reductions and losses


def tsum(a: Tensor) -> Tensor:
    return _make(np.sum(a.data), "sum", (a,), (lambda g: np.full(a.shape, float(g)),))


def tmean(a: Tensor) -> Tensor:
    n = a.data.size
    return _make(np.mean(a.data), "mean", (a,), (lambda g: np.full(a.shape, float(g) / n),))


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
    """Concatenate along the channel axis: axis 0 for (c,h,w), axis 1 for (n,c,h,w)."""
    if a.ndim != b.ndim or a.ndim not in (3, 4):
        raise DimensionError(f"concat_channels: ranks {a.ndim} vs {b.ndim}")
    axis = 0 if a.ndim == 3 else 1
    if a.shape[:axis] != b.shape[:axis] or a.shape[axis + 1 :] != b.shape[axis + 1 :]:
        raise DimensionError(f"concat_channels: shape {a.shape} vs {b.shape}")
    lead = (slice(None),) * axis
    first, rest = lead + (slice(None, a.shape[axis]),), lead + (slice(a.shape[axis], None),)
    return _make(
        np.concatenate([a.data, b.data], axis=axis), "concat", (a, b),
        (lambda g: np.ascontiguousarray(g[first]), lambda g: np.ascontiguousarray(g[rest])),
    )


def channel_bias(x: Tensor, b: Tensor) -> Tensor:
    """Add a per-channel bias, constant over spatial positions.

    x (c,h,w) with b (c,); x (n,c,h,w) with b (c,) shared or (n,c) per item.
    """
    if x.ndim == 3 and b.shape == (x.shape[0],):
        out = x.data + b.data[:, None, None]
        back_b = lambda g: g.sum(axis=(1, 2))
    elif x.ndim == 4 and b.shape == (x.shape[1],):
        out = x.data + b.data[None, :, None, None]
        back_b = lambda g: g.sum(axis=(0, 2, 3))
    elif x.ndim == 4 and b.shape == x.shape[:2]:
        out = x.data + b.data[:, :, None, None]
        back_b = lambda g: g.sum(axis=(2, 3))
    else:
        raise DimensionError(f"channel_bias: x {x.shape} vs b {b.shape}")
    return _make(out, "channel_bias", (x, b), (_pass, back_b))


def broadcast_spatial(v: Tensor, h: int, w: int) -> Tensor:
    """Tile a channel vector over an h x w grid: (c,)->(c,h,w), (n,c)->(n,c,h,w)."""
    if v.ndim == 1:
        out = np.broadcast_to(v.data[:, None, None], (v.shape[0], h, w)).copy()
        back = lambda g: g.sum(axis=(1, 2))
    elif v.ndim == 2:
        n, c = v.shape
        out = np.broadcast_to(v.data[:, :, None, None], (n, c, h, w)).copy()
        back = lambda g: g.sum(axis=(2, 3))
    else:
        raise DimensionError(f"broadcast_spatial: rank {v.ndim}")
    return _make(out, "broadcast_spatial", (v,), (back,))


def row_scale(x: Tensor, s: Tensor) -> Tensor:
    """Scale each leading-axis slice by its own factor: y[i] = s[i] * x[i]."""
    if s.ndim != 1 or x.ndim < 1 or x.shape[0] != s.shape[0]:
        raise DimensionError(f"row_scale: x {x.shape} vs s {s.shape}")
    shape = (s.shape[0],) + (1,) * (x.ndim - 1)
    sb = s.data.reshape(shape)
    axes = tuple(range(1, x.ndim))

    def back_s(g):
        return (g * x.data).sum(axis=axes) if axes else g * x.data

    return _make(x.data * sb, "row_scale", (x, s), (lambda g: g * sb, back_s))


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
# convolution (via im2col) and resampling


def _conv_geometry(x_shape, k_shape, padding):
    if len(k_shape) != 4:
        raise DimensionError(f"conv2d: kernel must be 4-D, got {k_shape}")
    co, ci, kh, kw = k_shape
    if kh % 2 == 0 or kw % 2 == 0:
        raise ParameterError(f"conv2d: kernel dims must be odd, got {kh}x{kw}")
    if padding < 0:
        raise ParameterError(f"conv2d: padding must be >= 0, got {padding}")
    if len(x_shape) == 3:
        n = None
        c, h, w = x_shape
    elif len(x_shape) == 4:
        n, c, h, w = x_shape
    else:
        raise DimensionError(f"conv2d: input must be 3-D or 4-D, got {x_shape}")
    if c != ci:
        raise DimensionError(f"conv2d: input channels {c} vs kernel {ci} ({x_shape} with {k_shape})")
    ho = h + 2 * padding - kh + 1
    wo = w + 2 * padding - kw + 1
    if ho < 1 or wo < 1:
        raise DimensionError(f"conv2d: kernel {k_shape} larger than padded input {x_shape}")
    return n, c, h, w, co, kh, kw, ho, wo


def im2col(x: Tensor, kh: int, kw: int, padding: int) -> Tensor:
    """Patch-major patch matrix of a (kh, kw) window sweep: (c*kh*kw, n*ho*wo).

    Row (ci, i, j) holds input channel ci at kernel tap (i, j), the order of a
    kernel's (co, ci*kh*kw) view; columns are output positions in (n, ho, wo)
    order, with n = 1 for an unbatched input. Each tap is one slice copy whose
    (ho, wo) runs are contiguous, and the backward pass (col2im) accumulates
    the same slices.
    """
    batched = x.ndim == 4
    xd = x.data if batched else x.data[None]
    n, c, h, w = xd.shape
    hp, wp = h + 2 * padding, w + 2 * padding
    ho, wo = hp - kh + 1, wp - kw + 1
    if ho < 1 or wo < 1:
        raise DimensionError(f"im2col: window {kh}x{kw} larger than padded input {x.shape}")
    # channel-major padded input (c, n, hp, wp), so a tap's rows are one slice
    xp = np.zeros((c, n, hp, wp))
    xp[:, :, padding : padding + h, padding : padding + w] = xd.transpose(1, 0, 2, 3)
    cols = np.empty((c, kh, kw, n, ho, wo))
    for i in range(kh):
        for j in range(kw):
            cols[:, i, j] = xp[:, :, i : i + ho, j : j + wo]

    def col2im(g):
        taps = g.reshape(c, kh, kw, n, ho, wo)
        gxp = np.zeros((c, n, hp, wp))
        for i in range(kh):
            for j in range(kw):
                gxp[:, :, i : i + ho, j : j + wo] += taps[:, i, j]
        gx = gxp[:, :, padding : padding + h, padding : padding + w].transpose(1, 0, 2, 3)
        return np.ascontiguousarray(gx if batched else gx[0])

    return _make(cols.reshape(c * kh * kw, n * ho * wo), "im2col", (x,), (col2im,))


def fold_channels_last(y: Tensor, lead_shape) -> Tensor:
    """Conv product (co, prod(lead)) -> channel-first activations.

    lead (ho, wo) gives (co, ho, wo), a plain reshape; lead (n, ho, wo) gives
    (n, co, ho, wo), one (co, n) -> (n, co) swap of contiguous (ho, wo) blocks.
    """
    co = y.shape[0]
    if len(lead_shape) == 2:
        ho, wo = lead_shape
        out = y.data.reshape(co, ho, wo)
        back = lambda g: g.reshape(co, ho * wo)
    elif len(lead_shape) == 3:
        n, ho, wo = lead_shape
        out = np.ascontiguousarray(y.data.reshape(co, n, ho, wo).transpose(1, 0, 2, 3))
        back = lambda g: np.ascontiguousarray(g.transpose(1, 0, 2, 3)).reshape(co, n * ho * wo)
    else:
        raise DimensionError(f"fold_channels_last: lead shape {lead_shape}")
    return _make(out, "fold", (y,), (back,))


def conv2d(x: Tensor, k: Tensor, padding: int = 0, deltas=()) -> Tensor:
    """Cross-correlation with zero padding; x (c,h,w) or (n,c,h,w), k (co,ci,kh,kw).

    deltas are low-rank (A, B) pairs, A (co, r) and B (r, ci*kh*kw), each
    added to the kernel's 2-D view as A @ B without forming that product.
    """
    n, _, _, _, co, kh, kw, ho, wo = _conv_geometry(x.shape, k.shape, padding)
    cols = im2col(x, kh, kw, padding)
    y = matmul(reshape(k, (co, k.size // co)), cols)
    for A, B in deltas:
        y = add(y, matmul(A, matmul(B, cols)))
    return fold_channels_last(y, (ho, wo) if n is None else (n, ho, wo))


def _spatial_split(x):
    if x.ndim == 3:
        c, h, w = x.shape
        return None, c, h, w
    if x.ndim == 4:
        return x.shape
    raise DimensionError(f"expected 3-D or 4-D tensor, got {x.shape}")


def avg_pool2(x: Tensor) -> Tensor:
    """2x2 average pooling; spatial dims must be even."""
    n, c, h, w = _spatial_split(x)
    if h % 2 or w % 2:
        raise DimensionError(f"avg_pool2: odd spatial dims {x.shape}")
    lead = x.shape[:-2]
    blk = x.data.reshape(lead + (h // 2, 2, w // 2, 2))
    out = blk.mean(axis=(-3, -1))

    def backward(g):
        return np.repeat(np.repeat(g, 2, axis=-1), 2, axis=-2) * 0.25

    return _make(out, "avg_pool2", (x,), (backward,))


def upsample2(x: Tensor) -> Tensor:
    """Nearest-neighbour 2x upsampling of the spatial dims."""
    n, c, h, w = _spatial_split(x)
    out = np.repeat(np.repeat(x.data, 2, axis=-1), 2, axis=-2)

    def backward(g):
        lead = x.shape[:-2]
        return g.reshape(lead + (h, 2, w, 2)).sum(axis=(-3, -1))

    return _make(out, "upsample2", (x,), (backward,))


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

    grads = {id(loss): np.ones((), dtype=np.float64)}
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


def finite_diff_check(f, x: Tensor, eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients of f at x.

    f must be a deterministic scalar-valued function of a single tensor; the
    relative error at each coordinate is |analytic - numeric| divided by
    max(1e-8, |analytic| + |numeric|).
    """
    if eps <= 0:
        raise ParameterError(f"finite_diff_check: eps must be > 0, got {eps}")

    probe = Tensor(x.data.copy(), requires_grad=True)
    out1 = f(probe)
    out2 = f(Tensor(x.data.copy(), requires_grad=True))
    if out1.data.shape != () or out2.data.shape != ():
        raise ContractViolation("finite_diff_check: f must return a scalar")
    if not np.array_equal(out1.data, out2.data):
        raise OracleError("finite_diff_check: f is not deterministic")

    backward(out1)
    analytic = probe.grad if probe.grad is not None else np.zeros_like(x.data)

    flat = x.data.reshape(-1)
    numeric = np.zeros_like(flat)
    with no_grad():
        for i in range(flat.size):
            bump = flat.copy()
            bump[i] += eps
            hi = f(Tensor(bump.reshape(x.shape))).item()
            bump[i] = flat[i] - eps
            lo = f(Tensor(bump.reshape(x.shape))).item()
            numeric[i] = (hi - lo) / (2.0 * eps)

    an = analytic.reshape(-1)
    denom = np.maximum(1e-8, np.abs(an) + np.abs(numeric))
    return float(np.max(np.abs(an - numeric) / denom))
