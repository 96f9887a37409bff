"""Low-rank adaptation: rank-r deltas on selected weight matrices.

An adapter holds A (d x r) and B (r x k) for a target weight viewed as a
(d, k) matrix; the effective weight is W + A x B, never materialized during
training: ``network._apply_weight`` adds x B^T A^T to a dense weight's
output as two skinny products, and ``tensor.conv2d`` takes (A, B) as a delta
on a kernel's (out, in*kh*kw) 2-D view. A starts Gaussian with variance 1/r
and B starts at zero, so the delta is exactly zero until the first update.
Adapters are trained with ``optim.AdamW`` bound to each A and B. There is
no alpha/rank output scaling: the delta is A x B exactly as stored.

An adapter is plain data (target, A, B) with no mode. For inference,
``merge`` returns new weights with every delta folded in, so a merged
adapter costs nothing per call; the weights it was given are not modified.
"""

import fnmatch
import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigurationError
from .network import PROMPT_TABLE, NetParams
from .rng import stream

DEFAULT_TARGETS = ("den.temb.w", "den.pemb.w", "ctrl.zero.conv.w", "ctrl.zero.sft.w")


@dataclass
class LoraConfig:
    rank: int = 4
    targets: tuple = DEFAULT_TARGETS
    reg_lambda: float = 1e-4
    lr: float = 1e-3

    def __post_init__(self):
        if self.rank < 1:
            raise ConfigurationError(f"lora rank must be >= 1, got {self.rank}")
        if self.reg_lambda < 0:
            raise ConfigurationError(f"reg_lambda must be >= 0, got {self.reg_lambda}")
        self.targets = tuple(self.targets)


@dataclass
class LoraAdapter:
    target: str
    A: T.Tensor
    B: T.Tensor


def _matrix_view_shape(w: T.Tensor, name: str):
    if w.ndim == 2:
        return w.shape
    if w.ndim == 4:
        return (w.shape[0], w.size // w.shape[0])
    raise ConfigurationError(f"lora target {name!r} has rank {w.ndim}; need a 2-D (or conv) weight")


def attach(params, config: LoraConfig, seed: int) -> list:
    """One adapter per matched parameter; matched base weights are frozen,
    once every match has been checked."""
    matched = [name for name in params.names() if any(fnmatch.fnmatch(name, pat) for pat in config.targets)]
    if not matched:
        raise ConfigurationError(f"lora targets {config.targets} match no parameters")
    adapters = []
    for i, name in enumerate(matched):
        if name == PROMPT_TABLE:
            raise ConfigurationError(f"lora target {name!r} is a lookup table; no adapter applies to it")
        d, k = _matrix_view_shape(params[name], name)
        r = config.rank
        if r > min(d, k):
            raise ConfigurationError(f"lora rank {r} exceeds min dim of {name} ({d}x{k})")
        rng = stream(seed, "lora.init", i)
        A = T.Tensor(rng.normal(0.0, math.sqrt(1.0 / r), size=(d, r)), requires_grad=True)
        B = T.Tensor(np.zeros((r, k)), requires_grad=True)
        adapters.append(LoraAdapter(name, A, B))
    for a in adapters:
        params[a.target].requires_grad = False
    return adapters


def reg_loss(adapters, lam: float) -> T.Tensor:
    """lam * sum of squared Frobenius norms of every A and B."""
    if lam < 0:
        raise ConfigurationError(f"reg lambda must be >= 0, got {lam}")
    if lam == 0 or not adapters:
        return T.Tensor(0.0)
    total = None
    for a in adapters:
        term = T.add(T.frobenius_norm_sq(a.A), T.frobenius_norm_sq(a.B))
        total = term if total is None else T.add(total, term)
    return T.scale(total, lam)


def merge(params: NetParams, adapters) -> NetParams:
    """New weights with each adapter's delta A x B added to its target, in list
    order; every other weight is the same ``Tensor`` object as in ``params``.

    ``params`` and the adapters are left unchanged. The result replaces the
    pair ``(params, adapters)``: pass it with no adapters, or each delta counts
    twice.
    """
    tensors = dict(params.items())
    for a in adapters:
        shape = params[a.target].shape  # ParameterError for a target params lacks
        tensors[a.target] = T.Tensor(tensors[a.target].data + (a.A.data @ a.B.data).reshape(shape))
    return NetParams(params.config, tensors)


def trainable_param_count(adapters) -> int:
    return sum(a.A.size + a.B.size for a in adapters)


def zero_adapter_grads(adapters):
    for a in adapters:
        a.A.grad = None
        a.B.grad = None
