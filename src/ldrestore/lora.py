"""Low-rank adaptation: rank-r updates A x B on selected weight matrices.

An adapter holds A (d x r) and B (r x k) for a target weight viewed as a
(d, k) matrix, a conv kernel as (out, in*kh*kw). The effective weight is
W + A x B, formed on the tape at every call by ``network.adapted_weight``:
one (d, k) product per adapter, added to W, which every weight site then
uses as a plain weight. A starts Gaussian with variance 1/r and B starts at
zero, so A x B is exactly zero until the first update. Adapters are trained
with ``optim.AdamW`` bound to each A and B. There is no alpha/rank output
scaling: the update is A x B exactly as stored.

An adapter is plain data (target, A, B) with no mode. For inference,
``merge`` runs the same ``adapted_weight`` without a tape and returns new
weights, so a merged adapter costs nothing per call and gives the adapter
forward bit for bit; the weights it was given are not modified.

The conv sees only the adapted kernel, so its backward forms the whole
kernel gradient, which the tape passes on to A and B. For the default
targets, two dense weights and two 1x1 convs, that is no dearer. A 3x3
target pays: with adapters on all five 3x3 ``den.*`` convs a LoRA step took
10.4 ms, against 10.1 ms when the conv took A and B as inputs of its own
(medians of six 140-step runs, batch 8, 2-core Xeon VM, one BLAS thread).
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigurationError
from .network import NetParams, adapted_weight, matrix_view_shape
from .rng import stream

DEFAULT_TARGETS = ("den.temb.w", "den.pemb.w", "ctrl.zero.conv.w", "ctrl.zero.sft.w")


def _finite_non_negative(v) -> bool:
    return isinstance(v, numbers.Real) and math.isfinite(v) and v >= 0


@dataclass
class LoraConfig:
    rank: int = 4
    targets: tuple = DEFAULT_TARGETS
    reg_lambda: float = 1e-4
    lr: float = 1e-3

    def __post_init__(self):
        if isinstance(self.rank, bool) or not isinstance(self.rank, int) or self.rank < 1:
            raise ConfigurationError(f"LoraConfig.rank must be an integer >= 1, got {self.rank!r}")
        if not _finite_non_negative(self.reg_lambda):
            raise ConfigurationError(f"LoraConfig.reg_lambda must be finite and >= 0, got {self.reg_lambda!r}")
        if isinstance(self.targets, str):
            raise ConfigurationError(f"LoraConfig.targets must be a sequence of parameter names, got a str {self.targets!r}")
        self.targets = tuple(self.targets)
        if not self.targets:
            raise ConfigurationError("LoraConfig.targets must name at least one parameter")
        repeated = dict.fromkeys(t for t in self.targets if self.targets.count(t) > 1)
        if repeated:
            # two adapters on one weight are two attach calls, not a repeated name
            raise ConfigurationError(f"LoraConfig.targets names {', '.join(map(repr, repeated))} more than once")


@dataclass
class LoraAdapter:
    target: str
    A: T.Tensor
    B: T.Tensor


def attach(params, config: LoraConfig, seed: int) -> list:
    """One adapter per target, each an exact parameter name, in ``params.names()``
    order; the targets' base weights are frozen once every target has been checked."""
    names = params.names()
    unknown = sorted(set(config.targets).difference(names))
    if unknown:
        raise ConfigurationError(f"lora targets {unknown} name no parameter")
    matched = [name for name in names if name in config.targets]
    adapters = []
    for i, name in enumerate(matched):
        d, k = matrix_view_shape(params[name], name)
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
    if not _finite_non_negative(lam):
        raise ConfigurationError(f"reg lambda must be finite and >= 0, got {lam!r}")
    if lam == 0 or not adapters:
        return T.Tensor(0.0)
    total = None
    for a in adapters:
        term = T.add(T.frobenius_norm_sq(a.A), T.frobenius_norm_sq(a.B))
        total = term if total is None else T.add(total, term)
    return T.scale(total, lam)


def merge(params: NetParams, adapters) -> NetParams:
    """New weights with each adapter's A x B added to its target in list order,
    by ``network.adapted_weight`` without a tape; every other weight is the
    same ``Tensor`` object as in ``params``.

    ``params`` and the adapters are left unchanged. The result replaces the
    pair ``(params, adapters)``: pass it with no adapters, or each update
    counts twice.
    """
    tensors = dict(params.items())
    with T.no_grad():
        for name in dict.fromkeys(a.target for a in adapters):
            tensors[name] = adapted_weight(params, name, adapters)
    return NetParams(params.config, tensors)


def zero_adapter_grads(adapters):
    for a in adapters:
        a.A.grad = None
        a.B.grad = None
