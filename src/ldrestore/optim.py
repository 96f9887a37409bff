"""AdamW with decoupled weight decay and bias correction.

The optimizer binds to an ordered list of (name, Tensor) pairs whose names
are distinct, since the moments are kept and saved by name. The moments of
all tensors of one dtype live in one flat buffer per moment, so a step runs
the moment and update arithmetic once per dtype rather than once per
tensor; ``m[name]`` and ``v[name]`` are views of each tensor's slice in its
shape. ``step`` reads each tensor's .grad and checks all of
them before it changes anything. State round-trips through plain dicts for
checkpointing. The constructor and ``load_state_dict`` check the
hyperparameters with one function (``_hyperparameters``), so a value a
checkpoint could not restore cannot be set either.
"""

import math
from collections.abc import Mapping

import numpy as np

from .errors import ContractViolation


class AdamW:
    def __init__(self, named_tensors, lr=1e-4, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0):
        self.named = [(str(n), t) for n, t in named_tensors]
        if not self.named:
            raise ContractViolation("AdamW: no parameters to optimize")
        seen = set()
        for n, _ in self.named:
            if n in seen:
                raise ContractViolation(f"AdamW: name {n!r} is bound twice; the moments are keyed by name")
            seen.add(n)
        self.lr, self.beta1, self.beta2, self.eps, self.weight_decay = _hyperparameters(lr, betas, eps, weight_decay)
        self.t = 0
        by_dtype = {}
        for n, t in self.named:
            by_dtype.setdefault(t.data.dtype, []).append((n, t))
        # (flat m, flat v, tensors in buffer order) per dtype
        self._groups = []
        self.m, self.v = {}, {}
        for dtype, members in by_dtype.items():
            m, v = (np.zeros(sum(t.data.size for _, t in members), dtype=dtype) for _ in range(2))
            lo = 0
            for n, t in members:
                hi = lo + t.data.size
                self.m[n], self.v[n] = m[lo:hi].reshape(t.data.shape), v[lo:hi].reshape(t.data.shape)
                lo = hi
            self._groups.append((m, v, [t for _, t in members]))

    def step(self):
        """One update from each bound tensor's .grad. Every gradient is checked
        first, so a missing or misshapen one raises ContractViolation and leaves
        the optimizer and its tensors unchanged."""
        for name, tensor in self.named:
            if tensor.grad is None:
                raise ContractViolation(f"AdamW: missing gradient for {name}")
            shape = np.shape(tensor.grad)
            if shape != tensor.data.shape:
                raise ContractViolation(f"AdamW: grad shape {shape} vs parameter {name} {tensor.data.shape}")
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for m, v, tensors in self._groups:
            g = np.concatenate([np.ravel(t.grad) for t in tensors])
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            update *= self.lr
            lo = 0
            for tensor in tensors:
                hi = lo + tensor.data.size
                if self.weight_decay:
                    tensor.data -= self.lr * self.weight_decay * tensor.data
                tensor.data -= update[lo:hi].reshape(tensor.data.shape)
                lo = hi

    def state_dict(self) -> dict:
        return {
            "t": self.t,
            "lr": self.lr,
            "betas": [self.beta1, self.beta2],
            "eps": self.eps,
            "weight_decay": self.weight_decay,
            "m": {n: self.m[n].copy() for n, _ in self.named},
            "v": {n: self.v[n].copy() for n, _ in self.named},
        }

    def load_state_dict(self, state: dict):
        """Restore a ``state_dict``. Every field is converted and checked before
        any is assigned, so a state that lacks a field, holds one of the wrong
        type or value, or whose moments do not fit raises ContractViolation and
        leaves the optimizer unchanged."""
        for key in ("t", "lr", "betas", "eps", "weight_decay", "m", "v"):
            if key not in state:
                raise ContractViolation(f"AdamW: state missing {key!r}")
        try:
            t = int(state["t"])
        except (TypeError, ValueError) as e:
            raise ContractViolation(f"AdamW: state holds a non-number: {e}") from None
        if t < 0 or t != state["t"]:
            raise ContractViolation(f"AdamW: state t must be a non-negative integer, got {state['t']!r}")
        lr, beta1, beta2, eps, weight_decay = _hyperparameters(
            state["lr"], state["betas"], state["eps"], state["weight_decay"]
        )
        moments = {"m": {}, "v": {}}
        for key, loaded in moments.items():
            if not isinstance(state[key], Mapping):
                raise ContractViolation(f"AdamW: state {key} must map names to arrays, got {type(state[key]).__name__}")
            for n, tensor in self.named:
                if n not in state[key]:
                    raise ContractViolation(f"AdamW: state missing {key}[{n!r}]")
                x = np.asarray(state[key][n])
                if x.shape != tensor.data.shape or x.dtype.kind not in "biuf":
                    raise ContractViolation(
                        f"AdamW: state {key} {x.dtype} {x.shape} vs parameter {n} {tensor.data.shape}"
                    )
                # in the parameter's dtype: a checkpoint stores the moments widened to float64
                loaded[n] = x.astype(tensor.data.dtype)
        # copied into the views, which assigning new arrays would detach from the flat buffers
        for n, _ in self.named:
            np.copyto(self.m[n], moments["m"][n])
            np.copyto(self.v[n], moments["v"][n])
        self.t, self.lr, self.eps, self.weight_decay = t, lr, eps, weight_decay
        self.beta1, self.beta2 = beta1, beta2


def _hyperparameters(lr, betas, eps, weight_decay):
    """(lr, beta1, beta2, eps, weight_decay) as floats, the one check of both
    the constructor's and a loaded state's values: each must be a finite
    number with lr >= 0, 0 <= beta < 1 for both betas, eps > 0 and
    weight_decay >= 0, else ContractViolation."""
    try:
        lr, eps, weight_decay = float(lr), float(eps), float(weight_decay)
        betas = [float(b) for b in betas]
    except (TypeError, ValueError) as e:
        raise ContractViolation(f"AdamW: a hyperparameter is not a number: {e}") from None
    if len(betas) != 2:
        raise ContractViolation(f"AdamW: betas must hold 2 values, got {len(betas)}")
    values = f"lr={lr}, betas={tuple(betas)}, eps={eps}, weight_decay={weight_decay}"
    if not all(math.isfinite(x) for x in (lr, eps, weight_decay, *betas)):
        raise ContractViolation(f"AdamW: hyperparameters must be finite, got {values}")
    if lr < 0 or eps <= 0 or weight_decay < 0 or not all(0 <= b < 1 for b in betas):
        raise ContractViolation(f"AdamW: need lr >= 0, 0 <= beta < 1, eps > 0 and weight_decay >= 0, got {values}")
    return lr, betas[0], betas[1], eps, weight_decay
