"""AdamW with decoupled weight decay and bias correction.

The optimizer binds to an ordered list of (name, Tensor) pairs; moment
buffers mirror each tensor's shape. ``step`` reads each tensor's .grad and
checks all of them before it changes anything. State round-trips through
plain dicts for checkpointing.
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
        self.lr = float(lr)
        self.beta1, self.beta2 = float(betas[0]), float(betas[1])
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self.t = 0
        self.m = {n: np.zeros_like(t.data) for n, t in self.named}
        self.v = {n: np.zeros_like(t.data) for n, t in self.named}

    def step(self):
        """One update from each bound tensor's .grad. Every gradient is checked
        first, so a missing or misshapen one raises ContractViolation and leaves
        the optimizer and its tensors unchanged."""
        grads = []
        for name, tensor in self.named:
            if tensor.grad is None:
                raise ContractViolation(f"AdamW: missing gradient for {name}")
            g = np.asarray(tensor.grad)
            if g.shape != tensor.data.shape:
                raise ContractViolation(f"AdamW: grad shape {g.shape} vs parameter {name} {tensor.data.shape}")
            grads.append(g)
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for (name, tensor), g in zip(self.named, grads):
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            if self.weight_decay:
                tensor.data -= self.lr * self.weight_decay * tensor.data
            tensor.data -= self.lr * update

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
            lr, eps, weight_decay = (float(state[key]) for key in ("lr", "eps", "weight_decay"))
            betas = [float(b) for b in state["betas"]]
        except (TypeError, ValueError) as e:
            raise ContractViolation(f"AdamW: state holds a non-number: {e}") from None
        if t < 0 or t != state["t"]:
            raise ContractViolation(f"AdamW: state t must be a non-negative integer, got {state['t']!r}")
        if len(betas) != 2:
            raise ContractViolation(f"AdamW: state betas must hold 2 values, got {len(betas)}")
        if not all(math.isfinite(x) for x in (lr, eps, weight_decay, *betas)):
            raise ContractViolation("AdamW: state hyperparameters must be finite")
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
        self.m.update(moments["m"])
        self.v.update(moments["v"])
        self.t, self.lr, self.eps, self.weight_decay = t, lr, eps, weight_decay
        self.beta1, self.beta2 = betas
