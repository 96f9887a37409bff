"""AdamW with decoupled weight decay and bias correction.

The optimizer binds to an ordered list of (name, Tensor) pairs; moment
buffers mirror each tensor's shape. ``step`` reads gradients from the
tensors' .grad slots unless an explicit list is given. State round-trips
through plain dicts for checkpointing.
"""

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

    def step(self, grads=None):
        """One update; grads is a list aligned with the bound tensors, or None
        to read each tensor's .grad."""
        if grads is None:
            grads = [t.grad for _, t in self.named]
        if len(grads) != len(self.named):
            raise ContractViolation(f"AdamW: {len(grads)} grads for {len(self.named)} parameters")
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for (name, tensor), g in zip(self.named, grads):
            if g is None:
                raise ContractViolation(f"AdamW: missing gradient for {name}")
            g = np.asarray(g)
            if g.shape != tensor.data.shape:
                raise ContractViolation(
                    f"AdamW: grad shape {g.shape} vs parameter {name} {tensor.data.shape}"
                )
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
        """Restore a ``state_dict``. Every field is read and checked before any
        is assigned, so a state that lacks one or whose moments do not fit
        raises ContractViolation and leaves the optimizer unchanged."""
        for key in ("t", "lr", "betas", "eps", "weight_decay", "m", "v"):
            if key not in state:
                raise ContractViolation(f"AdamW: state missing {key!r}")
        moments = {"m": {}, "v": {}}
        for key, loaded in moments.items():
            for n, tensor in self.named:
                if n not in state[key]:
                    raise ContractViolation(f"AdamW: state missing {key}[{n!r}]")
                x = np.asarray(state[key][n])
                if x.shape != tensor.data.shape:
                    raise ContractViolation(
                        f"AdamW: state {key} shape {x.shape} vs parameter {n} {tensor.data.shape}"
                    )
                # in the parameter's dtype: a checkpoint stores the moments widened to float64
                loaded[n] = x.astype(tensor.data.dtype)
        t, lr, eps = int(state["t"]), float(state["lr"]), float(state["eps"])
        weight_decay = float(state["weight_decay"])
        beta1, beta2 = (float(b) for b in state["betas"])
        self.m.update(moments["m"])
        self.v.update(moments["v"])
        self.t, self.lr, self.eps, self.weight_decay = t, lr, eps, weight_decay
        self.beta1, self.beta2 = beta1, beta2
