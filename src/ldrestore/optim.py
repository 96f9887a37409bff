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
        for n, tensor in self.named:
            if n not in state["m"]:
                raise ContractViolation(f"AdamW: state missing moments for {n}")
            m, v = np.asarray(state["m"][n]), np.asarray(state["v"][n])
            if m.shape != tensor.data.shape or v.shape != tensor.data.shape:
                raise ContractViolation(
                    f"AdamW: state shape {m.shape} vs parameter {n} {tensor.data.shape}"
                )
            # in the parameter's dtype: a checkpoint stores the moments widened to float64
            self.m[n] = m.astype(tensor.data.dtype)
            self.v[n] = v.astype(tensor.data.dtype)
        self.t = int(state["t"])
        self.lr = float(state["lr"])
        self.beta1, self.beta2 = (float(b) for b in state["betas"])
        self.eps = float(state["eps"])
        self.weight_decay = float(state["weight_decay"])
