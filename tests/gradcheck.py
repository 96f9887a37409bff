"""Central-difference gradient oracles shared by the test files."""

import numpy as np

from ldrestore import tensor as T


def numeric_grad(f, x, eps=1e-6):
    """Central differences over every coordinate of x."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp = x.copy()
        xp[idx] += eps
        xm = x.copy()
        xm[idx] -= eps
        g[idx] = (f(xp) - f(xm)) / (2 * eps)
        it.iternext()
    return g


def grad_error(f, x: T.Tensor) -> float:
    """Max relative error between the tape's gradient of f at x and ``numeric_grad``'s.

    f must be a deterministic scalar-valued function of a single tensor; the
    relative error at each coordinate is |analytic - numeric| divided by
    max(1e-8, |analytic| + |numeric|). Both sides are computed in float64
    whatever the caller's compute dtype, so float32 rounding does not swamp
    the differences; tensors f closes over take part at the values they hold.
    """
    with T.float64():
        x0 = T.Tensor(x.data).data
        probe = T.Tensor(x0.copy(), requires_grad=True)
        out1 = f(probe)
        out2 = f(T.Tensor(x0.copy(), requires_grad=True))
        assert out1.shape == () and out2.shape == (), "grad_error: f must return a scalar"
        assert np.array_equal(out1.data, out2.data), "grad_error: f is not deterministic"

        T.backward(out1)
        analytic = probe.grad if probe.grad is not None else np.zeros_like(x0)
        with T.no_grad():
            numeric = numeric_grad(lambda v: f(T.Tensor(v)).item(), x0, eps=1e-5)

        denom = np.maximum(1e-8, np.abs(analytic) + np.abs(numeric))
        return float(np.max(np.abs(analytic - numeric) / denom))
