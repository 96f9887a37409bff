"""Per-layer timing from outside the library.

``Tracer.install`` swaps public functions of ldrestore's modules for timed
wrappers; ``uninstall`` puts the originals back. The library looks these names
up on their modules at call time (``network.py`` calls ``T.im2col``,
``make_denoiser`` calls ``denoise``), so every call is seen without editing
the library. For tensor ops the returned tape node's ``backward`` closure is
wrapped too, which times the backward pass per op and counts the gradient
outputs the tape walk keeps or drops.

Spans are aggregated in memory as they close: per name, total and self time
(the duration minus that of the spans opened inside it), call count and
bytes of the arrays returned. ``take`` hands the aggregate over and resets it.
"""

from contextlib import contextmanager
from time import perf_counter

from ldrestore import checkpoint, dataset, degrade, diffusion, lora, metrics, network, optim
from ldrestore import tensor as T

# Tensor ops reported under their own name, then every other op that records
# a tape node, reported together as "other". An op added to the library later
# is not timed until it is listed here.
TENSOR_OPS = (
    "im2col",
    "linear",
    "fold_channels_last",
    "silu",
    "sigmoid",
    "avg_pool2",
    "upsample2",
    "channel_bias",
    "concat_channels",
    "reshape",
)
OTHER_TENSOR_OPS = (
    "add",
    "add_scalar",
    "mul",
    "scale",
    "relu",
    "tsum",
    "tmean",
    "mse",
    "frobenius_norm_sq",
    "broadcast_spatial",
    "row_scale",
    "embedding_lookup",
    "matmul",
)

# (module, attribute, span name) of the non-tensor functions timed.
LAYER_FUNCTIONS = (
    (network, "encode", "network.encode"),
    (network, "control_features", "network.control_features"),
    (network, "denoise", "network.denoise"),
    (network, "decode_tensor", "network.decode_tensor"),
    (network, "init_params", "network.init_params"),
    (diffusion, "sample", "diffusion.sample"),
    (diffusion, "forward_diffuse_batch", "diffusion.forward_diffuse_batch"),
    (lora, "reg_loss", "lora.reg_loss"),
    (lora, "attach", "lora.attach"),
    (optim.AdamW, "step", "optim.AdamW.step"),
    (degrade, "apply", "degrade.apply"),
    (dataset, "synth_dataset", "dataset.synth_dataset"),
    (checkpoint, "save_checkpoint", "checkpoint.save_checkpoint"),
    (checkpoint, "load_checkpoint", "checkpoint.load_checkpoint"),
    (metrics, "psnr", "metrics.psnr"),
    (metrics, "ssim", "metrics.ssim"),
    (metrics, "perceptual_proxy", "metrics.perceptual_proxy"),
    (T, "backward", "tensor.backward"),
)


class Stat:
    __slots__ = ("total", "self_time", "calls", "bytes_out")

    def __init__(self):
        self.total = 0.0
        self.self_time = 0.0
        self.calls = 0
        self.bytes_out = 0


class Tracer:
    def __init__(self):
        self.stats = {}
        self.denoiser_calls = 0  # network.denoise spans opened directly in diffusion.sample
        self.grads_total = 0  # gradient arrays returned by backward closures
        self.grads_useful = 0  # ... of which the tape walk accumulates
        self._stack = []  # open spans: [name, time covered by child spans]
        self._saved = []

    def take(self) -> dict:
        out = {
            "stats": self.stats,
            "denoiser_calls": self.denoiser_calls,
            "grads_total": self.grads_total,
            "grads_useful": self.grads_useful,
        }
        self.stats = {}
        self.denoiser_calls = self.grads_total = self.grads_useful = 0
        return out

    def call(self, name, fn, *args, **kwargs):
        """Run fn as one span called name."""
        stack = self._stack
        frame = [name, 0.0]
        stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = perf_counter() - t0
            stack.pop()
            if stack:
                parent = stack[-1]
                parent[1] += dur
                if name == "network.denoise" and parent[0] == "diffusion.sample":
                    self.denoiser_calls += 1
            st = self.stats.get(name)
            if st is None:
                st = self.stats[name] = Stat()
            st.total += dur
            st.self_time += dur - frame[1]
            st.calls += 1

    def _timed(self, name, fn):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return wrapper

    def _timed_op(self, group, fn):
        fwd, bwd = f"tensor.{group}", f"tensor.{group}.bwd"

        def wrapper(*args, **kwargs):
            out = self.call(fwd, fn, *args, **kwargs)
            self.stats[fwd].bytes_out += out.data.nbytes
            node = out.node
            if node is not None:
                node.backward = self._timed_backward(bwd, node)
            return out

        return wrapper

    def _timed_backward(self, name, node):
        inner, inputs = node.backward, node.inputs

        def backward(g):
            grads = self.call(name, inner, g)
            for inp, gi in zip(inputs, grads):
                if gi is not None:
                    self.grads_total += 1
                    # the test the tape walk applies before it keeps a gradient
                    self.grads_useful += inp.requires_grad or inp.node is not None
            return grads

        return backward

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for op in TENSOR_OPS:
            self._patch(T, op, self._timed_op(op, getattr(T, op)))
        for op in OTHER_TENSOR_OPS:
            self._patch(T, op, self._timed_op("other", getattr(T, op)))
        for owner, attr, name in LAYER_FUNCTIONS:
            self._patch(owner, attr, self._timed(name, getattr(owner, attr)))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def unit(name: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if "ms" in name.replace(".", "_").split("_"):
        return "ms"
    if name.endswith("bytes_out"):
        return "B"
    if name.endswith("frac"):
        return "ratio"
    return "count"


SETUP_SPANS = ("dataset.synth_dataset", "network.init_params", "checkpoint.save_checkpoint",
               "checkpoint.load_checkpoint", "lora.attach")


def per_layer(setup: dict, setups: int, ops: dict, n_ops: int, overflows: int,
              evals: dict, n_eval: int, eval_overflows: int) -> dict:
    """Per-layer metrics from the aggregates ``take`` returned.

    Op metrics are per traced op, set-up metrics per set-up, ``eval.*`` per
    restored eval image and ``metrics.*`` per eval pass. Calls, bytes,
    useful_frac, denoiser_calls and overflow_warnings are exact counts; *_ms
    are wall times of calls made through the wrappers."""
    n = max(1, n_ops)

    def ms(bucket, name, per=n, field="total"):
        st = bucket["stats"].get(name)
        return 1e3 * getattr(st, field) / per if st else 0.0

    def count(name, field):
        st = ops["stats"].get(name)
        return getattr(st, field) / n if st else 0.0

    out = {}
    for op in TENSOR_OPS + ("other",):
        out[f"tensor.{op}.fwd_ms"] = ms(ops, f"tensor.{op}")
        out[f"tensor.{op}.bwd_ms"] = ms(ops, f"tensor.{op}.bwd")
        out[f"tensor.{op}.calls"] = count(f"tensor.{op}", "calls")
        out[f"tensor.{op}.bytes_out"] = count(f"tensor.{op}", "bytes_out")
    out["tensor.backward.ms"] = ms(ops, "tensor.backward")
    out["tensor.backward.self_ms"] = ms(ops, "tensor.backward", field="self_time")
    out["tensor.bwd.useful_frac"] = ops["grads_useful"] / ops["grads_total"] if ops["grads_total"] else 0.0
    out["tensor.overflow_warnings"] = overflows / n
    for fn in ("encode", "control_features", "denoise", "decode_tensor"):
        out[f"network.{fn}.ms"] = ms(ops, f"network.{fn}")
        out[f"network.{fn}.calls"] = count(f"network.{fn}", "calls")
    out["diffusion.forward_diffuse_batch.ms"] = ms(ops, "diffusion.forward_diffuse_batch")
    for name in ("lora.reg_loss", "optim.AdamW.step", "degrade.apply"):
        out[name + ".ms"] = ms(ops, name)
    out["dataset.batch_wait_ms"] = ms(ops, "dataset.batch_wait")
    per_image = max(1, n_eval)
    out["eval.diffusion.sample.ms"] = ms(evals, "diffusion.sample", per=per_image)
    out["eval.diffusion.sample.self_ms"] = ms(evals, "diffusion.sample", per=per_image, field="self_time")
    out["eval.network.denoise.ms"] = ms(evals, "network.denoise", per=per_image)
    out["eval.diffusion.denoiser_calls"] = evals["denoiser_calls"] / per_image
    out["eval.tensor.overflow_warnings"] = eval_overflows / per_image
    for fn in ("psnr", "ssim", "perceptual_proxy"):
        out[f"metrics.{fn}.ms"] = ms(evals, f"metrics.{fn}", per=1)
    for name in SETUP_SPANS:
        out[name + ".ms"] = ms(setup, name, per=max(1, setups))
    return out
