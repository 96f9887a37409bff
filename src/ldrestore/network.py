"""The denoiser and its conditioning paths: encoder, control branch, prompt
embeddings, time embedding, and decoder.

Architecture (default config, 32x32 grayscale):

  encoder    conv3x3 -> silu -> avgpool2 -> conv3x3          image -> 8x16x16
  control    conv3x3(z_enc) + zeroconv1x1(z_enc ++ prompt)   -> z_lq
  denoiser   concat(z_t, z_lq) -> conv3x3 (+ time & prompt channel biases)
             -> silu -> pool -> conv3x3 -> silu
             -> conv3x3 + zeroconv1x1(pool(z_lq)) -> silu
             -> upsample -> concat skip -> conv3x3 -> silu -> conv3x3
  decoder    conv3x3 -> silu -> upsample2 -> conv3x3 -> silu -> conv1x1
             -> sigmoid                                       latent -> image

Every parameter under "ctrl.zero." starts at exactly zero, so at
initialization the control conditioning and the bottleneck skip contribute
nothing and the network behaves as if those paths were absent.

Weights are applied at two sites, and low-rank adapters hook in at both:
every convolution, its bias included, is one ``tensor.conv2d`` tape node,
which takes the adapters' (A, B) pairs as deltas on the kernel's
(out, in*kh*kw) view, and the two dense weights (``den.temb.w``,
``den.pemb.w``) go through ``_apply_weight``. Only ``tensor.py`` knows the
convolution's layout.

The tape's spatial ops take batches ``(n, c, h, w)`` only. ``encode``,
``control_features``, ``denoise`` and ``decode_tensor`` also take a single
item ``(c, h, w)``, with a 1-D prompt embedding and a scalar step: they make
it a batch of one on the way in (``_add_batch``) and return a single item
(``_drop_batch``).
"""

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import tensor as T
from .dataset import FAMILIES
from .errors import ConfigurationError, DimensionError, ParameterError
from .images import Image
from .rng import stream

QUALITY_TOKENS = ("high-quality", "low-quality")
PROMPT_VOCAB = FAMILIES + QUALITY_TOKENS
DOWNSCALE = 2


@dataclass(frozen=True)
class NetConfig:
    image_size: int = 32
    channels: int = 1
    c_lat: int = 8
    c_enc: int = 12
    c_hid: int = 16
    c_mid: int = 24
    prompt_dim: int = 16
    temb_dim: int = 8

    def __post_init__(self):
        if self.image_size % DOWNSCALE:
            raise ConfigurationError(f"image_size {self.image_size} not divisible by {DOWNSCALE}")
        if self.temb_dim % 2:
            raise ConfigurationError(f"temb_dim must be even, got {self.temb_dim}")

    @property
    def latent_size(self) -> int:
        return self.image_size // DOWNSCALE

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "NetConfig":
        return NetConfig(**d)


def parameter_plan(cfg: NetConfig) -> list:
    """Fixed creation order of (name, shape, init) triples; init is
    "gauss" (std 1/sqrt(fan_in)), "unit" (std 1), or "zero"."""
    c = cfg
    return [
        ("enc.conv1.w", (c.c_enc, c.channels, 3, 3), "gauss"),
        ("enc.conv1.b", (c.c_enc,), "zero"),
        ("enc.conv2.w", (c.c_lat, c.c_enc, 3, 3), "gauss"),
        ("enc.conv2.b", (c.c_lat,), "zero"),
        ("ctrl.conv.w", (c.c_lat, c.c_lat, 3, 3), "gauss"),
        ("ctrl.conv.b", (c.c_lat,), "zero"),
        ("ctrl.zero.conv.w", (c.c_lat, c.c_lat + c.prompt_dim, 1, 1), "zero"),
        ("ctrl.zero.conv.b", (c.c_lat,), "zero"),
        ("ctrl.zero.sft.w", (c.c_mid, c.c_lat, 1, 1), "zero"),
        ("ctrl.zero.sft.b", (c.c_mid,), "zero"),
        ("den.temb.w", (c.c_hid, c.temb_dim), "gauss"),
        ("den.pemb.w", (c.c_hid, c.prompt_dim), "gauss"),
        ("den.conv_in.w", (c.c_hid, 2 * c.c_lat, 3, 3), "gauss"),
        ("den.conv_in.b", (c.c_hid,), "zero"),
        ("den.down.w", (c.c_mid, c.c_hid, 3, 3), "gauss"),
        ("den.down.b", (c.c_mid,), "zero"),
        ("den.mid.w", (c.c_mid, c.c_mid, 3, 3), "gauss"),
        ("den.mid.b", (c.c_mid,), "zero"),
        ("den.up.w", (c.c_hid, c.c_mid + c.c_hid, 3, 3), "gauss"),
        ("den.up.b", (c.c_hid,), "zero"),
        ("den.conv_out.w", (c.c_lat, c.c_hid, 3, 3), "gauss"),
        ("den.conv_out.b", (c.c_lat,), "zero"),
        ("dec.conv1.w", (c.c_enc, c.c_lat, 3, 3), "gauss"),
        ("dec.conv1.b", (c.c_enc,), "zero"),
        ("dec.conv2.w", (c.c_enc, c.c_enc, 3, 3), "gauss"),
        ("dec.conv2.b", (c.c_enc,), "zero"),
        ("dec.out.w", (c.channels, c.c_enc, 1, 1), "gauss"),
        ("dec.out.b", (c.channels,), "zero"),
        ("prompt.table.w", (len(PROMPT_VOCAB), c.prompt_dim), "unit"),
    ]


class NetParams:
    """Ordered name -> Tensor map; iteration order is the checkpoint order."""

    def __init__(self, config: NetConfig, tensors: dict):
        self.config = config
        self._tensors = dict(tensors)

    def __getitem__(self, name: str) -> T.Tensor:
        try:
            return self._tensors[name]
        except KeyError:
            raise ParameterError(f"unknown parameter {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._tensors

    def names(self) -> list:
        return list(self._tensors.keys())

    def items(self):
        return self._tensors.items()

    def tensors(self) -> list:
        return list(self._tensors.values())

    def zero_grads(self):
        for t in self._tensors.values():
            t.grad = None


def init_params(cfg: NetConfig, seed: int) -> NetParams:
    rng = stream(seed, "init")
    tensors = {}
    for name, shape, kind in parameter_plan(cfg):
        if kind == "zero":
            data = np.zeros(shape)
        elif kind == "gauss":
            fan_in = int(np.prod(shape[1:]))
            data = rng.normal(0.0, 1.0 / math.sqrt(fan_in), size=shape)
        elif kind == "unit":
            data = rng.normal(0.0, 1.0, size=shape)
        else:
            raise ConfigurationError(f"unknown init kind {kind!r}")
        tensors[name] = T.Tensor(data, requires_grad=True)
    return NetParams(cfg, tensors)


# ---------------------------------------------------------------------------
# adapter routing: weights are applied by _apply_weight (dense) and _conv


def _adapter_map(adapters) -> dict:
    by_target = {}
    for a in adapters or ():
        if a.enabled:
            by_target.setdefault(a.target, []).append(a)
    return by_target


def _apply_weight(x2d: T.Tensor, params: NetParams, name: str, adapters: dict) -> T.Tensor:
    """y = x @ W.T for a 2-D weight, plus any attached low-rank deltas x @ (A B).T."""
    y = T.linear(x2d, params[name])
    for a in adapters.get(name, ()):
        y = T.add(y, T.linear(T.linear(x2d, a.B), a.A))
    return y


def _conv(x: T.Tensor, params: NetParams, base: str, padding: int, adapters: dict) -> T.Tensor:
    deltas = [(a.A, a.B) for a in adapters.get(base + ".w", ())]
    return T.conv2d(x, params[base + ".w"], padding, deltas, params[base + ".b"])


# ---------------------------------------------------------------------------
# prompt and time embeddings


def prompt_ids(prompts) -> list:
    if isinstance(prompts, str):
        prompts = [prompts]
    if not prompts:
        raise ParameterError("empty prompt list")
    ids = []
    for p in prompts:
        if p not in PROMPT_VOCAB:
            raise ParameterError(f"unknown prompt token {p!r}; vocabulary: {', '.join(PROMPT_VOCAB)}")
        ids.append(PROMPT_VOCAB.index(p))
    return ids


def prompt_embedding(params: NetParams, prompts) -> T.Tensor:
    """Mean of the table rows named by ``prompts`` (a token or list of tokens)."""
    return T.reshape(prompt_embedding_batch(params, [prompts]), (params.config.prompt_dim,))


def prompt_embedding_batch(params: NetParams, prompt_lists) -> T.Tensor:
    """(n, prompt_dim) embeddings, row i the mean embedding of prompt_lists[i]."""
    table = params["prompt.table.w"]
    weights = np.zeros((len(prompt_lists), table.shape[0]))
    for i, prompts in enumerate(prompt_lists):
        ids = prompt_ids(prompts)
        for j in ids:
            weights[i, j] += 1.0 / len(ids)
    return T.matmul(T.Tensor(weights), table)


def time_embedding(t, dim: int) -> T.Tensor:
    """Sinusoidal embedding of (physical) step indices; t scalar or 1-D array."""
    tv = np.atleast_1d(np.asarray(t, dtype=np.float64))
    half = dim // 2
    freqs = np.exp(-math.log(10000.0) * np.arange(half) / max(half - 1, 1))
    ang = tv[:, None] * freqs[None, :]
    return T.Tensor(np.concatenate([np.sin(ang), np.cos(ang)], axis=1))


# ---------------------------------------------------------------------------
# encoder / control / denoiser / decoder


@dataclass
class ConditioningBundle:
    z_lq: T.Tensor
    prompt: object = None  # token or list of tokens, kept for provenance
    prompt_embedding: T.Tensor = None


def _as_tensor_image(img) -> T.Tensor:
    if isinstance(img, Image):
        return T.Tensor(img.data)
    if isinstance(img, T.Tensor):
        return img
    return T.Tensor(img)


def _add_batch(x: T.Tensor, single: bool) -> T.Tensor:
    """x with a leading batch axis of one if single, else x itself."""
    return T.reshape(x, (1,) + x.shape) if single else x


def _drop_batch(y: T.Tensor, single: bool) -> T.Tensor:
    """The one item of a batch-of-one output if single, else y itself."""
    return T.reshape(y, y.shape[1:]) if single else y


def encode(img, params: NetParams, adapters=()) -> T.Tensor:
    """Image (or (c,h,w)/(n,c,h,w) tensor) -> latent at half resolution."""
    x = _as_tensor_image(img)
    h, w = x.shape[-2], x.shape[-1]
    if h % DOWNSCALE or w % DOWNSCALE:
        raise ConfigurationError(f"encode: dims {h}x{w} not divisible by {DOWNSCALE}")
    single = x.ndim == 3
    amap = _adapter_map(adapters)
    h1 = T.silu(_conv(_add_batch(x, single), params, "enc.conv1", 1, amap))
    return _drop_batch(_conv(T.avg_pool2(h1), params, "enc.conv2", 1, amap), single)


def encode_array(params: NetParams, arr: np.ndarray) -> np.ndarray:
    """Latent features as a plain array, no tape (metrics back end)."""
    with T.no_grad():
        return encode(T.Tensor(arr), params).data


def control_features(z_enc: T.Tensor, prompt_emb: T.Tensor, params: NetParams,
                     adapters=(), include_zero: bool = True) -> T.Tensor:
    """z_lq = Conv(z_enc) + ZeroConv(z_enc ++ prompt); the zero path starts at 0.

    z_enc (n,c,h,w) takes prompt_emb (n, prompt_dim), and z_enc (c,h,w) a
    1-D prompt_emb. ``include_zero=False`` drops the zero-initialized path
    entirely (used by neutrality checks; at init the two variants agree
    bit-for-bit).
    """
    single = z_enc.ndim == 3
    z, pemb = _add_batch(z_enc, single), _add_batch(prompt_emb, single)
    amap = _adapter_map(adapters)
    plain = _conv(z, params, "ctrl.conv", 1, amap)
    if not include_zero:
        return _drop_batch(plain, single)
    if pemb.ndim != 2 or pemb.shape[0] != z.shape[0]:
        raise DimensionError(f"control: prompt embedding {prompt_emb.shape} vs latent {z_enc.shape}")
    zc_in = T.concat_channels(z, T.broadcast_spatial(pemb, z.shape[2], z.shape[3]))
    zero = _conv(zc_in, params, "ctrl.zero.conv", 0, amap)
    return _drop_batch(T.add(plain, zero), single)


def denoise(z_t: T.Tensor, t, cond: ConditioningBundle, params: NetParams,
            adapters=(), include_zero: bool = True) -> T.Tensor:
    """Predicted noise for z_t at physical step(s) t, conditioned on cond.

    A single latent (c,h,w) takes a single z_lq, a 1-D prompt embedding and
    a scalar t; a batch (n,c,h,w) takes batches of both and t a scalar or a
    length-n array.
    """
    cfg = params.config
    single = z_t.ndim == 3
    x, z_lq = _add_batch(z_t, single), _add_batch(cond.z_lq, single)
    if x.ndim != 4 or x.shape[1] != cfg.c_lat or x.shape != z_lq.shape:
        raise DimensionError(f"denoise: z_t {z_t.shape} vs z_lq {cond.z_lq.shape}")
    pemb = _add_batch(cond.prompt_embedding, single)
    n = x.shape[0]
    if pemb.shape != (n, cfg.prompt_dim):
        raise DimensionError(f"denoise: prompt embedding {pemb.shape}, want ({n}, {cfg.prompt_dim})")
    tv = np.atleast_1d(np.asarray(t, dtype=np.int64))
    if tv.shape == (1,) and n > 1:
        tv = np.repeat(tv, n)
    if tv.shape != (n,):
        raise DimensionError(f"denoise: t has shape {tv.shape}, want ({n},)")

    amap = _adapter_map(adapters)
    h = _conv(T.concat_channels(x, z_lq), params, "den.conv_in", 1, amap)
    tb = _apply_weight(time_embedding(tv, cfg.temb_dim), params, "den.temb.w", amap)
    pb = _apply_weight(pemb, params, "den.pemb.w", amap)
    h1 = T.silu(T.channel_bias(h, T.add(tb, pb)))

    h2 = T.silu(_conv(T.avg_pool2(h1), params, "den.down", 1, amap))
    m = _conv(h2, params, "den.mid", 1, amap)
    if include_zero:
        m = T.add(m, _conv(T.avg_pool2(z_lq), params, "ctrl.zero.sft", 0, amap))
    h3 = T.silu(m)

    cat = T.concat_channels(T.upsample2(h3), h1)
    h4 = T.silu(_conv(cat, params, "den.up", 1, amap))
    return _drop_batch(_conv(h4, params, "den.conv_out", 1, amap), single)


def decode_tensor(z: T.Tensor, params: NetParams, adapters=()) -> T.Tensor:
    """Latent (c,h,w) or (n,c,h,w) -> image tensor in [0,1] (sigmoid output), differentiable."""
    cfg = params.config
    single = z.ndim == 3
    zb = _add_batch(z, single)
    if zb.ndim != 4 or zb.shape[1] != cfg.c_lat:
        raise DimensionError(f"decode: latent {z.shape}, want {cfg.c_lat} channels")
    amap = _adapter_map(adapters)
    h = T.silu(_conv(zb, params, "dec.conv1", 1, amap))
    h = T.silu(_conv(T.upsample2(h), params, "dec.conv2", 1, amap))
    return _drop_batch(T.sigmoid(_conv(h, params, "dec.out", 0, amap)), single)


def decode(z: T.Tensor, params: NetParams, adapters=()) -> Image:
    with T.no_grad():
        out = decode_tensor(z, params, adapters)
    if out.ndim != 3:
        raise DimensionError(f"decode: expected a single latent, got {z.shape}")
    return Image(out.data)


def make_denoiser(params: NetParams, sched, adapters=()):
    """Denoiser callable net(z_t, t, cond) with t an index into ``sched``.

    Maps schedule indices to physical timesteps via sched.base_t so respaced
    sampling sees the same embeddings as training.
    """

    def net(z_t, t, cond):
        t_phys = sched.base_t[np.asarray(t, dtype=np.int64)]
        return denoise(z_t, t_phys, cond, params, adapters)

    return net
