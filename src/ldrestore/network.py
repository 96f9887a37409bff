"""The denoiser and its conditioning paths: encoder, control branch, prompt
embeddings, time embedding, and decoder.

Architecture (default config, 32x32 grayscale):

  encoder    conv3x3 -> silu -> avgpool2 -> conv3x3          image -> 8x16x16
  control    conv3x3(z_enc) + zeroconv1x1(z_enc, tile(prompt)) -> z_lq
  denoiser   conv3x3(z_t, z_lq) + time & prompt terms per item
             -> silu -> pool -> conv3x3 -> silu
             -> conv3x3 + zeroconv1x1(pool(z_lq)) -> silu
             -> upsample2+concat skip+conv3x3 (one node) -> silu -> conv3x3
  decoder    conv3x3 -> silu -> upsample2+conv3x3 (one node) -> silu
             -> conv1x1 -> sigmoid                            latent -> image

A conv written conv(a, b) takes the batch b as a second input of its node,
whose channels follow a's in the kernel (``tensor.conv2d``); tile(prompt)
is the prompt embedding, one vector per item, tiled over space.

Every parameter under "ctrl.zero." starts at exactly zero, so at
initialization the control conditioning and the bottleneck skip contribute
nothing and the network behaves as if those paths were absent.

Weights are applied at two sites, every convolution and the two dense
weights ``den.temb.w`` and ``den.pemb.w`` (``tensor.linear``), and both take
their weight from ``adapted_weight``: W plus each low-rank adapter's A @ B,
on the tape. A convolution is one ``tensor.conv2d`` node, its bias included
(3x3 or 1x1, same-padded, so it keeps its input's size), except the two
upsampling convs, each one ``tensor.upsample_conv2d`` node: the decoder's
``dec.conv2``, equal to ``conv2d(upsample2(h))``, and the denoiser's
``den.up``, which takes the skip h1 as the node's fourth input and equals
``conv2d(concat_channels(upsample2(h3), h1))``. Neither forms the
upsampled copy or the concat. ``den.conv_in`` takes z_lq as its second
input, so their concat is not formed either, and ``channel_bias`` then adds
the time and prompt terms, one row per item, FiLM-style conditioning (Perez
et al., arXiv 1709.07871). ``ctrl.zero.conv`` takes the prompt embedding
tiled over space by ``broadcast_spatial`` as its second input.
``lora.merge`` runs the same function without a tape, so a merged
weight is the one training used. Only ``tensor.py`` knows the
convolution's layout.

Every latent is a batch ``(n, c, h, w)``, the one spatial shape of the
tape, with one prompt-embedding row and one step per item. An ``Image`` is a
batch of one at the two ends: ``encode`` takes it as such, and ``decode``
turns a batch of one back into an ``Image``.
"""

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import tensor as T
from .dataset import FAMILIES
from .diffusion import check_step, step_indices
from .errors import ConfigurationError, DimensionError, ParameterError, is_integer
from .images import Image
from .rng import stream

QUALITY_TOKENS = ("high-quality", "low-quality")
PROMPT_VOCAB = FAMILIES + QUALITY_TOKENS
# prompt_embedding_batch takes no adapters, so this is the one weight no adapter
# applies to, and matrix_view_shape rejects it
PROMPT_TABLE = "prompt.table.w"
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
        for f in fields(self):
            v = getattr(self, f.name)
            if not is_integer(v) or v < 1:
                raise ConfigurationError(f"NetConfig.{f.name} must be an integer >= 1, got {v!r}")
            object.__setattr__(self, f.name, int(v))  # a numpy integer is stored as an int, which JSON takes
        if self.channels not in (1, 3):
            raise ConfigurationError(f"NetConfig.channels must be 1 or 3, got {self.channels}")
        # the encoder halves the image, and the denoiser pools the latent once more
        if self.image_size % (2 * DOWNSCALE):
            raise ConfigurationError(f"NetConfig.image_size must be a multiple of {2 * DOWNSCALE},"
                                     f" got {self.image_size}")
        if self.temb_dim % 2:
            raise ConfigurationError(f"temb_dim must be even, got {self.temb_dim}")

    @property
    def latent_size(self) -> int:
        return self.image_size // DOWNSCALE

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "NetConfig":
        unknown = sorted(map(str, set(d) - {f.name for f in fields(NetConfig)}))
        if unknown:
            raise ConfigurationError(f"NetConfig: unknown field(s) {', '.join(unknown)}")
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
        (PROMPT_TABLE, (len(PROMPT_VOCAB), c.prompt_dim), "unit"),
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

    def names(self) -> list:
        return list(self._tensors.keys())

    def items(self):
        return self._tensors.items()

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
        else:  # "unit"
            data = rng.normal(0.0, 1.0, size=shape)
        tensors[name] = T.Tensor(data, requires_grad=True)
    return NetParams(cfg, tensors)


# ---------------------------------------------------------------------------
# adapted weights: every weight site, training and lora.merge take them here


def matrix_view_shape(w: T.Tensor, name: str):
    """(d, k) of the 2-D view an adapter's A @ B is added to: a dense weight
    itself, a conv kernel as (out, in*kh*kw)."""
    if name == PROMPT_TABLE:
        raise ConfigurationError(f"lora target {name!r} is a lookup table; no adapter applies to it")
    if w.ndim == 2:
        return w.shape
    if w.ndim == 4:
        return (w.shape[0], w.size // w.shape[0])
    raise ConfigurationError(f"lora target {name!r} has rank {w.ndim}; need a 2-D (or conv) weight")


def adapted_weight(params: NetParams, name: str, adapters) -> T.Tensor:
    """params[name] plus A @ B of each adapter on it, in list order, as tape
    ops; ``DimensionError`` unless A is (d, r) and B (r, k) for its (d, k) view."""
    w = params[name]
    for a in adapters:
        if a.target == name:
            d, k = matrix_view_shape(w, name)
            if a.A.ndim != 2 or a.B.ndim != 2 or a.A.shape[0] != d or a.B.shape != (a.A.shape[1], k):
                raise DimensionError(f"adapter on {name!r}: A {a.A.shape} and B {a.B.shape} do not fit its"
                                     f" ({d}, {k}) view; need A ({d}, r) and B (r, {k})")
            w = T.add(w, T.reshape(T.matmul(a.A, a.B), w.shape))
    return w


def _conv(x: T.Tensor, params: NetParams, base: str, adapters) -> T.Tensor:
    return T.conv2d(x, adapted_weight(params, base + ".w", adapters), params[base + ".b"])


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
    """(1, prompt_dim): the mean of the table rows named by ``prompts`` (a
    token or list of tokens), the embedding of a batch of one."""
    return prompt_embedding_batch(params, [prompts])


def prompt_embedding_batch(params: NetParams, prompt_lists) -> T.Tensor:
    """(n, prompt_dim) embeddings, row i the mean embedding of prompt_lists[i]."""
    if not prompt_lists:
        raise ParameterError("empty batch of prompt lists")
    table = params[PROMPT_TABLE]
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
    """What ``denoise`` is conditioned on, for a latent batch z_t (n, c, h, w):
    a z_lq of the same shape and an ``(n, prompt_dim)`` embedding, one row
    per item (``prompt_embedding_batch``)."""

    z_lq: T.Tensor
    prompt: object  # token or list of tokens, kept for provenance; may be None
    prompt_embedding: T.Tensor


def encode(x, params: NetParams, adapters=()) -> T.Tensor:
    """(n, c, h, w) tensor, or an Image as a batch of one -> latent at half resolution."""
    if isinstance(x, Image):
        x = T.Tensor(x.data[None])
    h, w = x.shape[-2], x.shape[-1]
    if h % DOWNSCALE or w % DOWNSCALE:
        raise ConfigurationError(f"encode: dims {h}x{w} not divisible by {DOWNSCALE}")
    h1 = T.silu(_conv(x, params, "enc.conv1", adapters))
    return _conv(T.avg_pool2(h1), params, "enc.conv2", adapters)


def control_features(z_enc: T.Tensor, prompt_emb: T.Tensor, params: NetParams, adapters=()) -> T.Tensor:
    """z_lq = Conv(z_enc) + ZeroConv(z_enc ++ prompt); the zero path starts at 0.

    z_enc (n, c, h, w) takes prompt_emb (n, prompt_dim), one row per item;
    any other shape raises ``DimensionError`` before anything is computed.
    The prompt, tiled over space, is the zero conv's second input
    (``tensor.conv2d``), so z_enc and it are not concatenated.
    """
    want = (z_enc.shape[0], params.config.prompt_dim)
    if prompt_emb.shape != want:
        raise DimensionError(f"control: prompt embedding {prompt_emb.shape} vs latent {z_enc.shape}; need {want}")
    plain = _conv(z_enc, params, "ctrl.conv", adapters)
    w_zero = adapted_weight(params, "ctrl.zero.conv.w", adapters)
    tiled = T.broadcast_spatial(prompt_emb, *z_enc.shape[2:])
    return T.add(plain, T.conv2d(z_enc, w_zero, params["ctrl.zero.conv.b"], tiled))


def denoise(z_t: T.Tensor, t, cond: ConditioningBundle, params: NetParams, adapters=()) -> T.Tensor:
    """Predicted noise for the batch z_t (n, c, h, w) at physical step(s) t,
    a scalar or a length-n array of integers >= 0 (``ContractViolation``
    otherwise), conditioned on cond (``ConditioningBundle``).

    ``den.conv_in`` convolves z_t with cond.z_lq as its second input, and
    ``channel_bias`` adds the time and prompt terms, one row per item."""
    cfg = params.config
    z_lq, pemb = cond.z_lq, cond.prompt_embedding
    if z_t.ndim != 4 or z_t.shape[1] != cfg.c_lat or z_t.shape != z_lq.shape:
        raise DimensionError(f"denoise: z_t {z_t.shape} vs z_lq {z_lq.shape}")
    n = z_t.shape[0]
    if pemb.shape != (n, cfg.prompt_dim):
        raise DimensionError(f"denoise: prompt embedding {pemb.shape}, want ({n}, {cfg.prompt_dim})")
    tv = np.atleast_1d(step_indices(t))
    if tv.shape == (1,) and n > 1:
        tv = np.repeat(tv, n)
    if tv.shape != (n,):
        raise DimensionError(f"denoise: t has shape {tv.shape}, want ({n},)")

    tb = T.linear(time_embedding(tv, cfg.temb_dim), adapted_weight(params, "den.temb.w", adapters))
    pb = T.linear(pemb, adapted_weight(params, "den.pemb.w", adapters))
    w_in = adapted_weight(params, "den.conv_in.w", adapters)
    h1 = T.silu(T.channel_bias(T.conv2d(z_t, w_in, params["den.conv_in.b"], z_lq), T.add(tb, pb)))

    h2 = T.silu(_conv(T.avg_pool2(h1), params, "den.down", adapters))
    m = _conv(h2, params, "den.mid", adapters)
    h3 = T.silu(T.add(m, _conv(T.avg_pool2(z_lq), params, "ctrl.zero.sft", adapters)))

    h4 = T.silu(T.upsample_conv2d(h3, adapted_weight(params, "den.up.w", adapters), params["den.up.b"], h1))
    return _conv(h4, params, "den.conv_out", adapters)


def decode_tensor(z: T.Tensor, params: NetParams, adapters=()) -> T.Tensor:
    """Latent (n, c, h, w) -> image tensor in [0,1] (sigmoid output), differentiable."""
    h = T.silu(_conv(z, params, "dec.conv1", adapters))
    h = T.silu(T.upsample_conv2d(h, adapted_weight(params, "dec.conv2.w", adapters), params["dec.conv2.b"]))
    return T.sigmoid(_conv(h, params, "dec.out", adapters))


def decode(z: T.Tensor, params: NetParams, adapters=()) -> Image:
    """A batch of one latent (1, c, h, w) -> its Image."""
    if z.ndim != 4 or z.shape[0] != 1:
        raise DimensionError(f"decode: expected a batch of one latent (1, c, h, w), got {z.shape}")
    with T.no_grad():
        return Image(decode_tensor(z, params, adapters).data[0])


def make_denoiser(params: NetParams, sched, adapters=()):
    """Denoiser callable net(z_t, t, cond) with t an index into ``sched``;
    an index that is not an integer in [0, sched.T) raises ContractViolation.

    Maps schedule indices to physical timesteps via sched.base_t so respaced
    sampling sees the same embeddings as training.
    """

    def net(z_t, t, cond):
        return denoise(z_t, sched.base_t[check_step(sched, t)], cond, params, adapters)

    return net
