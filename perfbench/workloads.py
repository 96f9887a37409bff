"""The three user paths the benchmark drives, written against ldrestore's
public functions only.

Every call into the library goes through a module attribute
(``network.encode``, ``tensor.backward``, ...) so that ``tracer.Tracer`` can
time it by swapping that attribute; nothing here imports a library function
by name.

A workload is built from a ``Profile`` and a seed. Building it is the set-up
a user pays once; ``prepare(i)`` makes the inputs of op ``i`` (the time a step
waits for its batch) and ``step(inputs)`` runs the op and returns its output:
a loss for the training paths, a restored image for ``restore``.
"""

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from ldrestore import checkpoint, dataset, degrade, diffusion, lora, metrics, network, optim, rng
from ldrestore import tensor as T

# Inputs of the reference outputs and of the eval set; independent of --seed so
# that stored references and psnr/ssim apply to every run.
REF_SEED = 20240830
PROMPT_QUALITY = "high-quality"


@dataclass(frozen=True)
class Profile:
    net_cfg: network.NetConfig = field(default_factory=network.NetConfig)
    lora_cfg: lora.LoraConfig = field(default_factory=lora.LoraConfig)
    batch: int = 8
    dataset_size: int = 64
    schedule_steps: int = 1000
    beta_start: float = 1e-4
    beta_end: float = 0.02
    sample_steps: int = 50
    lr: float = 1e-3
    ref_steps: int = 4
    eval_size: int = 4

    def record(self) -> dict:
        return dict(asdict(self), recipes=list(degrade.BENCHMARK_RECIPES))


PROFILES = {
    "default": Profile(),
    # Small enough for the smoke test to run every workload in a few seconds.
    "tiny": Profile(
        net_cfg=network.NetConfig(image_size=16, c_lat=4, c_enc=4, c_hid=8, c_mid=8, prompt_dim=8, temb_dim=4),
        batch=2,
        dataset_size=8,
        schedule_steps=100,
        sample_steps=5,
        ref_steps=2,
        eval_size=2,
    ),
}


def _seeds(seed: int, i: int, n: int) -> list:
    return [int(s) for s in rng.stream(seed, "perfbench.op", i).integers(0, 2**31, size=n)]


def restore_image(params, sched, item, spec, degrade_seed: int, sample_seed: int):
    """Degrade one clean item, then restore it by prompt-guided sampling."""
    lq = degrade.apply(spec, item.clean, degrade_seed)
    with T.no_grad():
        z_enc = network.encode(lq, params)
        prompt = [item.prompt, PROMPT_QUALITY]
        pemb = network.prompt_embedding(params, prompt)
        z_lq = network.control_features(z_enc, pemb, params)
        cond = network.ConditioningBundle(z_lq, prompt, pemb)
        net = network.make_denoiser(params, sched)
        z0 = diffusion.sample(net, z_lq.shape, cond, sched, sample_seed)
    return network.decode(z0, params)


class Workload:
    """Set-up shared by all paths: data, weights through a checkpoint round
    trip, and the schedules."""

    name = ""

    def __init__(self, profile: Profile, seed: int, ckpt_path):
        self.profile = profile
        self.seed = seed
        cfg = profile.net_cfg
        self.data = dataset.synth_dataset(seed, profile.dataset_size, cfg.image_size)
        init = network.init_params(cfg, seed)
        sched_rec = {"T": profile.schedule_steps, "beta_start": profile.beta_start, "beta_end": profile.beta_end}
        checkpoint.save_checkpoint(
            ckpt_path, "base", cfg.to_dict(), sched_rec,
            [(n, t.data) for n, t in init.items()], {"seed": seed},
        )
        ck = checkpoint.load_checkpoint(ckpt_path)
        self.params = network.NetParams(
            network.NetConfig.from_dict(ck.config),
            {n: T.Tensor(a, requires_grad=True) for n, a in ck.arrays.items()},
        )
        self.adapters = []
        self.sched = diffusion.make_schedule(profile.schedule_steps, profile.beta_start, profile.beta_end)
        self.sample_sched = diffusion.respace(self.sched, profile.sample_steps)
        self.specs = degrade.benchmark_specs()
        self.batches = dataset.batches(self.data, profile.batch, seed)

    @property
    def items_per_op(self) -> int:
        return self.profile.batch

    def _noise(self, i: int, n: int):
        g = rng.stream(self.seed, "perfbench.noise", i)
        cfg = self.profile.net_cfg
        t = g.integers(0, self.sched.T, size=n)
        eps = g.standard_normal((n, cfg.c_lat, cfg.latent_size, cfg.latent_size))
        return t, eps

    def _ldm_loss(self, z0, z_cond, prompts, t, eps):
        """Noise-prediction MSE of the denoiser on z0 diffused to steps t."""
        params, adapters = self.params, self.adapters
        pemb = network.prompt_embedding_batch(params, prompts)
        z_lq = network.control_features(z_cond, pemb, params, adapters)
        cond = network.ConditioningBundle(z_lq, prompts, pemb)
        eps_t = T.Tensor(eps)
        z_t = diffusion.forward_diffuse_batch(z0, t, eps_t, self.sched)
        return T.mse(eps_t, network.denoise(z_t, t, cond, params, adapters))

    @staticmethod
    def valid(out) -> bool:
        return math.isfinite(out)


class TrainBase(Workload):
    """One base training step: LDM loss plus decoder reconstruction, AdamW
    over every parameter."""

    name = "train_base"

    def __init__(self, profile, seed, ckpt_path):
        super().__init__(profile, seed, ckpt_path)
        self.opt = optim.AdamW(self.params.items(), lr=profile.lr)

    def prepare(self, i):
        batch = next(self.batches)
        x = np.stack([it.clean.data for it in batch])
        prompts = [[it.prompt, PROMPT_QUALITY] for it in batch]
        return (x, prompts) + self._noise(i, len(batch))

    def step(self, inputs) -> float:
        x, prompts, t, eps = inputs
        params = self.params
        x_t = T.Tensor(x)
        z0 = network.encode(x_t, params)
        # The reconstruction term is what gives the decoder weights a gradient.
        recon = T.mse(network.decode_tensor(z0, params), x_t)
        loss = T.add(self._ldm_loss(z0, z0, prompts, t, eps), recon)
        params.zero_grads()
        T.backward(loss)
        self.opt.step()
        return loss.item()


class FinetuneLora(Workload):
    """One adapter step on (clean, degraded) pairs with every base weight frozen."""

    name = "finetune_lora"

    def __init__(self, profile, seed, ckpt_path):
        super().__init__(profile, seed, ckpt_path)
        for _, t in self.params.items():
            t.requires_grad = False
        self.adapters = lora.attach(self.params, profile.lora_cfg, seed)
        named = []
        for a in self.adapters:
            named += [(a.target + ".A", a.A), (a.target + ".B", a.B)]
        self.opt = optim.AdamW(named, lr=profile.lr)

    def prepare(self, i):
        batch = next(self.batches)
        specs = self.specs
        seeds = _seeds(self.seed, i, len(batch))
        lq = [
            degrade.apply(specs[(i * len(batch) + j) % len(specs)], it.clean, seeds[j])
            for j, it in enumerate(batch)
        ]
        x = np.stack([it.clean.data for it in batch])
        y = np.stack([im.data for im in lq])
        prompts = [[it.prompt, PROMPT_QUALITY] for it in batch]
        return (x, y, prompts) + self._noise(i, len(batch))

    def step(self, inputs) -> float:
        x, y, prompts, t, eps = inputs
        params, adapters = self.params, self.adapters
        z0 = network.encode(T.Tensor(x), params)
        z_lq_enc = network.encode(T.Tensor(y), params, adapters)
        loss = T.add(
            self._ldm_loss(z0, z_lq_enc, prompts, t, eps),
            lora.reg_loss(adapters, self.profile.lora_cfg.reg_lambda),
        )
        lora.zero_adapter_grads(adapters)
        T.backward(loss)
        self.opt.step()
        return loss.item()


class Restore(Workload):
    """One low-quality image restored: degrade, encode, control, sample, decode."""

    name = "restore"

    @property
    def items_per_op(self) -> int:
        return 1

    def prepare(self, i):
        item = self.data[i % len(self.data)]
        spec = self.specs[i % len(self.specs)]
        return (item, spec) + tuple(_seeds(self.seed, i, 2))

    def step(self, inputs):
        return restore_image(self.params, self.sample_sched, *inputs)

    @staticmethod
    def valid(out) -> bool:
        px = out.data
        return bool(np.all(np.isfinite(px)) and px.min() >= 0.0 and px.max() <= 1.0)


WORKLOADS = {w.name: w for w in (TrainBase, FinetuneLora, Restore)}


def eval_set(profile: Profile) -> list:
    """Fixed (item, spec, degrade seed, sample seed) tuples, recipes in turn."""
    items = dataset.synth_dataset(REF_SEED, profile.eval_size, profile.net_cfg.image_size)
    specs = degrade.benchmark_specs()
    return [(it, specs[i % len(specs)]) + tuple(_seeds(REF_SEED, i, 2)) for i, it in enumerate(items)]


def run_eval(w: Workload) -> tuple:
    """Restore the eval set with the workload's current model.

    Returns (restored pixel stack, mean psnr dB, mean ssim)."""
    cases = eval_set(w.profile)
    pairs = []
    for k, case in enumerate(cases):
        restored = restore_image(w.params, w.sample_sched, *case)
        pairs.append(metrics.EvalPair(str(k), str(case[1]), case[0].clean, restored))
    means = metrics.evaluate(pairs, w.params).means()
    return np.stack([p.restored.data for p in pairs]), means.psnr_db, means.ssim
