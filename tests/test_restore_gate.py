"""The restore gate: a small net trained for the x0 contract restores.

Stage 0 trains the autoencoder (``enc.*``, ``dec.*``) on reconstruction and
freezes it. Stage 1 trains every other weight so that ``denoise`` returns
x0_hat, the clean latent, from z_t and the control features of the degraded
image. ``diffusion.sample`` at one and at two DDIM steps must then beat the
degraded input on ``blur:2+sr:4`` by at least 0.5 dB, on the PSNR of the mean
squared error over the eval items. The budget, 1000 + 600 steps, is the
smallest measured to pass: at 500 + 300 the same recipe fell short.
"""

import math

import numpy as np

from ldrestore import degrade, diffusion, network, optim
from ldrestore import tensor as T
from ldrestore.dataset import batches, synth_dataset
from ldrestore.rng import stream

NET = network.NetConfig(16, 1, 4, 4, 8, 8, 8, 4)  # the benchmark's tiny net
SCHED = diffusion.make_schedule(1000, 1e-4, 0.02)
QUALITY = "high-quality"
AUTOENCODER = ("enc.", "dec.")
EVAL_SEED, EVAL_ITEMS = 20240830, (2, 6, 10, 14)
RECIPE = "blur:2.0+sr:4"
MARGIN_DB = 0.5


def stack(images) -> T.Tensor:
    return T.Tensor(np.stack([im.data for im in images]))


def conditioning(params, z_enc, prompts):
    pemb = network.prompt_embedding_batch(params, prompts)
    return network.ConditioningBundle(network.control_features(z_enc, pemb, params), prompts, pemb)


def train(seed, ae_steps=1000, x0_steps=600, lr=2e-3):
    params = network.init_params(NET, seed)
    feed = batches(synth_dataset(seed, 64, NET.image_size), 8, seed)
    autoencoder = [(n, t) for n, t in params.items() if n.startswith(AUTOENCODER)]
    opt = optim.AdamW(autoencoder, lr=lr)
    for _ in range(ae_steps):
        x = stack(it.clean for it in next(feed))
        loss = T.mse(network.decode_tensor(network.encode(x, params), params), x)
        params.zero_grads()
        T.backward(loss)
        opt.step()
    for _, t in autoencoder:
        t.requires_grad = False

    specs = degrade.benchmark_specs()
    opt = optim.AdamW([(n, t) for n, t in params.items() if not n.startswith(AUTOENCODER)], lr=lr)
    for i in range(x0_steps):
        batch = next(feed)
        g = stream(seed, "gate.step", i)
        seeds = g.integers(0, 2**31, size=len(batch))
        lq = [degrade.apply(specs[(i * len(batch) + j) % len(specs)], it.clean, int(seeds[j])) for j, it in enumerate(batch)]
        with T.no_grad():
            z0 = network.encode(stack(it.clean for it in batch), params)
            z_enc = network.encode(stack(lq), params)
        t = g.integers(0, SCHED.T, size=len(batch))
        z_t = diffusion.forward_diffuse_batch(z0, t, T.Tensor(g.standard_normal(z0.shape)), SCHED)
        prompts = [[it.prompt, QUALITY] for it in batch]
        loss = T.mse(z0, network.denoise(z_t, t, conditioning(params, z_enc, prompts), params))
        params.zero_grads()
        T.backward(loss)
        opt.step()
    return params


def psnr_of_mean_mse(out: np.ndarray, clean: np.ndarray) -> float:
    return 10.0 * math.log10(1.0 / float(np.mean((out - clean) ** 2)))


def test_x0_net_restores_at_one_and_two_steps():
    seed = 5  # seeds 6 and 7 pass too, by at least 1.6 dB
    params = train(seed)
    items = [synth_dataset(EVAL_SEED, 16, NET.image_size)[k] for k in EVAL_ITEMS]
    spec = degrade.DegradationSpec.parse(RECIPE)
    lq = [degrade.apply(spec, it.clean, k) for k, it in zip(EVAL_ITEMS, items)]
    clean = np.stack([it.clean.data for it in items])
    with T.no_grad():
        z_enc = network.encode(stack(lq), params)
        cond = conditioning(params, z_enc, [[it.prompt, QUALITY] for it in items])
        results = {"input": psnr_of_mean_mse(stack(lq).data, clean),
                   "decode(encode(lq))": psnr_of_mean_mse(network.decode_tensor(z_enc, params).data, clean)}
        for steps in (1, 2):
            sched = diffusion.respace(SCHED, steps)
            net = lambda z, t, c: network.denoise(z, sched.base_t[t], c, params)
            z0 = diffusion.sample(net, z_enc.shape, cond, sched, seed)
            results[f"{steps} step"] = psnr_of_mean_mse(network.decode_tensor(z0, params).data, clean)
    print("PSNR of the mean MSE:", ", ".join(f"{k} {v:.2f} dB" for k, v in results.items()))
    for steps in (1, 2):
        assert results[f"{steps} step"] >= results["input"] + MARGIN_DB, results
