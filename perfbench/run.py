"""Benchmark of ldrestore's three user paths: base training, LoRA fine-tuning
and restoring one image.

Run from the root of a checkout:

  python3 perfbench/run.py --workload train_base --seed 1 --seconds 50 --trace 0
  python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 0
  python3 perfbench/run.py --write-references perfbench/references.npz

BENCHMARK.json names train_base and finetune_lora. restore runs the same way
by hand; its run-to-run spread on a shared host was too wide for a bound, so
the benchmark measures the sampler in every run's eval phase instead.

One workload runs in one process as a single-client closed loop: op i+1
starts when op i has returned. BLAS is pinned to one thread before numpy
loads. The loop runs for --seconds and for at least MIN_OPS ops. Set-up
(data, weights, a checkpoint round trip, adapters, optimizer, one warm-up
op) is repeated SETUP_REPEATS times and its median reported as setup_s.

After the loop every run checks the library's outputs against
references.npz: the loss of each of the first few steps of a training
workload, and the pixels of a fixed eval set restored from fixed weights,
all from workloads.REF_SEED. A mismatch, a non-finite output or an
exception is a failed op. psnr_db and ssim are the eval set's means.

--trace 0 prints the end-to-end metrics. --trace 1 times every call into the
library from outside (tracer.py) on every other op and in the eval phase,
and prints the per-layer metrics, with the tracing overhead measured against
the untraced ops in between. --workload all runs each workload in its own
process and prints every metric with its unit and the correctness verdict.
The last line of stdout is one JSON object with keys correct, attempted,
failed and metrics.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
import warnings
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("train_base", "finetune_lora", "restore")
TRAINING = ("train_base", "finetune_lora")

MIN_OPS = 100  # so that ten ops lie beyond p90
MAX_LOOP_S = 120.0  # keeps a run inside its time limit on a slow machine
SETUP_REPEATS = 5
# Storing every tensor as float32 moved the reference losses by <= 1.1e-7
# (relative) and the eval pixels by <= 1.7e-4; a wrong silu derivative moved
# losses by >= 1.8e-6 and a 0.1% larger sampler noise moved pixels by >= 0.019.
LOSS_RTOL = 1e-6
PIXEL_ATOL = 1e-3

END_TO_END_UNITS = {
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "items_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_rate": "ratio",
    "psnr_db": "dB",
    "ssim": "ratio",
}


def load_library():
    """Import ldrestore from this checkout's src/ and nowhere else."""
    if not (SRC / "ldrestore" / "tensor.py").is_file():
        sys.exit(f"perfbench: no ldrestore sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ldrestore.tensor

    found = Path(ldrestore.tensor.__file__).resolve().parent
    if found != SRC / "ldrestore":
        sys.exit(f"perfbench: ldrestore imported from {found}, not {SRC / 'ldrestore'}")


# --------------------------------------------------------------------------
# environment record


def _blas_threads():
    """Thread count reported by the OpenBLAS numpy loaded, or None."""
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return res.stdout.strip() or None


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "ldrestore").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment(args, profile, ops: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": ops,
        "setup_repeats": SETUP_REPEATS,
        "profile": args.profile,
        "config": profile.record(),
        "tolerance": {"loss_rtol": LOSS_RTOL, "pixel_atol": PIXEL_ATOL},
    }


# --------------------------------------------------------------------------
# reference outputs


def _ref_losses(W, name, profile, ckpt, steps):
    import numpy as np

    w = W.WORKLOADS[name](profile, W.REF_SEED, ckpt)
    return np.array([w.step(w.prepare(i)) for i in range(steps)])


def write_references(path, profile, ckpt):
    import numpy as np

    import workloads as W

    out = {name + ".losses": _ref_losses(W, name, profile, ckpt, profile.ref_steps) for name in TRAINING}
    out["eval.pixels"] = W.run_eval(W.Restore(profile, W.REF_SEED, ckpt))[0]
    out["profile"] = np.array(json.dumps(profile.record(), sort_keys=True))
    np.savez(path, **out)


def read_references(path, profile) -> dict:
    import numpy as np

    if not Path(path).is_file():
        sys.exit(f"perfbench: no reference outputs at {path}")
    with np.load(path) as f:
        refs = dict(f)
    if str(refs["profile"]) != json.dumps(profile.record(), sort_keys=True):
        sys.exit(f"perfbench: {path} holds references for another profile; regenerate them")
    return refs


def check_losses(name, profile, refs, ckpt) -> tuple:
    """Recompute the stored losses of a training workload.

    Returns (attempted, failed); each loss is one attempted op."""
    import numpy as np

    import workloads as W

    if name not in TRAINING:
        return 0, 0
    want = refs[name + ".losses"]
    try:
        got = _ref_losses(W, name, profile, ckpt, len(want))
    except Exception:
        traceback.print_exc()
        return len(want), len(want)
    bad = ~(np.isfinite(got) & (np.abs(got - want) <= LOSS_RTOL * np.abs(want)))
    if bad.any():
        print(f"perfbench: {name} losses {got.tolist()}, want {want.tolist()}", file=sys.stderr)
    return len(want), int(bad.sum())


def check_eval(profile, refs, ckpt) -> tuple:
    """Restore the eval set and compare its pixels with the stored ones.

    Returns (attempted, failed, psnr_db, ssim); each image is one attempted op."""
    import numpy as np

    import workloads as W

    want = refs["eval.pixels"]
    n = len(want)
    try:
        pixels, psnr, ssim = W.run_eval(W.Restore(profile, W.REF_SEED, ckpt))
    except Exception:
        traceback.print_exc()
        return n, n, float("nan"), float("nan")
    flat = pixels.reshape(n, -1)
    err = np.abs(flat - want.reshape(n, -1)).max(axis=1)
    bad = ~(np.isfinite(flat).all(axis=1) & (err <= PIXEL_ATOL))
    if bad.any():
        print(f"perfbench: eval pixels off by {err.tolist()} per image", file=sys.stderr)
    return n, int(bad.sum()), psnr, ssim


# --------------------------------------------------------------------------
# one workload in this process


def _overflows(caught) -> int:
    return sum(1 for m in caught if issubclass(m.category, RuntimeWarning) and "overflow" in str(m.message))


def _run_op(w, i, tracer) -> tuple:
    """Op i, timed; with a tracer, traced and with every numpy overflow
    warning recorded. Returns (seconds, ok, overflow warnings)."""
    if tracer is None:
        t0 = perf_counter()
        try:
            ok = w.valid(w.step(w.prepare(i)))
        except Exception:
            traceback.print_exc()
            ok = False
        return perf_counter() - t0, ok, 0
    with tracer.installed(), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = perf_counter()
        try:
            ok = w.valid(w.step(tracer.call("dataset.batch_wait", w.prepare, i)))
        except Exception:
            traceback.print_exc()
            ok = False
        dt = perf_counter() - t0
    return dt, ok, _overflows(caught)


def run_workload(args):
    import numpy as np

    import tracer as tr
    import workloads as W

    profile = W.PROFILES[args.profile]
    refs = read_references(args.references, profile)
    cls = W.WORKLOADS[args.workload]
    tracer = tr.Tracer() if args.trace else None

    def traced_phase():
        return tracer.installed() if tracer else contextlib.nullcontext()

    tmpdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        ckpt = os.path.join(tmpdir, "weights.ckpt")
        setup_s = []
        with traced_phase():
            for _ in range(SETUP_REPEATS):
                t0 = perf_counter()
                w = cls(profile, args.seed, ckpt)
                warm = w.step(w.prepare(0))
                setup_s.append(perf_counter() - t0)
                if not w.valid(warm):
                    sys.exit(f"perfbench: warm-up op of {args.workload} gave {warm!r}")
        setup_trace = tracer.take() if tracer else None

        # With a tracer, odd ops run untraced: their times are the base the
        # tracing overhead is measured against.
        times, traced = [], []
        failed = overflows = 0
        start = perf_counter()
        while True:
            i = len(times) + 1
            on = tracer if tracer and i % 2 == 0 else None
            dt, ok, n_over = _run_op(w, i, on)
            times.append(dt)
            traced.append(on is not None)
            failed += not ok
            overflows += n_over
            elapsed = perf_counter() - start
            if args.ops:
                if len(times) >= args.ops:
                    break
            elif (elapsed >= args.seconds and len(times) >= MIN_OPS) or elapsed >= MAX_LOOP_S:
                break
        window = perf_counter() - start
        op_trace = tracer.take() if tracer else None

        loss_attempted, loss_failed = check_losses(args.workload, profile, refs, ckpt)
        # The eval set is the only sampling a training workload does: trace it
        # for the sampler's per-layer metrics.
        with traced_phase(), warnings.catch_warnings(record=True) as caught:
            if tracer:
                warnings.simplefilter("always")
            n_eval, eval_failed, psnr, ssim = check_eval(profile, refs, ckpt)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    attempted = len(times) + loss_attempted + n_eval
    failed += loss_failed + eval_failed
    ms = np.array(times) * 1e3
    if tracer:
        on = np.array(traced)
        values = tr.per_layer(setup_trace, SETUP_REPEATS, op_trace, int(on.sum()), overflows,
                              tracer.take(), n_eval, _overflows(caught))
        values["trace.op_ms_p50"] = float(np.median(ms[on]))
        values["trace.untraced_op_ms_p50"] = float(np.median(ms[~on]))
        values["trace.overhead_ms"] = values["trace.op_ms_p50"] - values["trace.untraced_op_ms_p50"]
        units = {k: tr.unit(k) for k in values}
    else:
        values = {
            "op_ms_p50": float(np.percentile(ms, 50)),
            "op_ms_p90": float(np.percentile(ms, 90)),
            "items_per_s": len(times) * w.items_per_op / window,
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_rate": (attempted - failed) / attempted,
            "psnr_db": float(psnr),
            "ssim": float(ssim),
        }
        units = END_TO_END_UNITS
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    return environment(args, profile, len(times)), result


def print_result(env, result):
    print("env " + json.dumps(env, sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"{env['workload']:<14} {name:<40} {m['value']:>16.6g} {m['unit']}")
    verdict = "correct" if result["correct"] else "INCORRECT"
    print(f"{env['workload']:<14} verdict: {verdict} ({result['failed']} of {result['attempted']} ops failed)")
    print(json.dumps(result))


# --------------------------------------------------------------------------
# every workload, one process each


def run_all(args) -> int:
    """Run each workload in its own process; print its lines, then a summary."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--profile", args.profile,
               "--references", str(args.references)]
        if args.ops:
            cmd += ["--ops", str(args.ops)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    correct = all(r["correct"] for r in results.values())
    summary = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0 if correct else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--ops", type=int, default=0, help="run exactly this many timed ops (smoke tests)")
    p.add_argument("--profile", default="default", help="model and run sizes, see workloads.PROFILES")
    p.add_argument("--references", default=str(HERE / "references.npz"))
    p.add_argument("--write-references", metavar="PATH", help="recompute the reference outputs into PATH and exit")
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    load_library()
    import workloads as W

    if args.profile not in W.PROFILES:
        p.error(f"unknown profile {args.profile!r}; choose from {', '.join(W.PROFILES)}")
    if args.write_references:
        tmpdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
        try:
            write_references(args.write_references, W.PROFILES[args.profile], os.path.join(tmpdir, "weights.ckpt"))
        finally:
            shutil.rmtree(tmpdir, ignore_errors=True)
        return 0
    if args.workload is None:
        p.error("--workload is required")
    if args.trace and args.ops == 1:
        p.error("a traced run needs at least 2 ops: one traced, one untraced")
    env, result = run_workload(args)
    print_result(env, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
