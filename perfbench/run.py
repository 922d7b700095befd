"""Benchmark of the stwcr package: three workloads, untraced or traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload csv-estimate-200k --seed 1 --seconds 25 --trace 0

Workloads: ``csv-estimate-200k``, ``sweep-1k`` and ``simulate-I`` (see
``perfbench/README.md``). The program under test is ``src/stwcr`` of the
checkout, imported from source. The script pins BLAS to one thread,
measures set-up time in fresh interpreters, writes the seeded inputs,
runs the workload's closed loop in a child process (``workload.py``),
checks the outputs, and prints a table followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics and ``--trace 1`` the
per-layer ones. End-to-end timings are wall times divided by the
host-speed factor that ``yardstick.py`` measures around them. Scratch files go under ``.perfbench_work/`` in the
checkout. The exit code is nonzero, and no result is printed, when the
package is missing or a step of the benchmark itself fails.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
# Pinned before numpy loads, here and in every child process: with
# OpenBLAS's default two threads the sweep-1k medians spread far wider.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from yardstick import Yardstick  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

WORKLOADS = ("csv-estimate-200k", "sweep-1k", "simulate-I")
# Input sizes that "tiny", for the benchmark's own tests, shrinks.
SIZES = {"full": {"csv_n": 200_000, "sim_reps": 200}, "tiny": {"csv_n": 5_000, "sim_reps": 20}}
SWEEP_N = 1_000
SIM_N = 1_000
SIM_WORKERS = 2
SETUP_PROBES = 3
# Each yardstick boundary around a set-up probe runs blocks worth this
# much probe time (see yardstick.SHARE).
SETUP_YARDSTICK_S = 2.5
CHILD_TIMEOUT_S = 150
# Ground truth for the csv-estimate-200k check: the package's Monte Carlo
# oracle at a fixed size and seed, independent of the workload seed.
TRUTH_DRAWS = 200_000
TRUTH_SEED = 20_260_809

END_TO_END_UNITS = {
    "setup_s": "s", "estimate_s": "s", "queries_per_s": "1/s", "query_s_p50": "s",
    "query_s_p90": "s", "simulate_s": "s", "peak_rss_mb": "MB",
}

# Scenario constants of the synthetic trial, restated here so that the
# inputs do not change when the package's own generator does.
_SCENARIO_I_B = ((1, 2, 3, 4, 5), (0.2, 0.3, 0.4, 0.05, 0.05), (0.1, 0.15, 0.3, 0.3, 0.15))
_SCENARIO_II_B = ((2.5, 1.0), (3.0, 0.7))  # Gamma (shape, rate), naive and exposed
_GAMMA_TRUNC_Q = 0.995


class BenchError(Exception):
    """A step of the benchmark itself failed; no result is printed."""


def draw_trial(seed, n, scenario):
    """Synthetic Scenario I or II trial of the paper's design, from ``seed`` alone."""
    from scipy.special import expit

    rng = np.random.default_rng(seed)
    x1 = (rng.random(n) < 0.3).astype(float)
    x2 = rng.random(n)
    x3 = rng.random(n)
    naive = x1 == 0.0
    b = np.empty(n)
    if scenario == "I":
        values, p_naive, p_exposed = _SCENARIO_I_B
        b[naive] = rng.choice(values, size=int(naive.sum()), p=p_naive)
        b[~naive] = rng.choice(values, size=int((~naive).sum()), p=p_exposed)
    else:
        from scipy.stats import gamma

        for mask, (shape, rate) in zip((naive, ~naive), _SCENARIO_II_B):
            cap = gamma.ppf(_GAMMA_TRUNC_Q, a=shape, scale=1.0 / rate)
            b[mask] = np.minimum(rng.gamma(shape, 1.0 / rate, size=int(mask.sum())), cap)
    a = (rng.random(n) < 0.5).astype(int)
    s = 4.0 + b + a - 0.5 * x1 + x2 ** 2 + rng.standard_normal(n)
    p = expit(1.5 + 0.5 * x2 + 2.0 * x3 - 0.2 * s - a - 0.3 * b)
    y = (rng.random(n) < p).astype(int)
    return {"y": y, "a": a, "s": s, "b": b, "x": np.column_stack([x1, x2, x3])}


def write_csv(path, trial):
    cols = np.column_stack([trial["y"], trial["a"], trial["s"], trial["b"], trial["x"]])
    np.savetxt(path, cols, delimiter=",", header="y,a,s,b,x1,x2,x3", comments="",
               fmt=["%d", "%d", "%.17g", "%.17g", "%d", "%.17g", "%.17g"])


def balanced_folds(seed, n, k):
    labels = np.repeat(np.arange(1, k + 1), [n // k + (i < n % k) for i in range(k)])
    return np.random.default_rng(seed).permutation(labels)


def import_package(src=SRC):
    """Import stwcr from the checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(src))
    import stwcr

    if Path(stwcr.__file__).resolve().parent != (Path(src) / "stwcr").resolve():
        raise BenchError(f"stwcr imported from {stwcr.__file__}, not from {src}")
    return stwcr


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def measure_setup(env):
    """Wall times of fresh interpreters importing the package, each divided
    by the host-speed factor of the yardstick boundaries around it."""
    yardstick = Yardstick()
    yardstick.boundary(SETUP_YARDSTICK_S)
    times = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "-c", "import stwcr, stwcr.cli"], env=env,
                              cwd=ROOT, capture_output=True, timeout=60)
        times.append(perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError(f"importing stwcr failed: {proc.stderr.decode(errors='replace')}")
        yardstick.boundary(SETUP_YARDSTICK_S)
    return yardstick.adjust(times, range(SETUP_PROBES)), times


def run_child(argv, env):
    """Run the workload process in its own process group; on timeout, kill
    the whole group, pool workers included, and wait for it."""
    proc = subprocess.Popen(argv, env=env, cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError(f"workload process ran longer than {CHILD_TIMEOUT_S} s") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if code != 0:
        raise BenchError(f"workload process exited with code {code}")


def blas_threads():
    """Thread count OpenBLAS reports in this process, or None if not found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cache_size(level):
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            if (index / "level").read_text().strip() == str(level) and \
                    (index / "type").read_text().strip() in ("Unified", "Data"):
                return (index / "size").read_text().strip()
        except OSError:
            continue
    return None


def environment(seed, load_at_start, workload_blas_threads):
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "openblas": blas.get("version"), "l2_cache": _cache_size(2), "l3_cache": _cache_size(3),
        "blas_threads_env": BLAS_THREADS, "blas_threads": workload_blas_threads,
        "loadavg_at_start": load_at_start, "seed": seed,
    }


def prepare(workload, seed, size, work):
    """Write the seeded inputs; returns the workload's config entries."""
    sizes = SIZES[size]
    if workload == "csv-estimate-200k":
        stwcr = import_package()
        csv_path = work / "trial.csv"
        write_csv(csv_path, draw_trial(seed, sizes["csv_n"], "II"))
        truth = stwcr.oracle_estimand("stwcr", "II", stwcr.StwcrQuery(a=1, s=9.0),
                                      stwcr.SmoothingParams(h=0.1),
                                      mc_size=TRUTH_DRAWS, seed=TRUTH_SEED)
        return {"csv": str(csv_path), "truth": truth.ratio, "truth_mc_se": truth.mc_se,
                "warmup": False}
    if workload == "sweep-1k":
        npz = work / "trial.npz"
        np.savez(npz, folds=balanced_folds(seed + 1, SWEEP_N, 5), **draw_trial(seed, SWEEP_N, "I"))
        return {"npz": str(npz), "warmup": True}
    return {"n": SIM_N, "reps": sizes["sim_reps"], "workers": SIM_WORKERS,
            "warmup": False}


def percentile(values, q):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(raw, setup_times):
    times = raw["times"]
    p50 = statistics.median(times)
    return {
        "setup_s": statistics.median(setup_times),
        "estimate_s": p50,
        "queries_per_s": len(times) / sum(times),
        "query_s_p50": p50,
        "query_s_p90": percentile(times, 90),
        "simulate_s": p50,
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def run(args):
    load_at_start = os.getloadavg()
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    if not (SRC / "stwcr" / "__init__.py").is_file():
        raise BenchError(f"package source not found under {SRC}")
    env = child_env()
    setup_times, raw_setup_times = ([], []) if args.trace else measure_setup(env)

    cfg = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": bool(args.trace), "src": str(SRC), "work": str(work),
           "result": str(work / "result.json")}
    cfg.update(prepare(args.workload, args.seed, args.size, work))
    (work / "config.json").write_text(json.dumps(cfg), encoding="utf-8")
    run_child([sys.executable, str(BENCH_DIR / "workload.py"), str(work / "config.json")], env)
    raw = json.loads((work / "result.json").read_text(encoding="utf-8"))

    tallies = raw["tallies"]
    failed = sum(t["failed"] + t["reps_failed"] for t in tallies)
    attempted = sum(t["attempted"] + t["reps_attempted"] for t in tallies)
    correct = all(t["failed"] == 0 for t in tallies)
    fail_ratio = failed / attempted
    if args.trace:
        metrics = dict(raw["layers"])
        metrics["trace_overhead"] = (statistics.median(raw["traced_times"])
                                     / statistics.median(raw["times"]), "ratio")
        metrics["fail_ratio"] = (fail_ratio, "ratio")
    else:
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in end_to_end(raw, setup_times).items()}
    info = {"workload": args.workload, "size": args.size, "trace": args.trace,
            "environment": environment(args.seed, load_at_start, raw["blas_threads"]),
            "samples": len(raw["times"]), "setup_samples": len(setup_times),
            "raw_setup_s": raw_setup_times,
            "raw_op_s_p50": statistics.median(raw["raw_times"]),
            "host_factor_p50": statistics.median(raw["factors"]),
            "host_factor_range": [min(raw["factors"]), max(raw["factors"])],
            "fail_ratio": fail_ratio, "absent": raw.get("absent", []),
            "problems": [p for t in tallies for p in t["problems"]][:20]}
    (work / "run.json").write_text(json.dumps({"info": info, "metrics": metrics}, indent=1),
                                   encoding="utf-8")
    for problem in info["problems"]:
        print(f"FAILED: {problem}")
    print(json.dumps(info, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:16.6g} {unit}")
    if not args.trace:
        print(f"{'fail_ratio':40s} {fail_ratio:16.6g} ratio")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=tuple(SIZES), default="full",
                   help="input sizes; 'tiny' is for the benchmark's tests")
    args = p.parse_args(argv)
    try:
        result = run(args)
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
