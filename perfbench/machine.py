"""Set-up, environment record and machine calibration for the benchmark.

`setup` is what a user pays before the first op: importing mfprop (from the
checkout's own `src/`), numpy and scipy, building the quadrature rules a
workload uses, and one untimed BLAS warm-up.  The main benchmark process and
each fresh set-up probe (`setup_probe.py`) run exactly this function.
"""

from __future__ import annotations

import ctypes
import glob
import importlib
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
LAYERS = ("quadrature", "meanfield", "simulator", "geometry", "boundary", "expressivity")


class MissingProgram(RuntimeError):
    """The checkout holds no mfprop sources to benchmark."""


def load_mfprop():
    """Import mfprop from this checkout's `src/`, never from elsewhere."""
    init = SRC / "mfprop" / "__init__.py"
    if not init.is_file():
        raise MissingProgram(f"no mfprop sources at {init.relative_to(REPO)}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import mfprop

    if Path(mfprop.__file__).resolve() != init.resolve():
        raise MissingProgram(f"mfprop was imported from {mfprop.__file__}, not {init}")
    for layer in LAYERS:
        importlib.import_module(f"mfprop.{layer}")
    return mfprop


def setup(orders) -> dict:
    """Import, build the rules of `orders`, warm BLAS up; returns {order: rule}."""
    load_mfprop()
    from mfprop import quadrature

    rules = {order: quadrature.build_rule(order) for order in orders}
    # 512x512 is enough to start the BLAS threads and small enough not to
    # raise the process's peak RSS above what the workloads themselves use
    a = np.ones((512, 512))
    float((a @ a)[0, 0])
    return rules


def time_fresh_setups(orders, count: int) -> list[float]:
    """Seconds from spawning a fresh interpreter to its set-up being done."""
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    argv = [sys.executable, str(probe), *(str(order) for order in orders)]
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        with subprocess.Popen(argv, cwd=REPO,
                              stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - t0
            rest = child.stdout.read()
            code = child.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code}): {line}{rest}")
        times.append(elapsed)
    return times


# ---------------------------------------------------------------------------
# environment


def _openblas():
    """(config string, thread count) of the OpenBLAS numpy loaded, if found."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        lib = ctypes.CDLL(path)
        # numpy's wheels bundle scipy-openblas; a system OpenBLAS has no prefix
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "")):
            get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if get_config is not None and get_threads is not None:
                get_config.argtypes, get_config.restype = [], ctypes.c_char_p
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                return get_config().decode().strip(), int(get_threads())
    return "unknown", -1


def _cache_sizes() -> dict:
    """Cache sizes in bytes as glibc reports them (`getconf -a`)."""
    try:
        out = subprocess.run(["getconf", "-a"], capture_output=True, text=True,
                             timeout=10, check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return {}
    wanted = {"LEVEL1_DCACHE_SIZE": "L1d", "LEVEL2_CACHE_SIZE": "L2", "LEVEL3_CACHE_SIZE": "L3"}
    sizes = {}
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0] in wanted and parts[1].isdigit():
            sizes[wanted[parts[0]]] = int(parts[1])
    return sizes


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import scipy

    config, threads = _openblas()
    caches = _cache_sizes()
    weight_bytes = 1000 * 1000 * 8
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": config,
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "cache_bytes": caches,
        "weight_matrix_bytes": weight_bytes,
        "weight_matrix_cache_resident": bool(caches.get("L3", 0) >= weight_bytes),
    }


def describe(env: dict) -> str:
    caches = ", ".join(f"{k} {v / 2**20:g} MiB" for k, v in env["cache_bytes"].items())
    resident = "is" if env["weight_matrix_cache_resident"] else "is not"
    return (f"numpy {env['numpy']}, scipy {env['scipy']}, {env['openblas']}, "
            f"BLAS threads {env['blas_threads']}, nproc {env['nproc']}, "
            f"CPU {env['cpu_model']}, caches: {caches or 'unknown'}; "
            f"a 1000x1000 float64 weight matrix ({env['weight_matrix_bytes'] / 1e6:g} MB) "
            f"{resident} L3-resident")


# ---------------------------------------------------------------------------
# calibration


def _median_seconds(fn, reps: int, warmup_s: float) -> float:
    """Median time of `fn` over reps, after calling it for warmup_s seconds."""
    end = time.perf_counter() + warmup_s
    while time.perf_counter() < end:
        fn()
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def calibrate(reps: int = 7) -> dict:
    """Machine rates the per-layer metrics are read against.

    Warm-up is by time: on a 2-vCPU KVM guest (Xeon, OpenBLAS 0.3.31) a
    1000x1000 matmul ran at under half speed for about the first second of
    sustained vector work.
    """
    rng = np.random.default_rng(0)
    n = 1000
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    gemm = _median_seconds(lambda: a @ b, reps, warmup_s=1.5)
    del a, b
    count = 1_000_000
    draw = _median_seconds(lambda: rng.standard_normal(count), reps, warmup_s=0.2)
    return {
        "machine.gemm_gflops": 2.0 * n**3 / gemm / 1e9,
        "machine.ns_per_normal": draw / count * 1e9,
    }
