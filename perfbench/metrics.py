"""Small helpers without navlim imports: percentiles, CLI output parsing,
digests, machine facts."""

import ctypes
import glob
import hashlib
import math
import os
import platform
import re
import resource

import numpy as np

# Percentile levels a tail may be reported at.
TAIL_LEVELS = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

# A tail percentile must leave at least this many samples above it.
TAIL_MIN_BEYOND = 10

_FAILED_LINE = re.compile(r"^wrote .*\(\d+ rows, (\d+) failed trials\)$", re.MULTILINE)


def nearest_rank(sorted_values, level: float) -> tuple[float, int]:
    """Nearest-rank percentile of ascending values: (value, samples above)."""
    rank = max(1, math.ceil(level / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def evenly_spaced(items, count: int) -> list:
    """`count` items spread evenly over `items`, first and last included."""
    if count < 2 or len(items) < count:
        raise ValueError(f"need at least {count} >= 2 items, got {len(items)}")
    last = len(items) - 1
    return [items[round(i * last / (count - 1))] for i in range(count)]


def tail_percentile(values) -> tuple[float, float, int] | None:
    """The highest level in TAIL_LEVELS that leaves at least TAIL_MIN_BEYOND
    samples above it, as (level, value, samples above); None when there are
    too few samples for any level."""
    ordered = sorted(values)
    best = None
    for level in TAIL_LEVELS if ordered else ():
        value, beyond = nearest_rank(ordered, level)
        if beyond >= TAIL_MIN_BEYOND:
            best = (level, value, beyond)
    return best


def failed_trials(stdout: str) -> int | None:
    """Failed-trial count from a sweep's `wrote ... (R rows, N failed
    trials)` line; None when the line is missing or appears twice."""
    found = _FAILED_LINE.findall(stdout)
    return int(found[0]) if len(found) == 1 else None


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_mismatches(recorded: dict, workload: str, argv_by_seed: dict, csv_by_seed: dict):
    """Compare produced CSV digests with the recorded ones.

    `recorded[workload][seed]` holds the argv the digest was taken with and
    its sha256. A seed without a record, a record taken with other arguments,
    or a different digest is a mismatch; returns one message per mismatch."""
    out = []
    table = recorded.get(workload, {})
    for seed, data in csv_by_seed.items():
        entry = table.get(str(seed))
        if entry is None:
            out.append(f"{workload} seed {seed}: no recorded digest")
        elif entry["argv"] != argv_by_seed[seed]:
            out.append(f"{workload} seed {seed}: digest was recorded with argv {entry['argv']}")
        elif entry["sha256"] != sha256(data):
            out.append(f"{workload} seed {seed}: CSV digest {sha256(data)} != {entry['sha256']}")
    return out


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def blas_threads_in_use() -> int | None:
    """Thread count OpenBLAS reports, when numpy bundles a queryable
    OpenBLAS; None otherwise."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine(blas_threads_set: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_set": blas_threads_set,
        "blas_threads_in_use": blas_threads_in_use(),
        "platform": platform.platform(),
        "cpu": _cpu_model() or platform.machine(),
    }


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        return None
    return None
