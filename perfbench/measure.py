"""Small measurement helpers shared by every workload."""

from __future__ import annotations

import math
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time

#: A tail percentile is reported only where at least this many samples lie
#: beyond it.
TAIL_SAMPLES = 10
#: Timings over repeated identical units are read from this fastest share
#: of them (:func:`fastest`).
FAST_SHARE = 0.25

#: Environment variables that set BLAS / OpenMP thread pools.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class Tally:
    """Operations attempted and failed; a failed operation is one that
    raised or was refused."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def tail_rank(n: int, wanted: float = 99.0) -> int | None:
    """1-based nearest rank of the highest percentile at or below ``wanted``
    that leaves at least :data:`TAIL_SAMPLES` samples beyond it.

    ``None`` when ``n`` is too small for any rank to qualify.
    """
    rank = min(math.ceil(wanted / 100.0 * n), n - TAIL_SAMPLES)
    return rank if rank >= 1 else None


def tail(samples: list[float], wanted: float = 99.0) -> tuple[float, float] | None:
    """``(percentile, value)`` of the tail percentile chosen by :func:`tail_rank`."""
    rank = tail_rank(len(samples), wanted)
    if rank is None:
        return None
    return 100.0 * rank / len(samples), sorted(samples)[rank - 1]


def fastest(values: list[float], share: float = FAST_SHARE) -> list[int]:
    """Indices of the fastest ``share`` of ``values`` (at least one), fastest first.

    Each CPU of the shared host this benchmark was built on flips between
    two speeds, 1.7x apart, every 1-3 s, independently of the other CPU.
    A timing taken over identical units of work is therefore read from the
    units that ran fast, not from a median that jumps between the two
    speeds as their mix changes from run to run.
    """
    count = max(1, round(share * len(values)))
    return sorted(range(len(values)), key=values.__getitem__)[:count]


def fast_median(values: list[float], share: float = FAST_SHARE) -> float:
    """Median of the fastest ``share`` of ``values``."""
    return statistics.median(values[i] for i in fastest(values, share))


def peak_rss_mb(pid: int | None = None) -> float:
    """Peak resident set size: ``VmHWM`` of ``pid``, or of this process."""
    if pid is not None:
        for line in pathlib.Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError(f"no VmHWM for pid {pid}")
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time of ``pid`` from ``/proc/<pid>/stat``."""
    stat = pathlib.Path(f"/proc/{pid}/stat").read_text()
    fields = stat[stat.rindex(")") + 2 :].split()
    utime, stime = int(fields[11]), int(fields[12])
    return (utime + stime) / os.sysconf("SC_CLK_TCK")


def host_probe_s() -> float:
    """Seconds for a fixed slice of interpreter and BLAS work.

    Stamped at the start and end of every run: on a shared host the same
    code can run at half speed for minutes, and this shows when it did.
    """
    import numpy

    matrix = numpy.random.default_rng(0).random((120, 120))
    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i
    for _ in range(50):
        matrix = numpy.linalg.solve(matrix + 120.0 * numpy.eye(120), matrix)
    return time.perf_counter() - start


def thread_settings(env: dict | None = None) -> dict:
    env = os.environ if env is None else env
    return {name: env.get(name) for name in THREAD_VARS}


def git_commit(root: pathlib.Path) -> str | None:
    """The checked-out commit, or ``None`` outside a git work tree."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment_stamp(root: pathlib.Path, seed: int) -> dict:
    """What a reader needs to explain a noisy run (client side)."""
    import numpy
    import scipy

    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(root),
        "client_threads": thread_settings(),
        "host_probe_s": [host_probe_s()],
    }
