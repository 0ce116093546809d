"""The build and thread settings recorded beside every result."""

from __future__ import annotations

import os
import platform
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def cpu_count() -> int:
    """CPUs this process may run on (what `nproc` prints)."""
    return len(os.sched_getaffinity(0))


def cap_blas_threads() -> dict:
    """Keep the BLAS pool at or below `nproc`; call before importing numpy.

    Returns the thread variables as the caller's environment set them.
    """
    as_set = {var: os.environ.get(var) for var in THREAD_VARS}
    if as_set["OPENBLAS_NUM_THREADS"] is None:
        os.environ["OPENBLAS_NUM_THREADS"] = str(cpu_count())
    return as_set


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from `.git` without starting git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def blas_build(np) -> dict:
    config = np.show_config(mode="dicts")
    deps = config.get("Build Dependencies", {})
    return {
        key: {k: deps[key].get(k) for k in ("name", "version", "openblas configuration")
              if k in deps[key]}
        for key in ("blas", "lapack") if key in deps
    }


def record(root: Path, np, threads_as_set: dict, workload: str, seed: int) -> dict:
    import cryptography

    return {
        "git_commit": git_commit(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cryptography": cryptography.__version__,
        "blas": blas_build(np),
        "threads_as_set": threads_as_set,
        "threads_in_use": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": cpu_count(),
        "machine": platform.machine(),
        "workload": workload,
        "seed": seed,
    }
