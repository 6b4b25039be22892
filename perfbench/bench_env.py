"""One-thread BLAS for the benchmark process, and the versions it ran with.

`cap_blas_threads` must run before numpy is imported: OpenBLAS reads
its thread count from the environment when it loads.  `blas_threads`
then reads the count back through the thread-count getter of each
scipy-openblas copy bundled with numpy and scipy; `check_one_thread`
fails when it finds none, as it would under any other BLAS.
At the sizes benchmarked, a second BLAS thread only spins: it makes every
driver slower and its timings more variable.
"""

from __future__ import annotations

import ctypes
import importlib.util
import os
import platform
import sys
from pathlib import Path

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
# scipy-openblas wheels prefix the symbols; numpy's ILP64 build adds `64_`.
_PREFIXES = ("scipy_openblas_{}64_", "scipy_openblas_{}")


def pin_malloc_thresholds() -> bool:
    """Pin glibc's mmap and trim thresholds for this process.

    By default glibc raises both thresholds when it first frees a large
    block, and from then on serves a large array from the heap or from a
    fresh mapping depending on the heap's history: the same 8 MB copy costs
    page faults in one run and none in the next.  Pinned, every large
    array of the benchmark reuses heap memory, the state a long-running
    process settles into.  Returns False where mallopt is unavailable.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3
    # 32 MiB is the largest mmap threshold glibc accepts on 64-bit systems
    return bool(mallopt(m_mmap_threshold, 32 << 20) and mallopt(m_trim_threshold, 1 << 30))


def cap_blas_threads() -> None:
    if "numpy" in sys.modules:
        raise RuntimeError("the BLAS thread cap must be set before numpy is imported")
    for var in _THREAD_VARS:
        os.environ[var] = "1"


def blas_threads() -> list[dict]:
    """Library, thread count and version of each OpenBLAS numpy and scipy use."""
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's own BLAS)

    found = []
    for pkg in (numpy, scipy):
        root = Path(pkg.__file__).parent
        for path in sorted((root.parent / f"{root.name}.libs").glob("*openblas*")):
            try:
                lib = ctypes.CDLL(str(path))
            except OSError:
                continue
            for pattern in _PREFIXES:
                getter = getattr(lib, pattern.format("get_num_threads"), None)
                config = getattr(lib, pattern.format("get_config"), None)
                if getter is None or config is None:
                    continue
                getter.argtypes, getter.restype = [], ctypes.c_int
                config.argtypes, config.restype = [], ctypes.c_char_p
                found.append(
                    {
                        "library": path.name,
                        "threads": getter(),
                        "version": config().decode(errors="replace"),
                    }
                )
                break
    return found


def check_one_thread() -> list[dict]:
    """The BLAS libraries in use; raises unless each reports one thread."""
    libs = blas_threads()
    if not libs:
        raise RuntimeError("cannot read the BLAS thread count back")
    wrong = [lib for lib in libs if lib["threads"] != 1]
    if wrong:
        raise RuntimeError(f"BLAS not capped at one thread: {wrong}")
    return libs


def environment(libs: list[dict], malloc_pinned: bool) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "blas": libs,
        "malloc_thresholds_pinned": malloc_pinned,
        "machine": platform.machine(),
        "cpus": len(os.sched_getaffinity(0)),
    }
