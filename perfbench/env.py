"""The environment block attached to every benchmark result."""

from __future__ import annotations

import hashlib
import importlib.metadata
import importlib.util
import os
import platform
import subprocess
from pathlib import Path
from typing import Any


def source_digest(root: Path) -> str:
    """SHA-256 over ``src/**/*.py`` (path and bytes), for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def commit(root: Path) -> "str | None":
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _version(package: str) -> "str | None":
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def environment(root: Path, seed: int, kernel_backend: "str | None") -> dict[str, Any]:
    """Commit, interpreter and library versions, cores, kernel backend, seed.

    ``kernel_backend`` is ``repro.kernels.active_backend_name()`` as a
    measuring process reported it; nothing here imports the program.
    """
    return {
        "commit": commit(root),
        "source_sha256": source_digest(root),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "kernel_backend": kernel_backend,
        "numba_available": importlib.util.find_spec("numba") is not None,
        "seed": seed,
    }
