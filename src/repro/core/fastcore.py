"""Loader / gatekeeper for the native ``_fastcore`` extension.

``active`` is the module-level switch the kernel consults at every
branch point: the imported extension module when the compiled fast path
is in force, ``None`` when the pure-Python reference implementation
should run.  Selection happens once at import time:

1. ``REPRO_NO_FASTCORE=1`` (any value other than empty/``0``) forces the
   pure-Python path — the supported escape hatch, exercised in CI.
2. A prebuilt ``repro.core._fastcore`` (from ``setup.py build_ext
   --inplace``) is imported if present.
3. Otherwise the loader compiles ``_fastcore.c`` itself with the system
   C compiler into a per-source-hash cache directory
   (``~/.cache/repro-fastcore`` or ``$REPRO_FASTCORE_CACHE``) — so dev
   checkouts get the fast path without a build step.
4. No compiler / failed build / constant mismatch: silently fall back.

An extension is only accepted when its compiled-in splitmix constants
match :mod:`repro.core.splitmix` exactly (anti-drift check: the orbit
hash must be bit-identical between the C and Python lanes, and a stale
or divergent binary would corrupt canonical keys).

``set_enabled(False)`` / ``set_enabled(True)`` toggles ``active`` in
process — used by the differential property tests and by
``bench_kernel.py`` to time both paths in one run.  The compile flags
here must stay in sync with ``setup.py`` (``-ffp-contract=off`` is what
keeps the float expressions bit-identical to NumPy).
"""

from __future__ import annotations

import hashlib
import importlib
import importlib.util
import os
import shutil
import subprocess
import sys
import sysconfig
import tempfile
from pathlib import Path

__all__ = ["active", "available", "set_enabled", "build_error"]

_COMPILE_FLAGS = [
    "-O2",
    "-fPIC",
    "-shared",
    "-ffp-contract=off",
    "-fno-strict-aliasing",
]

#: Human-readable reason the extension is unavailable (None when loaded).
build_error: str | None = None


def _env_disabled() -> bool:
    return os.environ.get("REPRO_NO_FASTCORE", "").strip() not in ("", "0")


def _constants_ok(mod) -> bool:
    from repro.core.splitmix import SPLITMIX_CONSTANTS

    try:
        return mod.splitmix_constants() == SPLITMIX_CONSTANTS
    except Exception:
        return False


def _try_import():
    try:
        return importlib.import_module("repro.core._fastcore")
    except ImportError:
        return None


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_FASTCORE_CACHE")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-fastcore"


def _try_build():
    """Compile the extension out-of-tree and import it from the cache.

    The cache key is the hash of the C source + header + interpreter ABI
    tag + NumPy version (the extension builds arrays with the NumPy C
    API), so editing the source or switching interpreters rebuilds; a
    warm cache is a single ``Path.exists`` check.
    """
    global build_error
    import numpy
    src = Path(__file__).with_name("_fastcore.c")
    header = Path(__file__).with_name("_splitmix.h")
    if not src.is_file() or not header.is_file():
        build_error = "source files missing"
        return None
    cc = shutil.which(os.environ.get("CC") or "gcc") or shutil.which("cc")
    if cc is None:
        build_error = "no C compiler on PATH"
        return None
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    tag = hashlib.sha256(
        src.read_bytes() + header.read_bytes() + suffix.encode()
        + numpy.__version__.encode()
    ).hexdigest()[:16]
    cache = _cache_dir()
    target = cache / f"_fastcore-{tag}{suffix}"
    if not target.is_file():
        try:
            cache.mkdir(parents=True, exist_ok=True)
            include = sysconfig.get_paths()["include"]
            with tempfile.TemporaryDirectory(dir=str(cache)) as tmp:
                tmp_out = Path(tmp) / target.name
                cmd = [cc, *_COMPILE_FLAGS, f"-I{include}",
                       f"-I{numpy.get_include()}", str(src),
                       "-o", str(tmp_out)]
                proc = subprocess.run(cmd, capture_output=True, text=True)
                if proc.returncode != 0:
                    build_error = (
                        f"compile failed ({proc.returncode}): "
                        f"{proc.stderr.strip()[:2000]}"
                    )
                    return None
                # atomic publish: same-filesystem rename, losers of a
                # concurrent race simply overwrite with identical bits
                os.replace(tmp_out, target)
        except OSError as exc:
            build_error = f"build environment error: {exc}"
            return None
    try:
        spec = importlib.util.spec_from_file_location(
            "repro.core._fastcore", target)
        if spec is None or spec.loader is None:
            build_error = f"cannot load built extension at {target}"
            return None
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        sys.modules.setdefault("repro.core._fastcore", mod)
        return mod
    except Exception as exc:  # corrupt cache entry etc.
        build_error = f"import of built extension failed: {exc}"
        return None


def _load():
    global build_error
    if _env_disabled():
        build_error = "disabled by REPRO_NO_FASTCORE"
        return None
    mod = _try_import()
    if mod is None:
        mod = _try_build()
    if mod is None:
        return None
    if not _constants_ok(mod):
        build_error = "splitmix constant mismatch (stale binary?)"
        return None
    build_error = None
    return mod


#: The loaded extension module, kept even while toggled off.
_module = _load()

#: What the kernel consults: the extension module, or None for Python.
active = _module


def available() -> bool:
    """True when a validated extension binary is loaded (even if toggled
    off via :func:`set_enabled`)."""
    return _module is not None


def set_enabled(flag: bool) -> bool:
    """Toggle the compiled path in-process (tests / benchmarks).

    Enabling without an available extension is a no-op returning False.
    """
    global active
    active = _module if flag else None
    return active is not None
