"""Build, cache and load the package's C kernels, `_sturm.c` and `_emit.c`.

A kernel is named by its stem, the name of its source in the package
without ``.c``.  `load(stem)` compiles the source on first use, never at
import, with the compiler Python was built with (`_KERNEL_FLAGS`), into a
file named by the stem and a hash of source and command in pdmlag's folder
of the user cache directory, and loads it through ctypes.  Where it cannot
be built or loaded the caller gets None and takes its pure path, which
gives the same bytes.
"""
from __future__ import annotations

import os
from typing import Optional

# How a kernel is built: -O3 runs `_sturm.c`'s count loop in vector lanes;
# no multiply and add may be fused, which would change the bits of the Sturm
# chains and of `_emit.c`'s exact two-product
_KERNEL_FLAGS = ("-O3", "-shared", "-fPIC", "-ffp-contract=off")
# Builds of one stem kept in the cache folder, the most recently used: two
# source trees that share the folder, run in turn, then compile once each
_KERNEL_BUILDS = 4


def built(stem: str) -> Optional[str]:
    """The path of the package source ``<stem>.c`` built as a shared
    library, or None where the compiler is missing or fails.

    The file is named by the stem and a hash of the source and the build
    command, so that a change to either builds anew.  It is built in
    pdmlag's folder of the user cache directory (`XDG_CACHE_HOME`, else
    ~/.cache), or in a directory of this process's own, removed at exit,
    where that cannot be written; it is written whole or not at all, so
    that processes that build at the same time each load a complete
    library.  A build found there is touched; a new build removes all but
    the `_KERNEL_BUILDS` most recently touched or built of its own stem.
    """
    import atexit
    import contextlib
    import shlex
    import shutil
    import subprocess
    import sysconfig
    import tempfile
    import zlib
    from importlib import resources

    source = resources.files(__package__).joinpath(f"{stem}.c").read_bytes()
    command = [*shlex.split(sysconfig.get_config_var("CC") or "cc"),
               *_KERNEL_FLAGS]
    # CRC-32, not hashlib: importing hashlib loads OpenSSL, 3.5 MB of
    # resident memory for one name
    digest = zlib.crc32(b"\0".join([source, *map(str.encode, command)]))
    suffix = sysconfig.get_config_var("SHLIB_SUFFIX") or ".so"
    name = f"{stem}-{digest:08x}{suffix}"
    folder = os.path.join(os.environ.get("XDG_CACHE_HOME")
                          or os.path.join(os.path.expanduser("~"), ".cache"),
                          "pdmlag")
    if os.path.exists(os.path.join(folder, name)):
        with contextlib.suppress(OSError):
            os.utime(os.path.join(folder, name))
        return os.path.join(folder, name)
    try:
        os.makedirs(folder, exist_ok=True)
        fd, partial = tempfile.mkstemp(suffix=suffix, dir=folder)
    except OSError:
        try:
            folder = tempfile.mkdtemp(prefix="pdmlag-")
            fd, partial = tempfile.mkstemp(suffix=suffix, dir=folder)
        except OSError:
            return None
        atexit.register(shutil.rmtree, folder, True)
    os.close(fd)
    try:
        subprocess.run([*command, "-x", "c", "-", "-o", partial],
                       input=source, capture_output=True, check=True,
                       timeout=120)
        os.replace(partial, os.path.join(folder, name))
    except (OSError, subprocess.SubprocessError):
        if os.path.exists(partial):     # the compiler removes it on failure
            os.unlink(partial)
        return None
    with contextlib.suppress(OSError):     # another process may remove one
        builds = sorted((os.path.join(folder, other)
                         for other in os.listdir(folder)
                         if other.startswith(f"{stem}-")
                         and other.endswith(suffix)),
                        key=lambda path: os.stat(path).st_mtime_ns)
        for old in builds[:-_KERNEL_BUILDS]:
            with contextlib.suppress(OSError):
                os.unlink(old)
    return os.path.join(folder, name)


def load(stem: str):
    """The kernel ``<stem>.c`` (`built`) loaded through ctypes, or None
    where it cannot be built or loaded.  The caller binds its routines."""
    import ctypes

    path = built(stem)
    if path is None:
        return None
    try:
        return ctypes.CDLL(path)
    except OSError:
        return None
