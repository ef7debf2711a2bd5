#!/usr/bin/env python3
"""Build the optional compiled extensions in place and verify them.

Compiles ``src/repro/sim/_ckernel.c`` (event calendar) and
``src/repro/model/_cmodel.c`` (MDS-model hot spots) with the running
interpreter's toolchain (``setup.py build_ext --inplace``), then imports
both results and reports whether ``REPRO_BACKEND=compiled`` will
actually select them.  Safe to run on
hosts without a C compiler: the extensions are declared optional, so the
build degrades to a warning and this script exits non-zero with the
reason instead of a traceback.

``--clean`` removes the ``build/`` tree and any previously built
``_ckernel``/``_cmodel`` shared objects first, so a rebuild never picks
up stale artifacts after a source or interpreter change.

Usage:
    python tools/build_kernel.py [--quiet] [--clean]
"""

from __future__ import annotations

import argparse
import os
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: (probe module, backend viability check) per extension
PROBES = [
    ("repro.sim._ckernel",
     "from repro.sim.backend import (compiled_viable, "
     "compiled_unavailable_reason)\n"
     "import repro.sim._ckernel as ext\n"
     "assert compiled_viable(), compiled_unavailable_reason()\n"
     "print(ext.__file__)"),
    ("repro.model._cmodel",
     "from repro.model.backend import (compiled_model_viable, "
     "compiled_model_unavailable_reason)\n"
     "import repro.model._cmodel as ext\n"
     "assert compiled_model_viable(), "
     "compiled_model_unavailable_reason()\n"
     "print(ext.__file__)"),
]


def clean(verbose: bool = True) -> None:
    """Remove the build tree and stale in-place shared objects."""
    build_dir = ROOT / "build"
    if build_dir.is_dir():
        if verbose:
            print(f"removing {build_dir}")
        shutil.rmtree(build_dir)
    for pattern in ("src/repro/sim/_ckernel.*.so",
                    "src/repro/sim/_ckernel.so",
                    "src/repro/model/_cmodel.*.so",
                    "src/repro/model/_cmodel.so"):
        for so in ROOT.glob(pattern):
            if verbose:
                print(f"removing {so}")
            so.unlink()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quiet", action="store_true",
                        help="suppress compiler output")
    parser.add_argument("--clean", action="store_true",
                        help="remove build/ and stale .so files first")
    args = parser.parse_args(argv)

    if args.clean:
        clean(verbose=not args.quiet)

    cmd = [sys.executable, "setup.py", "build_ext", "--inplace"]
    if args.quiet:
        cmd.append("--quiet")
    build = subprocess.run(cmd, cwd=ROOT)
    if build.returncode != 0:
        print(f"build_ext exited {build.returncode}", file=sys.stderr)
        return build.returncode

    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    failures = 0
    for name, probe_src in PROBES:
        probe = subprocess.run(
            [sys.executable, "-c", probe_src],
            cwd=ROOT, env=env, capture_output=True, text=True)
        if probe.returncode != 0:
            print(f"{name} did not import after the build:",
                  file=sys.stderr)
            print(probe.stderr.strip(), file=sys.stderr)
            failures += 1
        else:
            print(f"{name} ready: {probe.stdout.strip()}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
