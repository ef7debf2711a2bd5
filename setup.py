"""Extension build hook for the optional compiled backends.

Project metadata lives in pyproject.toml; this file only declares the C
extensions: ``repro.sim._ckernel`` (the compiled event calendar) and
``repro.model._cmodel`` (the compiled MDS-model hot spots).  Both are
**optional**: when no C toolchain (or no CPython headers) is available
the build logs a warning and the wheel/editable install proceeds without
them — at runtime ``REPRO_BACKEND=compiled`` then falls back silently
to the pure-python reference implementations
(see ``repro/sim/backend.py`` and ``repro/model/backend.py``).

Build in place for a source checkout (puts the .so files next to the
backend modules)::

    python tools/build_kernel.py          # or:
    python setup.py build_ext --inplace
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "repro.sim._ckernel",
            sources=["src/repro/sim/_ckernel.c"],
            optional=True,
        ),
        Extension(
            "repro.model._cmodel",
            sources=["src/repro/model/_cmodel.c"],
            optional=True,
        ),
    ]
)
