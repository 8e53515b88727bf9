"""Build hook for the optional native kernel extension.

``python setup.py build_ext --inplace`` compiles
``src/repro/core/_fastcore.c`` with the system compiler and drops the
shared object next to the Python sources, where import-time detection in
``repro.core.fastcore`` picks it up.  The flags matter:

* ``-ffp-contract=off`` — the extension replays NumPy float expressions
  (``c*a0 - s*a1`` etc.) and must not FMA-fuse them, or results drift
  from the pure-Python reference by one ulp.
* ``-fno-strict-aliasing`` — defensive; float<->uint64 punning goes
  through ``memcpy`` but the flag keeps any future edit safe.

The extension builds NumPy arrays through the NumPy C API, so NumPy's
headers (``numpy.get_include()``) are on the include path.

The extension is strictly optional: environments without a compiler run
the pure-Python kernel (``repro.core.fastcore`` handles detection and
fallback), so this setup script is never a hard install dependency.
"""

import numpy
from setuptools import Extension, setup

setup(
    name="repro-fastcore",
    version="0.1",
    package_dir={"": "src"},
    packages=[],
    ext_modules=[
        Extension(
            "repro.core._fastcore",
            sources=["src/repro/core/_fastcore.c"],
            depends=["src/repro/core/_splitmix.h"],
            include_dirs=[numpy.get_include()],
            extra_compile_args=[
                "-O2",
                "-ffp-contract=off",
                "-fno-strict-aliasing",
            ],
        )
    ],
)
