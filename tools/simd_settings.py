"""Print the NPY_DISABLE_CPU_FEATURES settings of the SIMD-reduced test runs.

    python tools/simd_settings.py

Prints two lines: the AVX-512 targets this numpy dispatches and this CPU has,
then those and the AVX2 ones. Names differ across numpy versions (X86_V4 and
X86_V3 from 2.4; AVX512_*, AVX2 and FMA3 before), and numpy warns about a name
it does not dispatch, so each line lists only names in use here; a line may be
empty. The CPU features in use go to stderr. Run under
NPY_DISABLE_CPU_FEATURES=<line> with -W error, it fails where numpy rejects
that setting. CI's SIMD-reduced step and tests/test_golden.py's drift test both
build their settings with it.
"""

import sys

try:
    from numpy._core import _multiarray_umath as m
except ImportError:
    from numpy.core import _multiarray_umath as m
on = [n for n, have in m.__cpu_features__.items() if have]
print("CPU features in use:", " ".join(on), file=sys.stderr)
names = [n for n in m.__cpu_dispatch__ if n in on]
v4 = [n for n in names if n.startswith("AVX512") or n == "X86_V4"]
print(" ".join(v4))
print(" ".join(v4 + [n for n in names if n in ("X86_V3", "AVX2", "FMA3")]))
