"""The golden-value gate: a small run's numbers, pinned in tests/data/golden_v1.json.

Where the environment matches the one the file was made in (Python, numpy,
numpy's SIMD dispatch, the BLAS and its core type), every value must have the
same bits. Elsewhere each number must lie within a relative RELATIVE_BOUND of
its pinned value. The test records which comparison ran, and the session
summary prints it. tests/make_golden.py regenerates the file.
"""

from __future__ import annotations

import functools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from make_golden import GOLDEN, environment, golden_values

pytestmark = pytest.mark.bitwise  # CI reruns it under reduced SIMD and BLAS kernels

RELATIVE_BOUND = 1e-9

ROOT = Path(__file__).resolve().parent.parent
SIMD_SETTINGS = ROOT / "tools" / "simd_settings.py"


@pytest.fixture(scope="module")
def default_run() -> dict:
    return golden_values()


def differences(got, want, exact: bool, path: str = "") -> list[str]:
    """Where got and want differ: each leaf path with both values. Numbers
    compare by their repr (the same bits) when exact is set, else within
    RELATIVE_BOUND; other leaves and the structure must be equal."""
    if isinstance(want, dict) and isinstance(got, dict) and got.keys() == want.keys():
        return [d for k in want for d in differences(got[k], want[k], exact, f"{path}.{k}")]
    if isinstance(want, list) and isinstance(got, list) and len(got) == len(want):
        return [d for i, (g, w) in enumerate(zip(got, want))
                for d in differences(g, w, exact, f"{path}[{i}]")]
    numbers = all(type(v) in (int, float) for v in (got, want))
    if numbers and not exact:
        same = math.isclose(got, want, rel_tol=RELATIVE_BOUND, abs_tol=0.0)
    else:
        same = type(got) is type(want) and repr(got) == repr(want)
    return [] if same else [f"{path or 'value'}: got {got!r}, pinned {want!r}"]


def test_a_small_run_reproduces_the_golden_values(record_property, default_run):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    here = environment()
    changed = {k: (v, golden["environment"].get(k)) for k, v in here.items()
               if v != golden["environment"].get(k)}
    exact = not changed
    mode = ("bit for bit (environment matches)" if exact else
            f"to a relative {RELATIVE_BOUND:g} (environment differs, here vs pinned: {changed})")
    record_property("golden_comparison", mode)
    found = differences(default_run, golden["values"], exact)
    assert not found, f"compared {mode}; {len(found)} values differ, first: {found[:5]}"


def _run(args: list[str], setting: dict) -> subprocess.CompletedProcess:
    """python with args, under setting, with this checkout's src/ and tests/ importable."""
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests"),
                            os.environ.get("PYTHONPATH", "")])
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=120,
                          env={**os.environ, **setting, "PYTHONPATH": path})


@functools.lru_cache(maxsize=1)
def _simd_sets() -> tuple[str, ...]:
    """The NPY_DISABLE_CPU_FEATURES values that CI's SIMD-reduced step builds here."""
    return tuple(_run([str(SIMD_SETTINGS)], {}).stdout.splitlines())


def _drift_setting(simd_set: int | None) -> dict:
    """The environment of one drift run: the simd_set-th line of
    tools/simd_settings.py, checked as CI checks it, or with None
    OPENBLAS_CORETYPE=Haswell; or a skip that says why it cannot apply here."""
    if simd_set is None:
        cpuinfo = Path("/proc/cpuinfo")
        if not cpuinfo.exists() or " avx2" not in cpuinfo.read_text():
            pytest.skip("OPENBLAS_CORETYPE=Haswell needs AVX2, which this CPU lacks or hides")
        return {"OPENBLAS_CORETYPE": "Haswell"}
    setting = {"NPY_DISABLE_CPU_FEATURES": _simd_sets()[simd_set]}
    if not setting["NPY_DISABLE_CPU_FEATURES"] or \
            _run(["-W", "error", str(SIMD_SETTINGS)], setting).returncode:
        pytest.skip(f"{setting}: empty or rejected by numpy here")
    return setting


@pytest.mark.parametrize("simd_set", [0, 1, None], ids=["no-avx512", "no-avx2", "blas-haswell"])
def test_the_small_run_drifts_within_the_bound_under_other_kernels(simd_set, default_run):
    """The golden run in a subprocess with fewer numpy SIMD kernels (the AVX-512
    ones, then the AVX2 ones too), or OpenBLAS's Haswell kernels, gives every
    value of the default run within RELATIVE_BOUND."""
    setting = _drift_setting(simd_set)
    done = _run(["-c", "import json, make_golden; print(json.dumps(make_golden.golden_values()))"],
                setting)
    assert done.returncode == 0, done.stderr
    found = differences(json.loads(done.stdout), default_run, exact=False)
    assert not found, f"under {setting}, {len(found)} values drift, first: {found[:5]}"


class TestComparison:
    """The comparison itself: the bitwise mode catches one ulp, the bounded
    mode tolerates drift inside the bound and nothing beyond it."""

    PINNED = {"a": [1.0, -0.0, 3.5], "b": {"r": 0.25, "auc": None}}

    def changed(self, **edit):
        doc = json.loads(json.dumps(self.PINNED))
        doc["a"][0] = edit.get("a0", 1.0)
        doc["b"]["auc"] = edit.get("auc")
        return doc

    def test_equal_documents_pass_both_modes(self):
        for exact in (True, False):
            assert differences(self.changed(), self.PINNED, exact) == []

    def test_one_ulp_fails_bitwise_and_passes_the_bound(self):
        doc = self.changed(a0=math.nextafter(1.0, 2.0))
        assert differences(doc, self.PINNED, exact=True) == [
            f".a[0]: got {math.nextafter(1.0, 2.0)!r}, pinned 1.0"
        ]
        assert differences(doc, self.PINNED, exact=False) == []

    def test_a_sign_of_zero_fails_bitwise(self):
        doc = self.changed()
        doc["a"][1] = 0.0
        assert len(differences(doc, self.PINNED, exact=True)) == 1

    @pytest.mark.parametrize("exact", [True, False])
    def test_drift_beyond_the_bound_and_structure_changes_fail(self, exact):
        assert differences(self.changed(a0=1.0 + 1e-8), self.PINNED, exact)
        assert differences(self.changed(auc=0.5), self.PINNED, exact)
        doc = self.changed()
        doc["a"].append(4.0)
        assert differences(doc, self.PINNED, exact)
