"""The golden-value gate: a small run's numbers, pinned in tests/data/golden_v1.json.

Where the environment matches the one the file was made in (Python, numpy,
numpy's SIMD dispatch, the BLAS and its core type), every value must have the
same bits. Elsewhere each number must lie within a relative RELATIVE_BOUND of
its pinned value. The test records which comparison ran, and the session
summary prints it. tests/make_golden.py regenerates the file.
"""

from __future__ import annotations

import json
import math

import pytest
from make_golden import GOLDEN, environment, golden_values

RELATIVE_BOUND = 1e-9


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


def test_a_small_run_reproduces_the_golden_values(record_property):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    here = environment()
    changed = {k: (v, golden["environment"].get(k)) for k, v in here.items()
               if v != golden["environment"].get(k)}
    exact = not changed
    mode = ("bit for bit (environment matches)" if exact else
            f"to a relative {RELATIVE_BOUND:g} (environment differs, here vs pinned: {changed})")
    record_property("golden_comparison", mode)
    found = differences(golden_values(), golden["values"], exact)
    assert not found, f"compared {mode}; {len(found)} values differ, first: {found[:5]}"


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
