"""Metric implementations against hand-worked values and invariants."""

from __future__ import annotations

import itertools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mosuq.errors import InputError, InvariantError
from mosuq.metrics import (
    HALF_LOG_2PI,
    EvalRecord,
    MetricsReport,
    _average_ranks,
    _columns,
    compute_report,
    error_uncertainty_curve,
    mse,
    nll_metric,
    roc_auc,
    selective_sweep,
    sharpness,
    srcc_system,
    uce,
)

_counter = itertools.count()


def rec(y_true, y_pred, var=1.0, system="sys0", domain=None):
    return EvalRecord(
        id=f"r{next(_counter)}",
        system_id=system,
        y_true=float(y_true),
        y_pred=float(y_pred),
        var_pred=float(var),
        domain_label=domain,
    )


def from_residuals(residuals, variances=None):
    """(y_true, y_pred, var_pred) columns with y_pred = 0 and y_true = residual."""
    if variances is None:
        variances = [1.0] * len(residuals)
    return [float(r) for r in residuals], [0.0] * len(residuals), [float(v) for v in variances]


# Float arrays with ties forced by drawing every entry from a small pool.
TIED_FLOATS = st.lists(
    st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=12
).flatmap(lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=40))


class TestAverageRanks:
    """The numpy rank helper against scipy.stats.rankdata (method "average"),
    imported here only as the reference; the ranks must match bit for bit."""

    def assert_matches(self, values):
        from scipy.stats import rankdata

        values = np.asarray(values, dtype=float)
        ranks = _average_ranks(values)
        assert ranks.dtype == np.float64
        assert ranks.tobytes() == rankdata(values).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(TIED_FLOATS)
    def test_tied_arrays(self, values):
        self.assert_matches(values)

    @pytest.mark.parametrize("values", [
        [3.5],
        [2.0] * 7,
        [0.0, -0.0, 1.0, -0.0, 0.0],
        [1e308, -1e308, 1e308, 5e-324, -5e-324, 0.0],
        [1.7976931348623157e308, -1.7976931348623157e308, 1.7976931348623157e308],
    ])
    def test_edge_cases(self, values):
        self.assert_matches(values)

    def test_tie_groups_share_their_mean_rank(self):
        assert _average_ranks(np.array([0.3, 0.1, 0.3, 0.2, 0.3])).tolist() == [
            4.0, 1.0, 4.0, 2.0, 4.0
        ]


class TestEvalRecord:
    def test_non_finite_score_rejected(self):
        with pytest.raises(InputError):
            rec(float("nan"), 0.0)

    def test_negative_variance_rejected(self):
        with pytest.raises(InvariantError):
            rec(0.0, 0.0, var=-0.5)

    def test_zero_variance_is_allowed_at_record_level(self):
        assert rec(1.0, 1.0, var=0.0).var_pred == 0.0

    @pytest.mark.parametrize("bad", ["x", None, 1j, True, [1.0]])
    def test_a_score_that_is_no_number_is_an_input_error(self, bad):
        with pytest.raises(InputError, match="y_true"):
            EvalRecord("a", "s", bad, 1.0, 1.0)
        with pytest.raises(InputError, match="y_pred"):
            EvalRecord("a", "s", 1.0, bad, 1.0)
        with pytest.raises(InvariantError, match="var_pred"):
            EvalRecord("a", "s", 1.0, 1.0, bad)


class TestMse:
    def test_perfect_predictions(self):
        assert mse([2.0, 3.5], [2.0, 3.5]) == 0.0

    def test_unit_residuals(self):
        assert mse(*from_residuals([1.0, -1.0])[:2]) == 1.0

    def test_hand_worked_pair(self):
        assert mse(*from_residuals([0.5, 1.5])[:2]) == pytest.approx(1.25, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            mse([], [])


class TestSrccSystem:
    def make(self, true_means, pred_means):
        """(system_ids, y_true, y_pred) with one row per system."""
        return [f"sys{i}" for i in range(len(true_means))], true_means, pred_means

    def test_identical_ordering(self):
        assert srcc_system(*self.make([1, 2, 3, 4], [10, 20, 30, 40])) == pytest.approx(1.0)

    def test_reversed_ordering(self):
        assert srcc_system(*self.make([1, 2, 3, 4], [4, 3, 2, 1])) == pytest.approx(-1.0)

    def test_hand_worked_swap(self):
        assert srcc_system(*self.make([1, 2, 3, 4], [1, 3, 2, 4])) == pytest.approx(
            0.8, abs=1e-12
        )

    def test_averages_within_systems_before_ranking(self):
        # system means: a -> (2.0, 2.0); b -> (5.0, 1.0): reversed order.
        assert srcc_system(["a", "a", "b"], [1.0, 3.0, 5.0], [4.0, 0.0, 1.0]) == pytest.approx(
            -1.0
        )

    def test_single_system_rejected(self):
        with pytest.raises(InputError):
            srcc_system(["only", "only"], [1, 2], [1, 2])

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(-50, 50), min_size=3, max_size=8, unique=True))
    def test_invariant_under_monotone_transform_of_predictions(self, means):
        # Strictly increasing warp with slope >= 1, so distinct floats
        # stay distinct after the transform.
        base = self.make(means, means)
        warped = self.make(means, [m + math.tanh(m) for m in means])
        assert srcc_system(*warped) == pytest.approx(srcc_system(*base), abs=1e-12)


def srcc_system_oracle(system_ids, y_true, y_pred):
    """srcc_system with the per-system sums kept in dicts and added in row
    order, as a plain oracle; None where fewer than two systems appear."""
    true_sums, pred_sums, counts = {}, {}, {}
    for system, t, p in zip(system_ids, y_true, y_pred):
        true_sums[system] = true_sums.get(system, 0.0) + t
        pred_sums[system] = pred_sums.get(system, 0.0) + p
        counts[system] = counts.get(system, 0) + 1
    systems = sorted(counts)
    if len(systems) < 2:
        return None
    true_means = np.array([true_sums[k] / counts[k] for k in systems])
    pred_means = np.array([pred_sums[k] / counts[k] for k in systems])
    with np.errstate(invalid="ignore", divide="ignore"):
        return float(np.corrcoef(_average_ranks(true_means), _average_ranks(pred_means))[0, 1])


SYSTEM_IDS = st.one_of(
    st.sampled_from(["a", "a\x00", "\x00", "", "b", "é", "e\u0301", "日本"]),
    st.text(max_size=3),
)
SCORES = st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 2.0]), st.floats(-1e6, 1e6))


class TestSrccSystemMatchesTheDictLoop:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(SYSTEM_IDS, SCORES, SCORES), min_size=1, max_size=30))
    def test_bit_identical_to_the_dict_loop(self, rows):
        """Grouping by np.unique over an object array and summing with
        bincount gives the dict loop's bits: the same systems (ids with NULs
        and non-ASCII text included), the same sorted order and the same
        row-order sums, ties and nan correlations included."""
        columns = [list(column) for column in zip(*rows)]
        want = srcc_system_oracle(*columns)
        if want is None:
            with pytest.raises(InputError):
                srcc_system(*columns)
        else:
            assert np.float64(srcc_system(*columns)).tobytes() == np.float64(want).tobytes()

    def test_ids_differing_by_a_trailing_nul_are_two_systems(self):
        assert srcc_system(["a", "a\x00"], [1, 2], [1, 2]) == pytest.approx(1.0)


class TestNllMetric:
    def test_standard_normal_mode(self):
        assert nll_metric([0.0], [0.0], [1.0]) == pytest.approx(HALF_LOG_2PI, abs=1e-12)

    def test_zero_without_constant(self):
        assert nll_metric([0.0], [0.0], [1.0], include_const=False) == 0.0

    def test_unit_residual_without_constant(self):
        assert nll_metric([1.0], [0.0], [1.0], include_const=False) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_zero_variance_rejected(self):
        with pytest.raises(InputError):
            nll_metric([1.0], [0.0], [0.0])

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(-5, 5), st.floats(-5, 5), st.floats(0.01, 20)),
            min_size=1,
            max_size=12,
        )
    )
    def test_constant_toggle_shifts_by_half_log_2pi(self, triples):
        columns = list(zip(*triples))
        gap = nll_metric(*columns) - nll_metric(*columns, include_const=False)
        assert gap == pytest.approx(HALF_LOG_2PI, abs=1e-12)


class TestUce:
    def test_single_record(self):
        assert uce([math.sqrt(0.9)], [0.0], [0.5]) == pytest.approx(0.4, abs=1e-12)

    def test_two_records_one_bin(self):
        columns = from_residuals([math.sqrt(0.1), math.sqrt(0.9)], [0.2, 0.4])
        assert uce(*columns, num_bins=1) == pytest.approx(0.2, abs=1e-12)

    @pytest.mark.parametrize("num_bins", [1, 2, 3, 7, 10])
    def test_perfectly_calibrated_records_score_zero(self, num_bins):
        rng = np.random.default_rng(8)
        residuals = rng.normal(size=30)
        columns = from_residuals(residuals, residuals * residuals)
        assert uce(*columns, num_bins=num_bins) == pytest.approx(0.0, abs=1e-12)

    def test_empty_and_bad_bins_rejected(self):
        with pytest.raises(InputError):
            uce([], [], [])
        with pytest.raises(InputError):
            uce([1.0], [0.0], [1.0], num_bins=0)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(-5, 5), st.floats(0.001, 10)),
            min_size=1,
            max_size=20,
        ),
        st.integers(1, 10),
    )
    def test_never_negative(self, pairs, num_bins):
        columns = from_residuals(*zip(*pairs))
        assert uce(*columns, num_bins=num_bins) >= 0.0


class TestSharpness:
    def test_all_zero(self):
        assert sharpness([0.0, 0.0]) == 0.0

    def test_hand_worked_pair(self):
        assert sharpness([1.0, 3.0]) == 2.0

    def test_constant_variance_is_identity(self):
        assert sharpness([0.7] * 5) == pytest.approx(0.7, abs=1e-15)


def pairwise_auc(scores, labels):
    """Direct Mann-Whitney enumeration over all positive/negative pairs."""
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    wins = sum(1.0 if p > q else 0.5 if p == q else 0.0 for p in pos for q in neg)
    return wins / (len(pos) * len(neg))


class TestRocAuc:
    def test_perfect_separation(self):
        assert roc_auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_all_ties(self):
        assert roc_auc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5

    def test_hand_worked_quartet(self):
        assert roc_auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == pytest.approx(
            0.75, abs=1e-12
        )

    def test_single_class_rejected(self):
        with pytest.raises(InputError):
            roc_auc([0.1, 0.2], [1, 1])

    def test_bad_labels_rejected(self):
        with pytest.raises(InputError):
            roc_auc([0.1, 0.2], [0, 2])

    def test_matches_pair_enumeration_on_random_sets(self):
        rng = np.random.default_rng(1234)
        for _ in range(100):
            n = int(rng.integers(2, 51))
            # Quantized scores so tie handling gets exercised too.
            scores = np.round(rng.normal(size=n), 1)
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            assert roc_auc(scores, labels) == pytest.approx(
                pairwise_auc(scores, labels), abs=1e-12
            )

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.floats(-20, 20), st.booleans()), min_size=2, max_size=30))
    def test_invariant_under_increasing_transform(self, pairs):
        scores = [s for s, _ in pairs]
        labels = [int(l) for _, l in pairs]
        if len(set(labels)) < 2:
            labels[0] = 1 - labels[0]
        base = roc_auc(scores, labels)
        warped = roc_auc([3.0 * s + math.atan(s) for s in scores], labels)
        assert warped == pytest.approx(base, abs=1e-12)


class TestErrorUncertaintyCurve:
    def test_ideal_records_lie_on_the_diagonal(self):
        rng = np.random.default_rng(5)
        residuals = rng.normal(size=40)
        columns = from_residuals(residuals, residuals * residuals)
        for mean_var, mean_err in error_uncertainty_curve(*columns, num_bins=8):
            assert mean_err == pytest.approx(mean_var, abs=1e-12)

    def test_one_bin_collapses_to_headline_numbers(self):
        y_true, y_pred, var = from_residuals([0.5, 1.5, -1.0], [0.3, 0.9, 0.6])
        ((mean_var, mean_err),) = error_uncertainty_curve(y_true, y_pred, var, num_bins=1)
        assert mean_var == pytest.approx(sharpness(var), abs=1e-15)
        assert mean_err == pytest.approx(mse(y_true, y_pred), abs=1e-15)

    def test_hand_worked_two_bins(self):
        columns = from_residuals([1.0, 1.0, 3.0, 3.0], [1.0, 2.0, 3.0, 4.0])
        points = error_uncertainty_curve(*columns, num_bins=2)
        assert points == [(1.5, 1.0), (3.5, 9.0)]

    def test_last_bin_absorbs_remainder(self):
        columns = from_residuals([1.0] * 5, [1, 2, 3, 4, 5])
        points = error_uncertainty_curve(*columns, num_bins=2)
        assert len(points) == 2
        assert points[0][0] == pytest.approx(1.5)  # rows {1, 2}
        assert points[1][0] == pytest.approx(4.0)  # rows {3, 4, 5}

    def test_too_many_bins_rejected(self):
        with pytest.raises(InputError):
            error_uncertainty_curve(*from_residuals([1.0]), num_bins=2)


class TestSelectiveSweep:
    def make(self):
        return from_residuals(
            [0.0, 1.0, 2.0], [0.1, 0.2, 0.3]
        )  # sq-errs {0.0, 1.0, 4.0}

    def test_keep_everything(self):
        columns = self.make()
        (row,) = selective_sweep(*columns, [0.3])
        assert row == (0.3, 1.0, pytest.approx(mse(*columns[:2])))

    def test_reject_everything(self):
        (row,) = selective_sweep(*self.make(), [0.05])
        assert row == (0.05, 0.0, None)

    def test_hand_worked_midpoint(self):
        (row,) = selective_sweep(*self.make(), [0.2])
        assert row[1] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert row[2] == pytest.approx(0.5, abs=1e-12)

    def test_thresholds_must_ascend(self):
        with pytest.raises(InputError):
            selective_sweep(*self.make(), [0.3, 0.1])

    def test_monotone_mse_on_ideal_records(self):
        rng = np.random.default_rng(77)
        residuals = rng.normal(size=18)
        columns = from_residuals(residuals, residuals * residuals)
        rows = selective_sweep(*columns, sorted(columns[2]))
        mses = [row[2] for row in rows]
        assert all(a <= b + 1e-12 for a, b in zip(mses, mses[1:]))


# The loop forms of uce, error_uncertainty_curve and selective_sweep: a mask
# over every row per bin or per threshold, each subset's mean its own sum.
def uce_loop(y_true, y_pred, var_pred, num_bins=10):
    y_true, y_pred, var = _columns(y_true=y_true, y_pred=y_pred, var_pred=var_pred)
    sq_err = (y_true - y_pred) ** 2
    edges = np.linspace(var.min(), var.max(), num_bins + 1)
    idx = np.digitize(var, edges[1:-1], right=True)
    total = 0.0
    for m in range(num_bins):
        sel = idx == m
        count = int(sel.sum())
        if count == 0:
            continue
        gap = abs(float(sq_err[sel].mean()) - float(var[sel].mean()))
        total += (count / var.size) * gap
    return total


def curve_loop(y_true, y_pred, var_pred, num_bins=10):
    y_true, y_pred, var = _columns(y_true=y_true, y_pred=y_pred, var_pred=var_pred)
    n = var.size
    sq_err = (y_true - y_pred) ** 2
    order = np.argsort(var, kind="stable")
    base = n // num_bins
    points = []
    for m in range(num_bins):
        start = m * base
        stop = start + base if m < num_bins - 1 else n
        sel = order[start:stop]
        points.append((float(var[sel].mean()), float(sq_err[sel].mean())))
    return points


def sweep_loop(y_true, y_pred, var_pred, thresholds):
    y_true, y_pred, var = _columns(y_true=y_true, y_pred=y_pred, var_pred=var_pred)
    sq_err = (y_true - y_pred) ** 2
    rows = []
    for t in thresholds:
        sel = var <= t
        kept = int(sel.sum())
        subset_mse = float(sq_err[sel].mean()) if kept else None
        rows.append((t, kept / var.size, subset_mse))
    return rows


@st.composite
def scored_columns(draw):
    """(y_true, y_pred, var_pred) of 1 to 40 rows whose variances come from a
    pool of 1 to 40 values, so that ties and a constant var_pred are common."""
    pool = draw(st.lists(st.floats(0.0, 1e3, allow_subnormal=False), min_size=1, max_size=40))
    n = draw(st.integers(1, 40))
    scores = st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)
    var = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    return np.array(draw(scores)), np.array(draw(scores)), np.array(var)


def assert_close(got, want):
    """Equal within 1e-12 relative, or both None."""
    assert (got is None) == (want is None)
    if want is not None:
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


# Columns with ties, a constant var_pred and variances that leave bins empty.
EDGE_COLUMNS = {
    "ties": ([0.0, 1.0, 2.0, 3.0, 4.0], [0.5] * 5, [0.2, 0.1, 0.2, 0.1, 0.3]),
    "constant": ([1.0, -2.0, 0.5], [0.0] * 3, [0.7] * 3),
    "empty_bins": ([1.0, 2.0, 3.0, 0.0], [0.0] * 4, [0.0, 0.0, 10.0, 9.5]),
    "one_row": ([2.0], [1.5], [0.0]),
}


class TestLoopOracles:
    """The array passes give the loop forms' results, within 1e-12 relative:
    their sums run in another order, so the last bits may differ."""

    @staticmethod
    def check_uce(columns, num_bins):
        # uce takes differences of the bins' means, which may cancel; so the bound
        # scales with what each bin adds up, (its sq_err sum + its var sum) / n.
        y_true, y_pred, var = (np.asarray(c, dtype=float) for c in columns)
        scale = np.mean((y_true - y_pred) ** 2) + np.mean(var)
        got, want = uce(*columns, num_bins=num_bins), uce_loop(*columns, num_bins=num_bins)
        assert abs(got - want) <= 1e-12 * scale

    @staticmethod
    def check_curve(columns, num_bins):
        got = error_uncertainty_curve(*columns, num_bins=num_bins)
        want = curve_loop(*columns, num_bins=num_bins)
        assert len(got) == len(want) == num_bins
        for point, point_want in zip(got, want):
            for value, value_want in zip(point, point_want):
                assert_close(value, value_want)

    @staticmethod
    def check_sweep(columns, thresholds):
        got, want = selective_sweep(*columns, thresholds), sweep_loop(*columns, thresholds)
        assert len(got) == len(want)
        for (t, fraction, subset_mse), (t_want, fraction_want, mse_want) in zip(got, want):
            assert np.float64(t).tobytes() == np.float64(t_want).tobytes()
            assert fraction == fraction_want
            assert_close(subset_mse, mse_want)

    @settings(max_examples=300, deadline=None)
    @given(scored_columns(), st.data())
    def test_uce_matches_the_loop(self, columns, data):
        n = len(columns[2])
        self.check_uce(columns, data.draw(st.one_of(st.just(n), st.integers(1, 60))))

    @settings(max_examples=300, deadline=None)
    @given(scored_columns(), st.data())
    def test_curve_matches_the_loop(self, columns, data):
        self.check_curve(columns, data.draw(st.integers(1, len(columns[2]))))

    @settings(max_examples=300, deadline=None)
    @given(scored_columns(), st.data())
    def test_sweep_matches_the_loop(self, columns, data):
        """Thresholds drawn from the row values and between them, with -inf,
        inf and nan among them; a nan threshold keeps no row."""
        values = st.one_of(st.sampled_from(columns[2].tolist()), st.floats(-1.0, 1e3))
        thresholds = sorted(data.draw(st.lists(values, max_size=30)))
        if data.draw(st.booleans()):
            thresholds = [-math.inf, *thresholds, math.inf]
        for _ in range(data.draw(st.integers(0, 2))):
            thresholds.insert(data.draw(st.integers(0, len(thresholds))), math.nan)
        self.check_sweep(columns, thresholds)

    @pytest.mark.parametrize("columns", EDGE_COLUMNS.values(), ids=EDGE_COLUMNS.keys())
    def test_edge_columns_match_the_loops(self, columns):
        n = len(columns[2])
        for num_bins in {1, 2, 3, n, 7}:
            self.check_uce(columns, num_bins)
        for num_bins in range(1, n + 1):
            self.check_curve(columns, num_bins)
        self.check_sweep(columns, [math.nan, -math.inf, *sorted({*columns[2], 0.25}),
                                   math.inf, math.nan])

    def test_a_nan_threshold_keeps_no_row(self):
        assert selective_sweep([1.0, 2.0], [0.0, 0.0], [0.5, 1.0], [math.nan])[0][1:] == (0.0, None)


def report_columns(with_domains):
    """Keyword columns for MetricsReport.of: 30 random rows over five systems,
    the last ten marked OOD when with_domains is set."""
    rng = np.random.default_rng(21)
    rows = [
        (f"sys{i % 5}", rng.normal(), rng.normal(), float(rng.uniform(0.1, 2.0)))
        for i in range(30)
    ]
    system_ids, y_true, y_pred, var_pred = (list(column) for column in zip(*rows))
    domains = [1 if i >= 20 else 0 for i in range(30)] if with_domains else None
    return dict(system_ids=system_ids, y_true=y_true, y_pred=y_pred, var_pred=var_pred,
                domain_labels=domains)


class TestComputeReport:
    def test_fields_match_individual_metrics(self):
        c = report_columns(with_domains=False)
        report = MetricsReport.of(**c)
        assert report.mse == mse(c["y_true"], c["y_pred"])
        assert report.srcc_system == srcc_system(c["system_ids"], c["y_true"], c["y_pred"])
        assert report.nll == nll_metric(c["y_true"], c["y_pred"], c["var_pred"])
        assert report.uce == uce(c["y_true"], c["y_pred"], c["var_pred"])
        assert report.sharpness == sharpness(c["var_pred"])
        assert report.auc is None

    def test_auc_present_with_domain_labels(self):
        c = report_columns(with_domains=True)
        report = MetricsReport.of(**c)
        expected = roc_auc(c["var_pred"], c["domain_labels"])
        assert report.auc == expected

    def test_json_payload_carries_all_six_fields(self):
        report = MetricsReport.of(**report_columns(with_domains=False))
        payload = json.loads(report.to_json())
        assert sorted(payload) == ["auc", "mse", "nll", "sharpness", "srcc_system", "uce"]
        assert payload["auc"] is None

    def test_tied_system_means_serialize_as_null(self):
        report = MetricsReport.of(
            [f"sys{i % 2}" for i in range(6)], list(range(6)), [1.0] * 6, [1.0] * 6
        )
        assert math.isnan(report.srcc_system)
        assert report.to_dict()["srcc_system"] is None

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        payload = json.loads(report.to_json(), parse_constant=reject)
        assert payload["srcc_system"] is None
        assert payload["mse"] == report.mse

    def test_finite_report_bytes_are_the_plain_sorted_dump(self):
        report = MetricsReport.of(**report_columns(with_domains=True))
        expected = json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"
        assert report.to_json() == expected

    def test_report_is_a_plain_value_object(self):
        report = MetricsReport(
            mse=1.0, srcc_system=0.5, nll=0.9, uce=0.1, sharpness=2.0, auc=None
        )
        assert json.loads(report.to_json())["mse"] == 1.0

    def test_single_class_domain_labels_give_no_auc(self):
        c = report_columns(with_domains=False)
        assert MetricsReport.of(**{**c, "domain_labels": [0] * 30}).auc is None

    # (y_pred, var_pred) for two rows with y_true = 0, and the metric that overflows.
    @pytest.mark.parametrize("y_pred, var_pred, name", [
        ([1e200, 1e200], [1.0, 1.0], "mse"),
        ([1.0, 1.0], [1e-320, 1e-320], "nll"),
        ([0.0, 0.0], [1e308, 1e308], "uce"),
    ])
    def test_non_finite_metric_raises_naming_it(self, y_pred, var_pred, name):
        with np.errstate(over="ignore"), pytest.raises(InvariantError, match=f"metric {name} "):
            MetricsReport.of(["a", "b"], [0.0, 0.0], y_pred, var_pred)

    def test_overflowing_sharpness_is_named_when_it_alone_overflows(self):
        with np.errstate(over="ignore"), pytest.raises(InvariantError, match="metric sharpness "):
            # Two bins hold one row each, so uce stays finite; the mean does not.
            MetricsReport.of(["a", "b"], [0.0, 0.0], [0.0, 0.0], [1e308, 9e307], num_bins=2)


ROW_REPORTS = st.lists(
    st.tuples(
        st.sampled_from(["s0", "s1", "s2", "s3"]),
        st.floats(-10, 10), st.floats(-10, 10), st.floats(1e-3, 10),
        st.sampled_from([0, 1]),
    ),
    min_size=1, max_size=25,
)


class TestRowAdapter:
    """compute_report over EvalRecord rows is MetricsReport.of over their columns."""

    @settings(max_examples=150, deadline=None)
    @given(ROW_REPORTS, st.booleans(), st.integers(1, 6), st.booleans())
    def test_json_bytes_match_the_column_report(self, rows, with_domains, num_bins, const):
        records = [rec(t, p, v, system=s, domain=d if with_domains else None)
                   for s, t, p, v, d in rows]
        system_ids, y_true, y_pred, var_pred, domains = (list(c) for c in zip(*rows))
        kwargs = dict(num_bins=num_bins, include_const=const)
        try:
            want = MetricsReport.of(system_ids, y_true, y_pred, var_pred,
                                    domain_labels=domains if with_domains else None, **kwargs)
        except InputError as exc:
            with pytest.raises(InputError, match=re.escape(str(exc))):
                compute_report(records, **kwargs)
            return
        assert compute_report(records, **kwargs).to_json() == want.to_json()

    def test_rows_without_a_label_on_every_record_give_no_auc(self):
        records = [rec(i, 0.0, 1.0 + i, system=f"sys{i}", domain=i % 2) for i in range(4)]
        assert compute_report(records).auc is not None
        records[0] = rec(0, 0.0, 1.0, system="sys0")
        assert compute_report(records).auc is None

    def test_empty_rows_rejected(self):
        with pytest.raises(InputError, match="at least one record"):
            compute_report([])


# Each public metric, called with every column it takes made by `make`.
CALLS = {
    "mse": lambda make: mse(make(), make()),
    "srcc_system": lambda make: srcc_system(make(), make(), make()),
    "nll_metric": lambda make: nll_metric(make(), make(), make()),
    "uce": lambda make: uce(make(), make(), make()),
    "sharpness": lambda make: sharpness(make()),
    "roc_auc": lambda make: roc_auc(make(), make()),
    "curve": lambda make: error_uncertainty_curve(make(), make(), make(), num_bins=1),
    "sweep": lambda make: selective_sweep(make(), make(), make(), [1.0]),
    "report": lambda make: MetricsReport.of(make(), make(), make(), make()),
}


class TestColumnChecks:
    @pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
    def test_two_dimensional_columns_rejected(self, call):
        with pytest.raises(InputError, match="1-d"):
            call(lambda: np.ones((2, 2)))

    @pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
    def test_empty_columns_rejected(self, call):
        with pytest.raises(InputError, match="at least one record"):
            call(lambda: [])

    def test_ragged_columns_rejected(self):
        with pytest.raises(InputError, match="one length"):
            mse([1.0, 2.0], [1.0])
        with pytest.raises(InputError, match="one length"):
            MetricsReport.of(["a", "b"], [1.0, 2.0], [1.0, 2.0], [1.0, 1.0], domain_labels=[0])
        with pytest.raises(InputError, match="1-d numeric"):
            nll_metric([[1.0, 2.0], [1.0]], [1.0, 2.0], [1.0, 1.0])

    def test_scalar_column_rejected(self):
        with pytest.raises(InputError, match="1-d"):
            sharpness(1.0)

    def test_non_finite_scores_raise_input_error_as_a_record_does(self):
        with pytest.raises(InputError, match="y_true"):
            mse([math.nan], [0.0])
        with pytest.raises(InputError, match="y_pred"):
            MetricsReport.of(["a", "b"], [0.0, 0.0], [0.0, math.inf], [1.0, 1.0])

    @pytest.mark.parametrize("bad", [-0.5, math.nan, math.inf])
    def test_bad_variance_raises_invariant_error_as_a_record_does(self, bad):
        with pytest.raises(InvariantError, match="var_pred"):
            sharpness([1.0, bad])
        with pytest.raises(InvariantError):
            rec(0.0, 0.0, var=bad)
