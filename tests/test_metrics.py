"""Metric implementations against hand-worked values and invariants."""

from __future__ import annotations

import itertools
import json
import math

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
    """Records with y_pred = 0 and y_true = residual."""
    if variances is None:
        variances = [1.0] * len(residuals)
    return [rec(r, 0.0, v) for r, v in zip(residuals, variances)]


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


class TestMse:
    def test_perfect_predictions(self):
        assert mse([rec(2.0, 2.0), rec(3.5, 3.5)]) == 0.0

    def test_unit_residuals(self):
        assert mse(from_residuals([1.0, -1.0])) == 1.0

    def test_hand_worked_pair(self):
        assert mse(from_residuals([0.5, 1.5])) == pytest.approx(1.25, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            mse([])


class TestSrccSystem:
    def make(self, true_means, pred_means):
        return [
            rec(t, p, system=f"sys{i}")
            for i, (t, p) in enumerate(zip(true_means, pred_means))
        ]

    def test_identical_ordering(self):
        assert srcc_system(self.make([1, 2, 3, 4], [10, 20, 30, 40])) == pytest.approx(1.0)

    def test_reversed_ordering(self):
        assert srcc_system(self.make([1, 2, 3, 4], [4, 3, 2, 1])) == pytest.approx(-1.0)

    def test_hand_worked_swap(self):
        assert srcc_system(self.make([1, 2, 3, 4], [1, 3, 2, 4])) == pytest.approx(
            0.8, abs=1e-12
        )

    def test_averages_within_systems_before_ranking(self):
        records = [
            rec(1.0, 4.0, system="a"),
            rec(3.0, 0.0, system="a"),
            rec(5.0, 1.0, system="b"),
        ]
        # system means: a -> (2.0, 2.0); b -> (5.0, 1.0): reversed order.
        assert srcc_system(records) == pytest.approx(-1.0)

    def test_single_system_rejected(self):
        with pytest.raises(InputError):
            srcc_system([rec(1, 1, system="only"), rec(2, 2, system="only")])

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(-50, 50), min_size=3, max_size=8, unique=True))
    def test_invariant_under_monotone_transform_of_predictions(self, means):
        # Strictly increasing warp with slope >= 1, so distinct floats
        # stay distinct after the transform.
        base = self.make(means, means)
        warped = self.make(means, [m + math.tanh(m) for m in means])
        assert srcc_system(warped) == pytest.approx(srcc_system(base), abs=1e-12)


class TestNllMetric:
    def test_standard_normal_mode(self):
        assert nll_metric([rec(0, 0, 1.0)]) == pytest.approx(HALF_LOG_2PI, abs=1e-12)

    def test_zero_without_constant(self):
        assert nll_metric([rec(0, 0, 1.0)], include_const=False) == 0.0

    def test_unit_residual_without_constant(self):
        assert nll_metric([rec(1, 0, 1.0)], include_const=False) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_zero_variance_rejected(self):
        with pytest.raises(InputError):
            nll_metric([rec(1, 0, 0.0)])

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(-5, 5), st.floats(-5, 5), st.floats(0.01, 20)),
            min_size=1,
            max_size=12,
        )
    )
    def test_constant_toggle_shifts_by_half_log_2pi(self, triples):
        records = [rec(t, p, v) for t, p, v in triples]
        gap = nll_metric(records) - nll_metric(records, include_const=False)
        assert gap == pytest.approx(HALF_LOG_2PI, abs=1e-12)


class TestUce:
    def test_single_record(self):
        assert uce([rec(math.sqrt(0.9), 0.0, 0.5)]) == pytest.approx(0.4, abs=1e-12)

    def test_two_records_one_bin(self):
        records = [
            rec(math.sqrt(0.1), 0.0, 0.2),
            rec(math.sqrt(0.9), 0.0, 0.4),
        ]
        assert uce(records, num_bins=1) == pytest.approx(0.2, abs=1e-12)

    @pytest.mark.parametrize("num_bins", [1, 2, 3, 7, 10])
    def test_perfectly_calibrated_records_score_zero(self, num_bins):
        rng = np.random.default_rng(8)
        residuals = rng.normal(size=30)
        records = [rec(r, 0.0, r * r) for r in residuals]
        assert uce(records, num_bins=num_bins) == pytest.approx(0.0, abs=1e-12)

    def test_empty_and_bad_bins_rejected(self):
        with pytest.raises(InputError):
            uce([])
        with pytest.raises(InputError):
            uce([rec(1, 0, 1.0)], num_bins=0)

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
        records = [rec(r, 0.0, v) for r, v in pairs]
        assert uce(records, num_bins=num_bins) >= 0.0


class TestSharpness:
    def test_all_zero(self):
        assert sharpness([rec(1, 1, 0.0), rec(2, 2, 0.0)]) == 0.0

    def test_hand_worked_pair(self):
        assert sharpness([rec(0, 0, 1.0), rec(0, 0, 3.0)]) == 2.0

    def test_constant_variance_is_identity(self):
        assert sharpness([rec(0, 0, 0.7)] * 5) == pytest.approx(0.7, abs=1e-15)


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
        records = [rec(r, 0.0, r * r) for r in residuals]
        for mean_var, mean_err in error_uncertainty_curve(records, num_bins=8):
            assert mean_err == pytest.approx(mean_var, abs=1e-12)

    def test_one_bin_collapses_to_headline_numbers(self):
        records = from_residuals([0.5, 1.5, -1.0], [0.3, 0.9, 0.6])
        ((mean_var, mean_err),) = error_uncertainty_curve(records, num_bins=1)
        assert mean_var == pytest.approx(sharpness(records), abs=1e-15)
        assert mean_err == pytest.approx(mse(records), abs=1e-15)

    def test_hand_worked_two_bins(self):
        records = from_residuals([1.0, 1.0, 3.0, 3.0], [1.0, 2.0, 3.0, 4.0])
        points = error_uncertainty_curve(records, num_bins=2)
        assert points == [(1.5, 1.0), (3.5, 9.0)]

    def test_last_bin_absorbs_remainder(self):
        records = from_residuals([1.0] * 5, [1, 2, 3, 4, 5])
        points = error_uncertainty_curve(records, num_bins=2)
        assert len(points) == 2
        assert points[0][0] == pytest.approx(1.5)  # rows {1, 2}
        assert points[1][0] == pytest.approx(4.0)  # rows {3, 4, 5}

    def test_too_many_bins_rejected(self):
        with pytest.raises(InputError):
            error_uncertainty_curve(from_residuals([1.0]), num_bins=2)


class TestSelectiveSweep:
    def make(self):
        return from_residuals(
            [0.0, 1.0, 2.0], [0.1, 0.2, 0.3]
        )  # sq-errs {0.0, 1.0, 4.0}

    def test_keep_everything(self):
        records = self.make()
        (row,) = selective_sweep(records, [0.3])
        assert row == (0.3, 1.0, pytest.approx(mse(records)))

    def test_reject_everything(self):
        (row,) = selective_sweep(self.make(), [0.05])
        assert row == (0.05, 0.0, None)

    def test_hand_worked_midpoint(self):
        (row,) = selective_sweep(self.make(), [0.2])
        assert row[1] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert row[2] == pytest.approx(0.5, abs=1e-12)

    def test_thresholds_must_ascend(self):
        with pytest.raises(InputError):
            selective_sweep(self.make(), [0.3, 0.1])

    def test_monotone_mse_on_ideal_records(self):
        rng = np.random.default_rng(77)
        residuals = rng.normal(size=18)
        records = [rec(r, 0.0, r * r) for r in residuals]
        variances = sorted(r.var_pred for r in records)
        rows = selective_sweep(records, variances)
        mses = [row[2] for row in rows]
        assert all(a <= b + 1e-12 for a, b in zip(mses, mses[1:]))


class TestComputeReport:
    def make_records(self, with_domains):
        rng = np.random.default_rng(21)
        records = []
        for i in range(30):
            domain = (1 if i >= 20 else 0) if with_domains else None
            records.append(
                rec(
                    rng.normal(),
                    rng.normal(),
                    float(rng.uniform(0.1, 2.0)),
                    system=f"sys{i % 5}",
                    domain=domain,
                )
            )
        return records

    def test_fields_match_individual_metrics(self):
        records = self.make_records(with_domains=False)
        report = compute_report(records)
        assert report.mse == mse(records)
        assert report.srcc_system == srcc_system(records)
        assert report.nll == nll_metric(records)
        assert report.uce == uce(records)
        assert report.sharpness == sharpness(records)
        assert report.auc is None

    def test_auc_present_with_domain_labels(self):
        records = self.make_records(with_domains=True)
        report = compute_report(records)
        expected = roc_auc(
            [r.var_pred for r in records], [r.domain_label for r in records]
        )
        assert report.auc == expected

    def test_json_payload_carries_all_six_fields(self):
        report = compute_report(self.make_records(with_domains=False))
        payload = json.loads(report.to_json())
        assert sorted(payload) == ["auc", "mse", "nll", "sharpness", "srcc_system", "uce"]
        assert payload["auc"] is None

    def test_tied_system_means_serialize_as_null(self):
        records = [rec(i, 1.0, system=f"sys{i % 2}") for i in range(6)]
        report = compute_report(records)
        assert math.isnan(report.srcc_system)
        assert report.to_dict()["srcc_system"] is None

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        payload = json.loads(report.to_json(), parse_constant=reject)
        assert payload["srcc_system"] is None
        assert payload["mse"] == report.mse

    def test_finite_report_bytes_are_the_plain_sorted_dump(self):
        report = compute_report(self.make_records(with_domains=True))
        expected = json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"
        assert report.to_json() == expected

    def test_report_is_a_plain_value_object(self):
        report = MetricsReport(
            mse=1.0, srcc_system=0.5, nll=0.9, uce=0.1, sharpness=2.0, auc=None
        )
        assert json.loads(report.to_json())["mse"] == 1.0
