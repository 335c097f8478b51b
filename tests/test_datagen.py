"""Synthetic dataset generation, corruption, splits, and CSV interchange."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from mosuq.datagen import (
    DOMAIN_IN,
    DOMAIN_OOD,
    Dataset,
    GenConfig,
    Heteroscedastic,
    Homoscedastic,
    RaterPanel,
    add_feature_noise,
    feature_noise_analogue,
    gen_ood_shift,
    gen_synthetic,
    load_dataset_csv,
    save_dataset_csv,
    split_dataset,
)
from mosuq.errors import ConfigError, InputError
from mosuq.metrics import nll_metric

from conftest import concat_datasets, dataset_of, fixture_gen_config


def small_cfg(noise_model, seed=0, **kwargs):
    defaults = dict(num_systems=4, samples_per_system=25, feature_dim=3, seed=seed)
    defaults.update(kwargs)
    return GenConfig(noise_model=noise_model, **defaults)


def big_cfg(noise_model, seed=0):
    """10 systems x 1000 samples = 10k rows for Monte Carlo bounds."""
    return GenConfig(
        num_systems=10,
        samples_per_system=1000,
        feature_dim=4,
        noise_model=noise_model,
        seed=seed,
    )


class TestGenConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"num_systems": 0},
        {"samples_per_system": 0},
        {"feature_dim": 0},
        {"seed": -1},
    ])
    def test_bad_counts(self, kwargs):
        with pytest.raises(ConfigError):
            GenConfig(**kwargs)

    def test_bad_noise_models(self):
        with pytest.raises(ConfigError):
            Homoscedastic(sigma=-0.1)
        with pytest.raises(ConfigError):
            RaterPanel(num_raters=0)
        with pytest.raises(ConfigError):
            RaterPanel(rater_sd=-1.0)


class TestGenSynthetic:
    def test_deterministic_given_seed(self):
        a = gen_synthetic(small_cfg(Heteroscedastic()))
        b = gen_synthetic(small_cfg(Heteroscedastic()))
        assert np.array_equal(a.features(), b.features())
        assert np.array_equal(a.labels(), b.labels())

    def test_different_seeds_differ(self):
        a = gen_synthetic(small_cfg(Heteroscedastic(), seed=0))
        b = gen_synthetic(small_cfg(Heteroscedastic(), seed=1))
        assert not np.array_equal(a.labels(), b.labels())

    def test_features_do_not_depend_on_noise_model(self):
        het = gen_synthetic(small_cfg(Heteroscedastic()))
        homo = gen_synthetic(small_cfg(Homoscedastic(0.3)))
        assert np.array_equal(het.features(), homo.features())

    def test_noiseless_label_agrees_across_noise_paths(self):
        """sigma = 0 and a zero-spread rater panel both hand back the clean
        score, so their labels must coincide bit for bit."""
        clean_a = gen_synthetic(small_cfg(Homoscedastic(0.0)))
        clean_b = gen_synthetic(small_cfg(RaterPanel(num_raters=1, rater_sd=0.0)))
        assert np.array_equal(clean_a.labels(), clean_b.labels())
        assert all(s.true_noise_var == 0.0 for s in clean_a)

    def test_clean_scores_stay_inside_the_scale(self):
        clean = gen_synthetic(small_cfg(Homoscedastic(0.0), samples_per_system=200))
        labels = clean.labels()
        assert labels.min() > 1.0
        assert labels.max() < 5.0

    def test_label_mean_in_scale_for_default_config(self):
        dataset = gen_synthetic(GenConfig())
        assert 1.0 < dataset.labels().mean() < 5.0

    def test_homoscedastic_residual_spread_matches_sigma(self):
        sigma = 0.4
        noisy = gen_synthetic(big_cfg(Homoscedastic(sigma)))
        clean = gen_synthetic(big_cfg(Homoscedastic(0.0)))
        residual_std = float(np.std(noisy.labels() - clean.labels()))
        assert residual_std == pytest.approx(sigma, rel=0.05)

    def test_heteroscedastic_true_variance_bounds(self):
        dataset = gen_synthetic(small_cfg(Heteroscedastic()))
        for s in dataset:
            assert 0.05**2 < s.true_noise_var < 0.55**2

    def test_rater_panel_oracle_variance(self):
        single = gen_synthetic(small_cfg(RaterPanel(num_raters=1, rater_sd=0.8)))
        assert all(s.true_noise_var == 0.8**2 for s in single)
        panel = gen_synthetic(small_cfg(RaterPanel(num_raters=4, rater_sd=0.8)))
        assert all(s.true_noise_var == 0.8**2 / 4 for s in panel)

    def test_rater_panel_empirical_variance(self):
        """Variance of a mean of four sd-0.8 draws is 0.16; check it over
        10k samples against the noiseless twin."""
        panel = gen_synthetic(big_cfg(RaterPanel(num_raters=4, rater_sd=0.8)))
        clean = gen_synthetic(big_cfg(RaterPanel(num_raters=4, rater_sd=0.0)))
        residual_var = float(np.var(panel.labels() - clean.labels()))
        assert residual_var == pytest.approx(0.16, rel=0.05)

    def test_sample_bookkeeping(self):
        dataset = gen_synthetic(small_cfg(Heteroscedastic()))
        assert len(dataset) == 4 * 25
        assert dataset.feature_dim == 3
        assert len({s.id for s in dataset}) == len(dataset)
        assert {s.system_id for s in dataset} == {f"sys{k:03d}" for k in range(4)}
        assert all(s.domain_tag == DOMAIN_IN for s in dataset)


class TestGenOodShift:
    def test_zero_shift_reproduces_in_domain_data(self):
        cfg = small_cfg(Heteroscedastic())
        base = gen_synthetic(cfg)
        shifted = gen_ood_shift(cfg, 0.0)
        assert np.array_equal(base.features(), shifted.features())
        assert np.array_equal(base.labels(), shifted.labels())
        assert all(s.domain_tag == DOMAIN_IN for s in shifted)

    def test_every_sample_translated_by_the_same_three_unit_vector(self):
        cfg = small_cfg(Heteroscedastic())
        base = gen_synthetic(cfg)
        shifted = gen_ood_shift(cfg, 3.0)
        diffs = shifted.features() - base.features()
        assert np.max(np.abs(diffs - diffs[0])) < 1e-12
        assert float(np.linalg.norm(diffs[0])) == pytest.approx(3.0, abs=1e-9)

    def test_positive_shift_tags_ood(self):
        shifted = gen_ood_shift(small_cfg(Heteroscedastic()), 1.5)
        assert all(s.domain_tag == DOMAIN_OOD for s in shifted)

    def test_mixed_pool_keeps_consistent_tags(self):
        cfg = small_cfg(Heteroscedastic())
        pool = concat_datasets(gen_synthetic(cfg), gen_ood_shift(cfg, 3.0))
        tags = [s.domain_tag for s in pool]
        assert tags == [DOMAIN_IN] * 100 + [DOMAIN_OOD] * 100

    def test_negative_shift_rejected(self):
        with pytest.raises(InputError):
            gen_ood_shift(small_cfg(Heteroscedastic()), -0.5)


class TestAddFeatureNoise:
    def test_level_zero_is_identity(self):
        dataset = gen_synthetic(small_cfg(Heteroscedastic()))
        assert add_feature_noise(dataset, 0.0, seed=3) is dataset

    def test_deterministic_given_seed(self):
        dataset = gen_synthetic(small_cfg(Heteroscedastic()))
        a = add_feature_noise(dataset, 0.5, seed=7)
        b = add_feature_noise(dataset, 0.5, seed=7)
        assert np.array_equal(a.features(), b.features())

    def test_labels_untouched_and_tagged_ood(self):
        dataset = gen_synthetic(small_cfg(Heteroscedastic()))
        noisy = add_feature_noise(dataset, 0.5, seed=7)
        assert np.array_equal(noisy.labels(), dataset.labels())
        assert all(s.domain_tag == DOMAIN_OOD for s in noisy)

    def test_perturbation_spread_tracks_level(self):
        dataset = gen_synthetic(big_cfg(Heteroscedastic()))
        level = 0.3
        noisy = add_feature_noise(dataset, level, seed=11)
        perturbation = noisy.features() - dataset.features()
        target = level * float(np.std(dataset.features()))
        assert float(np.std(perturbation)) == pytest.approx(target, rel=0.05)

    def test_negative_level_rejected(self):
        dataset = gen_synthetic(small_cfg(Heteroscedastic()))
        with pytest.raises(InputError):
            add_feature_noise(dataset, -0.1, seed=0)

    def test_amplitude_analogue_mapping(self):
        assert feature_noise_analogue(0.02) == pytest.approx(2.0, rel=1e-12)
        assert feature_noise_analogue(0.005) == pytest.approx(0.5, rel=1e-12)
        assert feature_noise_analogue(0.0) == 0.0


class TestSplitDataset:
    def test_exact_proportions(self):
        dataset = gen_synthetic(small_cfg(Heteroscedastic()))  # n = 100
        parts = split_dataset(dataset, (0.7, 0.15, 0.15), seed=0)
        assert [len(p) for p in parts] == [70, 15, 15]

    def test_first_part_absorbs_the_remainder(self):
        cfg = small_cfg(Heteroscedastic(), num_systems=1, samples_per_system=101)
        parts = split_dataset(gen_synthetic(cfg), (0.7, 0.15, 0.15), seed=0)
        assert [len(p) for p in parts] == [71, 15, 15]

    def test_parts_partition_the_ids(self):
        dataset = gen_synthetic(small_cfg(Heteroscedastic()))
        parts = split_dataset(dataset, (0.5, 0.25, 0.25), seed=2)
        ids = [s.id for part in parts for s in part]
        assert sorted(ids) == sorted(s.id for s in dataset)
        assert len(set(ids)) == len(ids)

    def test_deterministic_given_seed(self):
        dataset = gen_synthetic(small_cfg(Heteroscedastic()))
        a = split_dataset(dataset, (0.8, 0.2), seed=5)
        b = split_dataset(dataset, (0.8, 0.2), seed=5)
        assert [s.id for s in a[0]] == [s.id for s in b[0]]
        c = split_dataset(dataset, (0.8, 0.2), seed=6)
        assert [s.id for s in a[0]] != [s.id for s in c[0]]

    def test_bad_fractions_rejected(self):
        dataset = gen_synthetic(small_cfg(Heteroscedastic()))
        with pytest.raises(ConfigError):
            split_dataset(dataset, (0.5, 0.4), seed=0)
        with pytest.raises(ConfigError):
            split_dataset(dataset, (1.2, -0.2), seed=0)
        with pytest.raises(ConfigError):
            split_dataset(dataset, (), seed=0)


class TestCsvRoundTrip:
    def test_header_and_stability(self, tmp_path):
        dataset = gen_synthetic(small_cfg(Heteroscedastic()))
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        save_dataset_csv(dataset, first)
        text = first.read_text()
        assert text.splitlines()[0] == "id,system_id,domain_tag,y,true_noise_var,f0,f1,f2"
        save_dataset_csv(load_dataset_csv(first), second)
        assert second.read_bytes() == first.read_bytes()

    def test_loaded_fields_match(self, tmp_path):
        dataset = gen_synthetic(small_cfg(Heteroscedastic()))
        path = tmp_path / "data.csv"
        save_dataset_csv(dataset, path)
        loaded = load_dataset_csv(path)
        assert np.array_equal(loaded.features(), dataset.features())
        assert np.array_equal(loaded.labels(), dataset.labels())
        assert [s.id for s in loaded] == [s.id for s in dataset]
        assert [s.true_noise_var for s in loaded] == [s.true_noise_var for s in dataset]

    def test_missing_oracle_variance_round_trips_as_none(self, tmp_path):
        dataset = dataset_of(["a"], ["sys0"], [[1.0, 2.0]], [3.0])
        path = tmp_path / "bare.csv"
        save_dataset_csv(dataset, path)
        assert ",3.0,," in path.read_text()
        assert load_dataset_csv(path)[0].true_noise_var is None

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(InputError, match="empty"):
            load_dataset_csv(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("id,system_id,domain_tag,y,true_noise_var,f0\n")
        with pytest.raises(InputError, match="no rows"):
            load_dataset_csv(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,y,f0\nx,1.0,2.0\n")
        with pytest.raises(InputError, match="header"):
            load_dataset_csv(path)

    def test_short_row_reported_with_line_number(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text(
            "id,system_id,domain_tag,y,true_noise_var,f0\n"
            "a,sys0,in_domain,3.0,0.1,0.5\n"
            "b,sys0,in_domain,3.0\n"
        )
        with pytest.raises(InputError, match=":3:"):
            load_dataset_csv(path)

    def test_bad_float_reported_with_line_number(self, tmp_path):
        path = tmp_path / "badfloat.csv"
        path.write_text(
            "id,system_id,domain_tag,y,true_noise_var,f0\n"
            "a,sys0,in_domain,oops,0.1,0.5\n"
        )
        with pytest.raises(InputError, match=":2:"):
            load_dataset_csv(path)

    def test_bad_feature_reported_with_line_number(self, tmp_path):
        path = tmp_path / "badfeature.csv"
        path.write_text(
            "id,system_id,domain_tag,y,true_noise_var,f0,f1\n"
            "a,sys0,in_domain,3.0,0.1,0.5,0.25\n"
            "b,sys0,in_domain,3.0,0.1,0.5,oops\n"
        )
        with pytest.raises(InputError, match=r"badfeature\.csv:3:"):
            load_dataset_csv(path)

    def test_nan_oracle_variance_rejected(self, tmp_path):
        """nan marks a missing true_noise_var in a loaded dataset, so a
        literal nan in the file would read back as missing: it is refused."""
        path = tmp_path / "nanvar.csv"
        path.write_text(
            "id,system_id,domain_tag,y,true_noise_var,f0\n"
            "a,sys0,in_domain,3.0,0.1,0.5\n"
            "b,sys0,in_domain,3.0,nan,0.5\n"
        )
        with pytest.raises(InputError, match=r"nanvar\.csv:3: true_noise_var is nan"):
            load_dataset_csv(path)

    def test_quoted_ids_round_trip(self, tmp_path):
        ids = ["comma,id", 'quote"id', "new\nline", "plain"]
        x = np.random.default_rng(3).normal(size=(len(ids), 2))
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        save_dataset_csv(dataset_of(ids, ["s,0"] * len(ids), x, range(len(ids))), first)
        loaded = load_dataset_csv(first)
        assert [s.id for s in loaded] == ids
        assert np.array_equal(loaded.features(), x)
        save_dataset_csv(loaded, second)
        assert second.read_bytes() == first.read_bytes()

    def test_carriage_returns_in_ids_round_trip(self, tmp_path):
        """A lone carriage return ends a row for csv.reader unless its cell
        is quoted, so ids and system ids holding one must be quoted."""
        ids = ["a\rb", "c\r", "\rd", "e\r\nf", "plain"]
        system_ids = [f"s\r{k}" for k in range(len(ids))]
        x = np.random.default_rng(4).normal(size=(len(ids), 2))
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        save_dataset_csv(dataset_of(ids, system_ids, x, range(len(ids))), first)
        loaded = load_dataset_csv(first)
        assert [s.id for s in loaded] == ids
        assert [s.system_id for s in loaded] == [f"s\r{k}" for k in range(len(ids))]
        assert np.array_equal(loaded.features(), x)
        save_dataset_csv(loaded, second)
        assert second.read_bytes() == first.read_bytes()

    def test_unknown_domain_tag_rejected(self, tmp_path):
        path = tmp_path / "tag.csv"
        path.write_text(
            "id,system_id,domain_tag,y,true_noise_var,f0\n"
            "a,sys0,somewhere,3.0,0.1,0.5\n"
        )
        with pytest.raises(InputError, match="domain_tag"):
            load_dataset_csv(path)


class TestDatasetContainer:
    def test_columns_are_read_only_arrays_handed_out_without_a_copy(self):
        dataset = gen_synthetic(small_cfg(Heteroscedastic()))
        assert dataset.features() is dataset.x
        assert dataset.labels() is dataset.y
        columns = (dataset.ids, dataset.system_ids, dataset.domain_tags,
                   dataset.y, dataset.true_noise_var, dataset.x)
        for column in columns:
            assert isinstance(column, np.ndarray)
            assert not column.flags.writeable
        with pytest.raises(ValueError):
            dataset.features()[0, 0] = 1.0

    def test_rows_are_built_from_the_columns(self):
        dataset = gen_synthetic(small_cfg(Heteroscedastic()))
        sample = dataset[27]
        assert sample.id == "sys001-00002"
        assert sample.system_id == "sys001"
        assert sample.y == dataset.y[27]
        assert sample.true_noise_var == dataset.true_noise_var[27]
        assert np.array_equal(sample.features, dataset.x[27])
        assert [s.id for s in dataset] == dataset.ids.tolist()

    def test_split_moves_every_column_with_its_row(self):
        dataset = gen_synthetic(small_cfg(Heteroscedastic()))
        by_id = {s.id: s for s in dataset}
        for part in split_dataset(dataset, (0.5, 0.3, 0.2), seed=4):
            for s in part:
                whole = by_id[s.id]
                assert (s.system_id, s.y, s.true_noise_var) == (
                    whole.system_id, whole.y, whole.true_noise_var
                )
                assert np.array_equal(s.features, whole.features)

    def test_columns_of_different_lengths_rejected(self):
        with pytest.raises(InputError):
            Dataset(["a", "b"], ["s", "s"], ["in_domain"] * 2, [1.0], [0.1, 0.1], np.zeros((2, 3)))

    def test_inconsistent_widths_rejected(self):
        with pytest.raises(InputError):
            dataset_of(["a", "b"], ["s", "s"], [np.zeros(2), np.zeros(3)], [3.0, 3.0])

    def test_empty_dataset_has_no_feature_dim(self):
        with pytest.raises(InputError):
            dataset_of([], [], np.empty((0, 0)), []).feature_dim


class TestOracleNllLowerBound:
    def test_trained_nll_never_beats_the_oracle(self, hetero_runs):
        """A model cannot be better-calibrated than the generating process.

        The oracle scores each test sample with the clean score and the true
        noise variance; the trained model's NLL must sit at or above it, up
        to a 3-sigma Monte Carlo band on the oracle mean.
        """
        for run in hetero_runs:
            cfg = replace(fixture_gen_config(run.seed), noise_model=Homoscedastic(0.0))
            clean_by_id = {s.id: s.y for s in gen_synthetic(cfg)}
            terms = []
            for s in run.test_split:
                var = s.true_noise_var
                resid = s.y - clean_by_id[s.id]
                terms.append(0.5 * math.log(2 * math.pi * var) + resid**2 / (2 * var))
            terms = np.array(terms)
            oracle_nll = float(terms.mean())
            band = 3.0 * float(terms.std(ddof=1)) / math.sqrt(len(terms))

            y_hat, s_vals = run.predictions(run.test_split)
            var_pred = np.exp(s_vals) * run.scale.variance_multiplier
            assert nll_metric(run.test_split.labels(), y_hat, var_pred) >= oracle_nll - band
