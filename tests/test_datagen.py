"""Synthetic dataset generation, corruption, splits, and CSV interchange."""

from __future__ import annotations

import csv
import math
import re
import tracemalloc
import warnings
from dataclasses import fields, replace

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
    split_rows,
)
from mosuq import datagen as datagen_module
from mosuq.errors import ConfigError, InputError
from mosuq.ioutils import _CSV_CHUNK_ROWS
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
        {"num_systems": 2.5},
        {"seed": True},
    ])
    def test_bad_counts(self, kwargs):
        with pytest.raises(ConfigError):
            GenConfig(**kwargs)

    def test_numpy_integers_are_accepted(self):
        cfg = GenConfig(
            num_systems=np.int64(2), samples_per_system=np.int32(3),
            feature_dim=np.uint8(2), seed=np.uint64(7),
        )
        plain = GenConfig(num_systems=2, samples_per_system=3, feature_dim=2, seed=7)
        assert cfg == plain
        assert np.array_equal(gen_synthetic(cfg).x, gen_synthetic(plain).x)

    def test_bad_noise_models(self):
        with pytest.raises(ConfigError):
            Homoscedastic(sigma=-0.1)
        with pytest.raises(ConfigError):
            RaterPanel(num_raters=0)
        with pytest.raises(ConfigError):
            RaterPanel(rater_sd=-1.0)
        with pytest.raises(ConfigError):
            RaterPanel(num_raters=2.5)
        for bad in (math.nan, math.inf, True, "0.3", None):
            with pytest.raises(ConfigError):
                Homoscedastic(sigma=bad)
            with pytest.raises(ConfigError):
                RaterPanel(rater_sd=bad)


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
        for bad in (math.nan, math.inf):
            with pytest.raises(InputError):
                gen_ood_shift(small_cfg(Heteroscedastic()), bad)


class TestAddFeatureNoise:
    def test_level_zero_is_identity(self):
        dataset = gen_synthetic(small_cfg(Heteroscedastic()))
        assert add_feature_noise(dataset, 0.0, seed=3) is dataset

    def test_deterministic_given_seed(self):
        dataset = gen_synthetic(small_cfg(Heteroscedastic()))
        a = add_feature_noise(dataset, 0.5, seed=7)
        b = add_feature_noise(dataset, 0.5, seed=7)
        assert np.array_equal(a.features(), b.features())

    def test_features_are_the_table_plus_scaled_normal_draws_bit_for_bit(self):
        """The in-place scale and shift give the bits of x + normal * (level * std)."""
        dataset = gen_synthetic(GenConfig(num_systems=5, samples_per_system=400, feature_dim=16))
        draws = np.random.default_rng(7).normal(size=dataset.x.shape)
        want = dataset.x + draws * (0.5 * float(np.std(dataset.x)))
        table = dataset.x.nbytes
        peak = traced_peak(lambda: add_feature_noise(dataset, 0.5, seed=7))
        assert add_feature_noise(dataset, 0.5, seed=7).x.tobytes() == want.tobytes()
        # One new feature table, as np.std's temporary before it (2.13x when the
        # draws, their scaled copy and the sum were held together).
        assert peak < 1.5 * table, (peak, table)

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
        for bad in (math.nan, math.inf):
            with pytest.raises(InputError):
                add_feature_noise(dataset, bad, seed=0)

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
        with pytest.raises(ConfigError):
            split_dataset(dataset, (math.nan, 0.5, 0.5), seed=0)


def traced_peak(fn) -> int:
    """The tracemalloc peak, in bytes, of calling fn."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSplitWrite:
    """gen-data writes each part of a split straight from the generated table,
    as save_dataset_csv(dataset, path, rows) at split_rows's indices."""

    def test_split_rows_are_the_rows_of_the_split_parts(self):
        dataset = gen_synthetic(small_cfg(Heteroscedastic(), num_systems=1, samples_per_system=101))
        rows = split_rows(dataset, (0.7, 0.15, 0.15), seed=4)
        assert [len(r) for r in rows] == [71, 15, 15]
        assert sorted(np.concatenate(rows).tolist()) == list(range(101))
        for part, index in zip(split_dataset(dataset, (0.7, 0.15, 0.15), seed=4), rows):
            assert part.ids.tolist() == dataset.ids[index].tolist()
            assert part.x.tobytes() == dataset.x[index].tobytes()

    # 2,800 rows cut 0.7/0.15/0.15 give parts of 1,960, 420 and 420 rows: the
    # first spans four 512-row chunks, the last of them short. 4 x 13 rows cut
    # 0.5/0.25/0.25 give parts shorter than one chunk.
    @pytest.mark.parametrize("per, fractions", [(700, (0.7, 0.15, 0.15)), (13, (0.5, 0.25, 0.25))])
    def test_rows_write_the_bytes_of_each_split_part(self, tmp_path, per, fractions):
        dataset = gen_synthetic(small_cfg(Heteroscedastic(), seed=3, samples_per_system=per))
        var = dataset.true_noise_var.copy()
        var[::5] = math.nan  # missing variances, written as empty fields
        dataset = replace(dataset, true_noise_var=var)
        parts = split_dataset(dataset, fractions, seed=7)
        if per == 700:
            assert len(parts[0]) > 3 * _CSV_CHUNK_ROWS and len(parts[0]) % _CSV_CHUNK_ROWS
        for i, (part, rows) in enumerate(zip(parts, split_rows(dataset, fractions, seed=7))):
            save_dataset_csv(part, tmp_path / f"part{i}.csv")
            save_dataset_csv(dataset, tmp_path / f"rows{i}.csv", rows)
            assert (tmp_path / f"rows{i}.csv").read_bytes() == (
                tmp_path / f"part{i}.csv"
            ).read_bytes()
            assert ",," in (tmp_path / f"rows{i}.csv").read_text()

    def test_rows_may_be_any_integer_sequence(self, tmp_path):
        dataset = gen_synthetic(small_cfg(Heteroscedastic()))
        save_dataset_csv(dataset._take(np.array([3, 0, 3])), tmp_path / "want.csv")
        for rows in ([3, 0, 3], np.array([3, 0, 3], dtype=np.uint8), np.array([3.0, 0.0, 3.0])):
            save_dataset_csv(dataset, tmp_path / "got.csv", rows)
            assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    @pytest.mark.parametrize("rows", [[], [0, 100], [-1], [0.5], [math.nan], [[0, 1]], ["a"]])
    def test_rows_outside_the_table_are_refused_without_a_file(self, tmp_path, rows):
        dataset = gen_synthetic(small_cfg(Heteroscedastic()))  # n = 100
        with pytest.raises(InputError):
            save_dataset_csv(dataset, tmp_path / "d.csv", rows)
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("per", [500, 2000])
    def test_writing_the_splits_holds_one_chunk_above_the_table(self, tmp_path, per):
        """Writing all three parts from the table holds no more than writing a
        one-chunk dataset, one gathered chunk of rows and the row indices (8 B
        a row, twice over for the part being written), whatever the row count;
        split_dataset's parts would hold a second table (252 B a row here)."""
        dataset = gen_synthetic(GenConfig(num_systems=10, samples_per_system=per, feature_dim=16))
        chunk = gen_synthetic(GenConfig(num_systems=1, samples_per_system=_CSV_CHUNK_ROWS,
                                        feature_dim=16))
        one_chunk = traced_peak(lambda: save_dataset_csv(chunk, tmp_path / "chunk.csv"))

        def write_splits():
            for i, rows in enumerate(split_rows(dataset, (0.7, 0.15, 0.15), seed=1)):
                save_dataset_csv(dataset, tmp_path / f"{i}.csv", rows)

        peak = traced_peak(write_splits)
        gathered = sum(getattr(chunk, field.name).nbytes for field in fields(Dataset))
        assert peak < one_chunk + gathered + 32 * len(dataset), (peak, one_chunk)


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

    def test_unknown_domain_tag_names_the_file_and_line(self, tmp_path):
        path = tmp_path / "tag.csv"
        path.write_text(
            "id,system_id,domain_tag,y,true_noise_var,f0\n"
            "a,sys0,ood,3.0,0.1,0.5\n"
            "b,sys0,zzz,3.0,0.1,0.5\n"
        )
        with pytest.raises(InputError, match=f"{path}:3: unknown domain_tag 'zzz'"):
            load_dataset_csv(path)


FIXED_HEADER = ["id", "system_id", "domain_tag", "y", "true_noise_var"]


def oracle_load(path) -> Dataset:
    """The loader as it was before its one-pass rewrite, the reference here:
    csv.reader and float() per row, each row checked in turn."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise InputError(f"{path}: empty dataset file")
        d = len(header) - len(FIXED_HEADER)
        if d < 1 or header != [*FIXED_HEADER, *(f"f{j}" for j in range(d))]:
            raise InputError(f"{path}: unexpected header {header!r}")
        columns = ([], [], [], [], [], [])
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise InputError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
            try:
                var = math.nan if row[4] == "" else float(row[4])
                numbers = [float(row[3]), var, [float(cell) for cell in row[5:]]]
            except ValueError as exc:
                raise InputError(f"{path}:{lineno}: {exc}") from None
            if row[4] != "" and math.isnan(var):
                raise InputError(f"{path}:{lineno}: true_noise_var is nan")
            if row[2] not in (DOMAIN_IN, DOMAIN_OOD):
                raise InputError(f"{path}:{lineno}: unknown domain_tag {row[2]!r}")
            for column, value in zip(columns, [*row[:3], *numbers]):
                column.append(value)
    if not columns[0]:
        raise InputError(f"{path}: dataset file has a header but no rows")
    return Dataset(*columns)


def write_table(path, rows, d=2, newline="\n", final_newline=True):
    """rows under the dataset header, a cell quoted where it holds , " \\r or \\n."""
    def cell(text):
        return '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"\r\n') else text

    header = [*FIXED_HEADER, *(f"f{j}" for j in range(d))]
    lines = [",".join(map(cell, row)) for row in [header, *rows]]
    path.write_bytes((newline.join(lines) + (newline if final_newline else "")).encode())
    return path


def assert_same_columns(got: Dataset, want: Dataset):
    for field in fields(Dataset):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert a.dtype == b.dtype and a.shape == b.shape, field.name
        assert a.tobytes() == b.tobytes(), field.name


QUOTED_IDS = ["comma,id", 'quote"id', '""', "new\nline", "car\rriage", "crlf\r\nid", " pad ", "#x"]


class TestOnePassLoader:
    """load_dataset_csv against the csv.reader + float() oracle: the same
    columns, values and dtypes on valid files, and the same path:row on
    corrupt ones."""

    @pytest.mark.parametrize("d, noise", [(1, RaterPanel(3, 0.5)), (16, Heteroscedastic())])
    def test_generated_files_load_as_the_oracle_loads_them(self, tmp_path, d, noise):
        cfg = GenConfig(num_systems=3, samples_per_system=40, feature_dim=d, noise_model=noise)
        pool = concat_datasets(gen_synthetic(cfg), gen_ood_shift(cfg, 2.0))
        path = tmp_path / "gen.csv"
        save_dataset_csv(pool, path)
        assert_same_columns(load_dataset_csv(path), oracle_load(path))
        assert_same_columns(load_dataset_csv(path), pool)

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("final_newline", [True, False], ids=["final", "no-final"])
    @pytest.mark.parametrize("d", [1, 16])
    def test_hand_written_files_load_as_the_oracle_loads_them(self, tmp_path, newline,
                                                              final_newline, d):
        rng = np.random.default_rng(d)
        rows = [
            [name, f"s,{k % 3}", DOMAIN_OOD if k % 2 else DOMAIN_IN, repr(float(y)),
             "" if k % 3 == 0 else repr(float(v)), *map(repr, rng.normal(size=d).tolist())]
            for k, (name, y, v) in enumerate(zip(QUOTED_IDS, rng.normal(3, 1, 8), rng.random(8)))
        ]
        rows[1][3:5] = [" 2.5 ", "1e-3"]  # spaces around a number, and exponent forms
        rows[2][3:5] = ["+.5", "0E0"]
        rows[4][3] = "-inf"
        path = write_table(tmp_path / "hand.csv", rows, d, newline, final_newline)
        got = load_dataset_csv(path)
        assert_same_columns(got, oracle_load(path))
        assert got.ids.tolist() == QUOTED_IDS
        assert np.isnan(got.true_noise_var[::3]).all()

    ROW = ["a", "sys0", DOMAIN_IN, "3.0", "0.1", "0.5", "0.25"]

    @pytest.mark.parametrize("edit, row", [
        (lambda rows: rows[1].pop(), 3),  # short row
        (lambda rows: rows[0].append("1.0"), 2),  # long row
        (lambda rows: rows[1].__setitem__(3, "oops"), 3),  # bad y
        (lambda rows: rows[1].__setitem__(3, ""), 3),  # empty y
        (lambda rows: rows[0].__setitem__(4, "x"), 2),  # bad variance
        (lambda rows: rows[2].__setitem__(6, "oops"), 4),  # bad feature
        (lambda rows: rows[2].__setitem__(5, "1,5"), 4),  # two numbers in one quoted cell
        (lambda rows: rows[1].__setitem__(4, "nan"), 3),  # literal nan variance
        (lambda rows: rows[1].__setitem__(4, "NaN"), 3),
        (lambda rows: rows[1].__setitem__(2, "zzz"), 3),  # unknown tag
        (lambda rows: rows[1].__setitem__(2, " ood"), 3),
        (lambda rows: (rows[0].__setitem__(0, "a\nb"), rows[1].__setitem__(3, "x")), 3),
        (lambda rows: (rows[0].__setitem__(0, "a\r\nb"), rows[2].__setitem__(2, "?")), 4),
    ], ids=["short", "long", "bad-y", "empty-y", "bad-var", "bad-feature", "comma-feature",
            "nan-var", "NaN-var", "unknown-tag", "padded-tag", "after-quoted-lf",
            "after-quoted-crlf"])
    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_a_corrupt_row_is_named_as_the_oracle_names_it(self, tmp_path, edit, row, newline):
        rows = [list(self.ROW) for _ in range(4)]
        edit(rows)
        path = write_table(tmp_path / "bad.csv", rows, newline=newline)
        self.assert_same_fault(path, f"{path}:{row}: ")

    @pytest.mark.parametrize("text, prefix", [
        ("", ""),  # empty
        ("id,system_id,domain_tag,y,true_noise_var,f0,f1\n", ""),  # header only
        ("id,system_id,domain_tag,y,true_noise_var\na,s,ood,1.0,\n", ""),  # no features
        ("id,system_id,domain_tag,y,true_noise_var,f0,f1\na,s,ood,1,1,1,1\n\"b,s,ood,1,1,1,1\n",
         ":3"),  # unterminated quote
    ], ids=["empty", "header-only", "no-features", "unterminated-quote"])
    def test_a_corrupt_file_is_named_as_the_oracle_names_it(self, tmp_path, text, prefix):
        path = tmp_path / "bad.csv"
        path.write_bytes(text.encode())
        self.assert_same_fault(path, f"{path}{prefix}: ")

    @staticmethod
    def assert_same_fault(path, prefix):
        with pytest.raises(InputError) as oracle:
            oracle_load(path)
        assert str(oracle.value).startswith(prefix)
        with pytest.raises(InputError, match=re.escape(prefix)):
            load_dataset_csv(path)

    @pytest.mark.parametrize("column, index", [("y", 3), ("true_noise_var", 4), ("f1", 6)])
    @pytest.mark.parametrize("cell", ["1_0", "١"])  # float() reads both, numpy neither
    def test_every_numeric_column_follows_numpy_number_rule(self, tmp_path, column, index, cell):
        assert float(cell) in (10.0, 1.0)
        rows = [list(self.ROW) for _ in range(3)]
        rows[1][index] = cell
        path = write_table(tmp_path / "rule.csv", rows)
        want = f"{path}:3: {column} is not a number: {cell!r}"
        with pytest.raises(InputError, match=re.escape(want)):
            load_dataset_csv(path)

    def test_blank_lines_are_skipped_but_counted_as_records(self, tmp_path):
        header, good = ",".join([*FIXED_HEADER, "f0", "f1"]), ",".join(self.ROW)
        path = tmp_path / "blank.csv"
        path.write_text(f"{header}\n{good}\n\n{good}\n")
        assert len(load_dataset_csv(path)) == 2
        path.write_text(f"{header}\n\n{good}\n{good.replace('in_domain', 'x')}\n")
        with pytest.raises(InputError, match=re.escape(f"{path}:4: unknown domain_tag 'x'")):
            load_dataset_csv(path)

    @pytest.mark.parametrize("samples_per_system", [200, 800])
    def test_traced_peak_is_a_bounded_multiple_of_the_loaded_columns(self, tmp_path,
                                                                        samples_per_system):
        """The structured rows (168 B a row at 16 features) and the final columns;
        each text and variance column's cell strings are freed once it is
        converted, so at most 2x the bytes returned (1.77x-1.82x here; 2.65x
        while every cell string lived until the end)."""
        cfg = GenConfig(num_systems=5, samples_per_system=samples_per_system, feature_dim=16)
        path = tmp_path / "peak.csv"
        save_dataset_csv(gen_synthetic(cfg), path)
        load_dataset_csv(path)
        tracemalloc.start()
        try:
            loaded = load_dataset_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = sum(getattr(loaded, field.name).nbytes for field in fields(Dataset))
        assert peak < 2.0 * held, (peak, held)


class TestUnreadableFiles:
    """Text that does not decode, and a field beyond csv.field_size_limit(),
    are an InputError naming the path, whichever read meets them: the header
    read, the np.loadtxt pass or the csv.reader rescan."""

    def rows(self, count):
        return [[f"r{i}", "sys000", "in_domain", "3.1", "0.04", "0.5", "-0.2"]
                for i in range(count)]

    @pytest.mark.parametrize("row", [0, 999])  # 999 lies beyond the header read's buffer
    def test_bytes_that_do_not_decode_are_an_input_error(self, tmp_path, row):
        path = write_table(tmp_path / "latin1.csv", self.rows(1000))
        lines = path.read_bytes().split(b"\n")
        lines[1 + row] = lines[1 + row].replace(b"r", b"r\xe9", 1)
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(InputError, match=re.escape(f"{path}: unreadable as CSV text")):
            load_dataset_csv(path)

    def test_a_bad_row_before_undecodable_bytes_is_named(self, tmp_path):
        rows = self.rows(1000)
        rows[2][2] = "x"
        path = write_table(tmp_path / "tag.csv", rows)
        path.write_bytes(path.read_bytes().replace(b"r999,", b"r\xe9,"))
        with pytest.raises(InputError, match=re.escape(f"{path}:4: unknown domain_tag 'x'")):
            load_dataset_csv(path)

    def test_a_field_beyond_the_csv_limit_is_an_input_error(self, tmp_path):
        long = "i" * (csv.field_size_limit() + 1)
        rows = self.rows(3)
        rows[0][0] = long
        path = write_table(tmp_path / "long.csv", rows)
        assert load_dataset_csv(path).ids[0] == long  # np.loadtxt has no field limit
        rows[2][2] = "x"  # a bad tag sends the loader to its csv.reader rescan
        path = write_table(tmp_path / "long.csv", rows)
        with pytest.raises(InputError, match=re.escape(f"{path}: unreadable as CSV text")):
            load_dataset_csv(path)
        path.write_text(f"{long},{','.join(FIXED_HEADER)},f0\n")  # in the header
        with pytest.raises(InputError, match=re.escape(f"{path}: unreadable as CSV text")):
            load_dataset_csv(path)


class TestChunkedLoader:
    """load_dataset_csv parses _LOAD_CHUNK_ROWS records per np.loadtxt call;
    at 3 records a chunk, every quoted cell below meets a chunk boundary."""

    @pytest.fixture(autouse=True)
    def three_record_chunks(self, monkeypatch):
        monkeypatch.setattr(datagen_module, "_LOAD_CHUNK_ROWS", 3)

    @pytest.mark.parametrize("lead", [0, 1, 2])
    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("final_newline", [True, False], ids=["final", "no-final"])
    def test_quoted_cells_across_chunk_boundaries_load_as_the_oracle_loads_them(
            self, tmp_path, lead, newline, final_newline):
        names = [f"plain{i}" for i in range(lead)] + QUOTED_IDS + ["last"]
        rows = [[name, f"s,{k % 2}", DOMAIN_OOD if k % 2 else DOMAIN_IN, f"{k}.5",
                 "" if k % 3 == 0 else f"0.{k + 1}", f"{-k}.25", f"{k}e-3"]
                for k, name in enumerate(names)]
        path = write_table(tmp_path / "chunks.csv", rows, 2, newline, final_newline)
        got = load_dataset_csv(path)
        assert_same_columns(got, oracle_load(path))
        assert got.ids.tolist() == names

    def test_blank_lines_are_skipped_wherever_chunks_end(self, tmp_path):
        rows = [[f"r{i}", *TestOnePassLoader.ROW[1:]] for i in range(7)]
        path = write_table(tmp_path / "plain.csv", rows)
        lines = path.read_text().split("\n")
        blank = tmp_path / "blank.csv"
        blank.write_text("\n".join([*lines[:2], "", *lines[2:4], "", "", *lines[4:]]) + "\n")
        assert_same_columns(load_dataset_csv(blank), oracle_load(path))

    rows = TestUnreadableFiles.rows

    def test_a_bad_record_in_chunk_one_is_named_before_undecodable_bytes_in_a_later_one(
            self, tmp_path):
        """The bytes lie beyond the text reader's first 8 KiB decode, so the
        first chunk is parsed before they are read."""
        rows = self.rows(1000)
        rows[1][2] = "x"
        path = write_table(tmp_path / "tag.csv", rows)
        path.write_bytes(path.read_bytes().replace(b"r999,", b"r\xe9,"))
        with pytest.raises(InputError, match=re.escape(f"{path}:3: unknown domain_tag 'x'")):
            load_dataset_csv(path)

    def test_a_bad_record_in_chunk_one_is_named_before_an_over_long_field_in_chunk_two(
            self, tmp_path):
        rows = self.rows(9)
        rows[1][3] = "oops"
        rows[4][0] = "i" * (csv.field_size_limit() + 1)
        path = write_table(tmp_path / "long.csv", rows)
        with pytest.raises(InputError, match=re.escape(f"{path}:3: y is not a number: 'oops'")):
            load_dataset_csv(path)

    @pytest.mark.parametrize("column, value, reason", [
        (3, "oops", "y is not a number: 'oops'"),
        (4, "nan", "true_noise_var is nan; leave it empty"),
        (2, "zzz", "unknown domain_tag 'zzz'"),
    ])
    def test_a_fault_in_a_later_chunk_is_named_by_its_record(self, tmp_path, column, value,
                                                            reason):
        rows = self.rows(9)
        rows[0][0] = "two\nlines"  # records, not lines, number the rows
        rows[7][column] = value
        path = write_table(tmp_path / "late.csv", rows)
        with pytest.raises(InputError, match=re.escape(f"{path}:9: {reason}")):
            load_dataset_csv(path)


class TestGenerationOracle:
    """_generate adds each system's center to its rows' draws in place and
    forms ids by broadcasting; the columns must be those of the construction
    it replaced, np.repeat(centers) + draws and tiled row suffixes."""

    @staticmethod
    def oracle(cfg, offset, tag):
        k, n_k, d, sigma = cfg.num_systems, cfg.samples_per_system, cfg.feature_dim, 0.3
        rng_model, rng_centers, rng_features, rng_noise = map(
            np.random.default_rng, np.random.SeedSequence(cfg.seed).spawn(4))
        w = rng_model.normal(size=d) / math.sqrt(2.0 * d)
        b = rng_model.normal() * 0.5
        centers = rng_centers.normal(size=(k, d)) * 0.5
        if offset is not None:
            centers = centers + offset
        x = np.repeat(centers, n_k, axis=0) + rng_features.standard_normal((k * n_k, d))
        z = np.concatenate([rows @ w for rows in np.split(x, k)]) + b
        y = 3.0 + 2.0 * np.tanh(z) + rng_noise.normal(size=k * n_k) * sigma
        system_ids = np.repeat(np.char.mod("sys%03d", np.arange(k)), n_k)
        ids = np.char.add(system_ids, np.tile(np.char.mod("-%05d", np.arange(n_k)), k))
        return Dataset(ids, system_ids, np.full(k * n_k, tag), y, np.full(k * n_k, sigma**2), x)

    @pytest.mark.parametrize("k, n_k, d", [(1, 1, 1), (3, 1, 2), (1, 7, 3), (4, 25, 16),
                                           (12, 150, 5)])
    @pytest.mark.parametrize("shift", [0.0, 2.5])
    def test_columns_are_the_bits_of_the_repeat_and_tile_construction(self, k, n_k, d, shift):
        cfg = GenConfig(num_systems=k, samples_per_system=n_k, feature_dim=d,
                        noise_model=Homoscedastic(0.3), seed=k * n_k + d)
        got = gen_ood_shift(cfg, shift)
        offset = None
        if shift:
            direction = np.random.default_rng(np.random.SeedSequence([cfg.seed, 4])).normal(size=d)
            offset = shift * (direction / np.linalg.norm(direction))
        assert_same_columns(got, self.oracle(cfg, offset, DOMAIN_OOD if shift else DOMAIN_IN))


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

    def test_unknown_domain_tag_rejected(self):
        """The rule the CSV loader applies holds for a Dataset built in memory,
        which evaluate would otherwise score as in-domain."""
        with pytest.raises(InputError, match="row 1: unknown domain_tag 'zzz'"):
            dataset_of(["a", "b"], ["s", "s"], np.zeros((2, 2)), [3.0, 3.0], ["ood", "zzz"])

    @pytest.mark.parametrize("column, value", [
        ("y", [1.0 + 2.0j, 3.0]), ("y", ["1.5", "2.5"]), ("y", [[1.0], [2.0]]),
        ("x", [[1.0, 2.0], [3.0]]), ("x", np.zeros(2)), ("ids", [["a"], ["b"]]),
    ], ids=["complex", "text", "2-d-labels", "ragged-features", "1-d-features", "2-d-ids"])
    def test_malformed_columns_are_an_input_error(self, column, value):
        columns = dict(ids=["a", "b"], system_ids=["s", "s"], x=np.zeros((2, 2)), y=[3.0, 3.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match=column):
                dataset_of(**{**columns, column: value})

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
