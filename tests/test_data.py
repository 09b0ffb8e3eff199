"""Tests for ingestion, preprocessing, discretisation, partitioning, and
the synthetic benchmark generator."""

import math
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spatialfl.data import (
    ClientDataset,
    CsvSchema,
    PreprocessConfig,
    RawRecord,
    SyntheticSpec,
    discretize_target,
    export_csv,
    generate_synthetic,
    ingest_csv,
    partition_clients,
    preprocess,
    train_valid_split,
)
from spatialfl.errors import (
    EmptyCorpusError,
    RowError,
    SchemaError,
    SplitError,
    ThinClientError,
    UnitUnusableError,
)
from spatialfl.spatial import SpatialAttribute


def record(leaf, day, target, features=(1.0,), path_tail=(), lat=45.0, lon=-66.0):
    return RawRecord(
        spatial=SpatialAttribute(lat, lon, (leaf, *path_tail)),
        ref_date=date(2020, 1, day),
        features=np.array(features, dtype=np.float64),
        target=target,
    )


class TestIngestCsv:
    HEADER = "client_label,latitude,longitude,ref_date,target,feature_1\n"

    def test_well_formed_file(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(self.HEADER
                        + "NB,45.0,-66.0,2020-01-01,10.5,1.0\n"
                        + "NB,45.0,-66.0,2020-01-02,11.0,2.0\n"
                        + "ON,44.0,-79.0,2020-01-01,9.0,3.0\n")
        records = ingest_csv(path)
        assert len(records) == 3
        assert records[0].spatial.hierarchy_path == ("NB",)
        assert records[2].features[0] == 3.0

    def test_missing_target_column_named(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("client_label,latitude,longitude,ref_date,feature_1\n"
                        "NB,45.0,-66.0,2020-01-01,1.0\n")
        with pytest.raises(SchemaError, match="target"):
            ingest_csv(path)

    def test_empty_feature_cell_is_missing_marker(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(self.HEADER + "NB,45.0,-66.0,2020-01-01,10.5,\n")
        records = ingest_csv(path)
        assert math.isnan(records[0].features[0])

    def test_unparseable_row_reports_line_number(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(self.HEADER
                        + "NB,45.0,-66.0,2020-01-01,10.5,1.0\n"
                        + "NB,not-a-number,-66.0,2020-01-02,11.0,1.0\n")
        with pytest.raises(RowError, match="line 3"):
            ingest_csv(path)

    @pytest.mark.parametrize("cell", ["inf", "-inf", "Infinity", "nan"])
    def test_non_finite_cell_names_line_and_column(self, tmp_path, cell):
        path = tmp_path / "data.csv"
        path.write_text(self.HEADER
                        + "NB,45.0,-66.0,2020-01-01,10.5,1.0\n"
                        + f"NB,45.0,-66.0,2020-01-02,11.0,{cell}\n")
        with pytest.raises(RowError, match="line 3: column 'feature_1'"):
            ingest_csv(path)

    def test_hierarchy_levels_autodetected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("client_label,level_1,latitude,longitude,ref_date,target,feature_1\n"
                        "stn1,cityA,45.0,-66.0,2020-01-01,1.0,0.5\n")
        records = ingest_csv(path)
        assert records[0].spatial.hierarchy_path == ("stn1", "cityA")

    def test_custom_schema_mapping(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("prov,lat,lon,when,emission,x1\n"
                        "NB,45.0,-66.0,2020-01-01,3.5,1.0\n")
        schema = CsvSchema(client_label="prov", latitude="lat", longitude="lon",
                           ref_date="when", target="emission", features=("x1",), hierarchy=())
        records = ingest_csv(path, schema)
        assert records[0].target == 3.5


class TestPreprocess:
    def test_interior_missing_target_interpolates_midpoint(self):
        records = [record("u", 1, 10.0), record("u", 2, math.nan), record("u", 3, 20.0)]
        out = preprocess(records)
        assert [r.target for r in out] == [10.0, 15.0, 20.0]

    def test_leading_missing_takes_nearest(self):
        records = [record("u", 1, math.nan), record("u", 2, 7.0), record("u", 3, 9.0)]
        out = preprocess(records)
        assert [r.target for r in out] == [7.0, 7.0, 9.0]

    def test_missing_feature_interpolates_along_series(self):
        records = [record("u", 1, 1.0, features=(4.0,)),
                   record("u", 2, 2.0, features=(math.nan,)),
                   record("u", 3, 3.0, features=(8.0,))]
        out = preprocess(records)
        assert [r.features[0] for r in out] == [4.0, 6.0, 8.0]

    def test_hand_computed_zscore_boundary(self):
        # mean 200, population std 400 -> z = 2.0, below the 3.0 threshold.
        values = [0.0, 0.0, 0.0, 0.0, 1000.0]
        z = abs(1000.0 - np.mean(values)) / np.std(values)
        assert z == 2.0
        out = preprocess([record("u", d, v) for d, v in enumerate(values, start=1)])
        assert len(out) == 5

    def test_hand_computed_zscore_outlier_dropped(self):
        values = [0.0] * 20 + [100.0]
        z = abs(100.0 - np.mean(values)) / np.std(values)
        assert z > 3.0
        out = preprocess([record("u", d, v) for d, v in enumerate(values, start=1)])
        assert len(out) == 20
        assert all(r.target == 0.0 for r in out)

    def test_outlier_drop_can_be_disabled(self):
        values = [0.0] * 20 + [100.0]
        out = preprocess([record("u", d, v) for d, v in enumerate(values, start=1)],
                         PreprocessConfig(drop_outliers=False))
        assert len(out) == 21

    def test_all_missing_target_unusable(self):
        with pytest.raises(UnitUnusableError):
            preprocess([record("u", 1, math.nan), record("u", 2, math.nan)])

    def test_fill_missing_off_drops_incomplete_rows(self):
        records = [record("u", 1, 1.0), record("u", 2, math.nan), record("u", 3, 3.0)]
        out = preprocess(records, PreprocessConfig(fill_missing=False))
        assert [r.target for r in out] == [1.0, 3.0]

    def test_rows_sorted_by_date_within_unit(self):
        records = [record("u", 3, 3.0), record("u", 1, 1.0), record("u", 2, 2.0)]
        out = preprocess(records)
        assert [r.ref_date.day for r in out] == [1, 2, 3]

    @given(st.integers(0, 2 ** 31))
    @settings(max_examples=60, deadline=None)
    def test_idempotence(self, seed):
        rng = np.random.default_rng(seed)
        records = []
        for u in range(int(rng.integers(1, 4))):
            n = int(rng.integers(2, 9))
            targets = rng.normal(scale=10.0, size=n)
            targets[rng.random(n) < 0.2] = math.nan
            if np.isnan(targets).all():
                targets[0] = 1.0
            feats = rng.normal(size=n)
            feats[rng.random(n) < 0.2] = math.nan
            if np.isnan(feats).all():
                feats[0] = 0.0
            records += [record(f"u{u}", d + 1, float(targets[d]), features=(float(feats[d]),))
                        for d in range(n)]
        once = preprocess(records)
        twice = preprocess(once)
        assert len(once) == len(twice)
        for a, b in zip(once, twice):
            assert a.spatial == b.spatial and a.ref_date == b.ref_date
            assert a.target == b.target
            assert np.array_equal(a.features, b.features)


def oracle_quantile(sorted_values, q):
    """Straight-line linear-interpolation quantile, independent of numpy."""
    position = q * (len(sorted_values) - 1)
    lower = int(math.floor(position))
    upper = min(lower + 1, len(sorted_values) - 1)
    weight = position - lower
    return sorted_values[lower] * (1 - weight) + sorted_values[upper] * weight


def oracle_classes(values, n_classes):
    ordered = sorted(values)
    thresholds = [oracle_quantile(ordered, k / n_classes) for k in range(1, n_classes)]
    return [sum(v >= t for t in thresholds) for v in values]


class TestDiscretizeTarget:
    def test_six_values_three_classes(self):
        values = [1, 2, 3, 4, 5, 6]
        assert list(discretize_target(values, 3)) == [0, 0, 1, 1, 2, 2]
        assert list(discretize_target(values, 3)) == oracle_classes(values, 3)

    def test_four_values_two_classes(self):
        values = [1, 2, 3, 4]
        assert list(discretize_target(values, 2)) == [0, 0, 1, 1]
        assert list(discretize_target(values, 2)) == oracle_classes(values, 2)

    def test_constant_corpus_collapses_to_class_zero(self):
        assert list(discretize_target([5.0, 5.0, 5.0], 3)) == [0, 0, 0]

    def test_unsorted_input_matches_oracle(self):
        values = [9.0, -3.0, 4.5, 0.1, 7.7, 2.2, -8.0]
        assert list(discretize_target(values, 3)) == oracle_classes(values, 3)

    @given(st.lists(st.integers(-1000, 1000), min_size=2, max_size=40, unique=True),
           st.sampled_from([2, 3]))
    @settings(max_examples=150, deadline=None)
    def test_balanced_within_one_on_distinct_values(self, values, n_classes):
        classes = discretize_target([float(v) for v in values], n_classes)
        counts = np.bincount(classes, minlength=n_classes)
        assert counts.max() - counts.min() <= 1

    @given(st.lists(st.integers(-1000, 1000), min_size=2, max_size=40, unique=True),
           st.sampled_from([2, 3]))
    @settings(max_examples=150, deadline=None)
    def test_matches_oracle_on_distinct_values(self, values, n_classes):
        values = [float(v) for v in values]
        assert list(discretize_target(values, n_classes)) == oracle_classes(values, n_classes)


PROVINCES = ["NB", "NS", "PE", "NL", "QC", "ON", "MB", "SK", "AB", "BC", "YT", "NT", "NU"]


class TestPartitionClients:
    def make_flat_records(self, leaves, rows_each=6):
        records = []
        for i, leaf in enumerate(leaves):
            for d in range(rows_each):
                records.append(record(leaf, d + 1, float(i * rows_each + d),
                                      lat=40.0 + i, lon=-60.0 - i))
        return records

    def test_thirteen_flat_leaves_under_one_root(self):
        datasets, topology = partition_clients(self.make_flat_records(PROVINCES), n_classes=3)
        assert len(datasets) == 13
        assert topology.clients() == sorted(PROVINCES)
        assert topology.max_tier == 1
        assert topology.root_id == "global"

    def test_two_level_paths_build_three_tiers(self):
        records = []
        for s in range(9):
            city = f"city{s % 3}"
            for d in range(5):
                records.append(record(f"stn{s}", d + 1, float(s + d), path_tail=(city,)))
        datasets, topology = partition_clients(records, n_classes=2)
        assert len(datasets) == 9
        assert topology.max_tier == 2
        tier1 = [n.node_id for n in topology.nodes if n.tier == 1]
        assert sorted(tier1) == ["city0", "city1", "city2"]
        assert topology.children("city0") == ["stn0", "stn3", "stn6"]

    def test_single_leaf_is_valid(self):
        datasets, topology = partition_clients(self.make_flat_records(["NB"]), n_classes=2)
        assert list(datasets) == ["NB"]
        assert topology.clients() == ["NB"]

    def test_thin_leaves_listed(self):
        records = self.make_flat_records(["NB", "ON"]) + [record("PE", 1, 1.0)]
        with pytest.raises(ThinClientError, match="PE"):
            partition_clients(records, n_classes=2)

    def test_partition_totality(self):
        records = self.make_flat_records(PROVINCES[:4], rows_each=7)
        datasets, _ = partition_clients(records, n_classes=3)
        assert sum(ds.n_rows for ds in datasets.values()) == len(records)

    def test_date_feature_appended_and_normalised(self):
        records = self.make_flat_records(["NB", "ON"], rows_each=5)
        with_date, _ = partition_clients(records, n_classes=2, include_date_feature=True)
        without, _ = partition_clients(records, n_classes=2, include_date_feature=False)
        assert with_date["NB"].features.shape[1] == without["NB"].features.shape[1] + 1
        date_col = with_date["NB"].features[:, -1]
        assert date_col.min() >= 0.0 and date_col.max() <= 1.0

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpusError):
            partition_clients([], n_classes=2)

    def test_labels_share_global_scale(self):
        # Between-client label thresholds come from the pooled corpus, so a
        # uniformly low client gets only low classes.
        records = [record("lo", d + 1, float(d)) for d in range(6)]
        records += [record("hi", d + 1, 100.0 + d) for d in range(6)]
        datasets, _ = partition_clients(records, n_classes=2)
        assert set(datasets["lo"].labels) == {0}
        assert set(datasets["hi"].labels) == {1}


class TestTrainValidSplit:
    def make_dataset(self, n=10):
        return ClientDataset(
            "c", SpatialAttribute(45, -66, ("c",)),
            np.arange(2 * n, dtype=np.float64).reshape(n, 2),
            np.zeros(n, dtype=np.int64), n_classes=2,
        )

    def test_eighty_twenty(self):
        out = train_valid_split(self.make_dataset(10), 0.8, seed=1)
        assert (out.split_tags == "train").sum() == 8
        assert (out.split_tags == "validation").sum() == 2

    def test_same_seed_same_tags(self):
        a = train_valid_split(self.make_dataset(12), 0.75, seed=9)
        b = train_valid_split(self.make_dataset(12), 0.75, seed=9)
        assert np.array_equal(a.split_tags, b.split_tags)

    def test_single_row_rejected(self):
        with pytest.raises(SplitError):
            train_valid_split(self.make_dataset(1), 0.8, seed=0)

    def test_degenerate_ratio_rejected(self):
        with pytest.raises(ValueError):
            train_valid_split(self.make_dataset(10), 1.0, seed=0)


class TestGenerateSynthetic:
    def test_noiseless_oracle_is_one(self):
        _, _, oracle = generate_synthetic(SyntheticSpec(2, 2, 10, seed=1))
        assert oracle == 1.0

    def test_noise_rate_sets_oracle(self):
        _, _, oracle = generate_synthetic(SyntheticSpec(2, 2, 10, noise_rate=0.1, seed=1))
        assert oracle == 0.9

    def test_counts(self):
        datasets, topology, _ = generate_synthetic(SyntheticSpec(3, 4, 50, seed=5))
        assert len(datasets) == 12
        assert sum(ds.n_rows for ds in datasets.values()) == 600
        assert len([n for n in topology.nodes if n.tier == 1]) == 3
        assert topology.max_tier == 2

    def test_deterministic_per_seed(self):
        a, _, _ = generate_synthetic(SyntheticSpec(2, 3, 20, noise_rate=0.2, seed=11))
        b, _, _ = generate_synthetic(SyntheticSpec(2, 3, 20, noise_rate=0.2, seed=11))
        for cid in a:
            assert np.array_equal(a[cid].features, b[cid].features)
            assert np.array_equal(a[cid].labels, b[cid].labels)

    def test_adding_clients_preserves_existing_rows(self):
        small, _, _ = generate_synthetic(SyntheticSpec(2, 2, 15, seed=3))
        large, _, _ = generate_synthetic(SyntheticSpec(2, 3, 15, seed=3))
        for cid in small:
            assert np.array_equal(small[cid].features, large[cid].features)
            assert np.array_equal(small[cid].labels, large[cid].labels)

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            SyntheticSpec(0, 1, 10)
        with pytest.raises(ValueError):
            SyntheticSpec(1, 1, 10, noise_rate=0.5)
        with pytest.raises(ValueError):
            SyntheticSpec(1, 1, 10, n_classes=4)


class TestExportRoundTrip:
    def test_export_then_ingest_recovers_clients(self, tmp_path):
        # Two balanced classes keep the median threshold strictly between the
        # exported label values, so re-discretisation recovers them exactly.
        spec = SyntheticSpec(3, 2, 12, n_classes=2, noise_rate=0.0, seed=20)
        datasets, topology, _ = generate_synthetic(spec)
        path = tmp_path / "synthetic.csv"
        export_csv(datasets, path)

        records = ingest_csv(path)
        assert len(records) == sum(ds.n_rows for ds in datasets.values())
        recovered, topo2 = partition_clients(
            preprocess(records), n_classes=2, include_date_feature=False)
        assert sorted(recovered) == sorted(datasets)
        assert {n.node_id for n in topo2.nodes} == {n.node_id for n in topology.nodes}
        for cid in datasets:
            assert np.array_equal(recovered[cid].features, datasets[cid].features)
            assert np.array_equal(recovered[cid].labels, datasets[cid].labels)
