"""Tests for spatial vocabularies and encodings."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spatialfl.data import ClientDataset
from spatialfl.errors import DataError
from spatialfl.federation import stack_rows
from spatialfl.spatial import (
    SpatialAttribute,
    build_vocabulary,
    encode_spatial,
    encoding_columns,
)


def attr(lat, lon, *path):
    return SpatialAttribute(lat, lon, tuple(path))


class TestSpatialAttribute:
    def test_coordinate_ranges_enforced(self):
        with pytest.raises(ValueError):
            attr(91.0, 0.0, "a")
        with pytest.raises(ValueError):
            attr(0.0, -181.0, "a")

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            SpatialAttribute(0.0, 0.0, ())


class TestBuildVocabulary:
    def test_labels_indexed_in_sorted_order(self):
        records = [attr(45, -66, "x", "ON"), attr(46, -67, "y", "NB"), attr(47, -68, "z", "QC")]
        vocab = build_vocabulary(records)
        assert vocab.levels[1] == ("NB", "ON", "QC")
        assert [vocab.level_index(1, p) for p in ("NB", "ON", "QC")] == [0, 1, 2]

    def test_single_record_degenerate(self):
        vocab = build_vocabulary([attr(45.0, -66.0, "only", "NB")])
        assert all(len(level) == 1 for level in vocab.levels)
        assert vocab.lat_bounds == (45.0, 45.0)
        enc = encode_spatial(attr(45.0, -66.0, "only", "NB"), vocab)
        assert np.array_equal(enc, [0.5, 0.5, 1.0, 1.0])

    def test_ragged_paths_rejected(self):
        with pytest.raises(DataError, match="^hierarchy paths have mixed lengths$"):
            build_vocabulary([attr(0, 0, "a", "b"), attr(0, 0, "c", "d", "e")])

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError, match="^cannot build a vocabulary from zero records$"):
            build_vocabulary([])

    def test_fully_disabled_encoding_rejected(self):
        with pytest.raises(ValueError):
            build_vocabulary([attr(0, 0, "a")], include_coordinates=False, include_hierarchy=False)


class TestEncodeSpatial:
    def test_coordinate_endpoints_map_to_unit_interval(self):
        records = [attr(40.0, -70.0, "a"), attr(50.0, -60.0, "b")]
        vocab = build_vocabulary(records)
        low = encode_spatial(records[0], vocab)
        high = encode_spatial(records[1], vocab)
        assert low[0] == 0.0 and low[1] == 0.0
        assert high[0] == 1.0 and high[1] == 1.0

    def test_out_of_bounds_coordinates_clamp(self):
        vocab = build_vocabulary([attr(40.0, -70.0, "a"), attr(50.0, -60.0, "a")])
        enc = encode_spatial(attr(55.0, -75.0, "a"), vocab)
        assert enc[0] == 1.0 and enc[1] == 0.0

    def test_one_hot_block_position(self):
        records = [attr(0, 0, leaf) for leaf in ("a", "b", "c", "d")]
        vocab = build_vocabulary(records)
        enc = encode_spatial(attr(0, 0, "c"), vocab)
        assert np.array_equal(enc[2:], [0.0, 0.0, 1.0, 0.0])

    def test_unknown_label_rejected(self):
        vocab = build_vocabulary([attr(0, 0, "a", "NB"), attr(0, 0, "b", "ON")])
        with pytest.raises(DataError, match="^label 'YT' unknown at hierarchy level 1$"):
            encode_spatial(attr(0, 0, "a", "YT"), vocab)

    def test_coordinates_only_encoding(self):
        vocab = build_vocabulary([attr(40, -70, "a"), attr(50, -60, "b")],
                                 include_hierarchy=False)
        assert vocab.encoding_length == 2
        assert encode_spatial(attr(45, -65, "a"), vocab).shape == (2,)

    def test_hierarchy_only_encoding(self):
        vocab = build_vocabulary([attr(40, -70, "a"), attr(50, -60, "b")],
                                 include_coordinates=False)
        assert vocab.encoding_length == 2
        assert np.array_equal(encode_spatial(attr(40, -70, "b"), vocab), [0.0, 1.0])

    def test_total_length_matches_contract(self):
        records = [attr(0, 0, leaf, region) for leaf, region in
                   [("a", "r1"), ("b", "r1"), ("c", "r2")]]
        vocab = build_vocabulary(records)
        assert vocab.encoding_length == 2 + 3 + 2
        assert len(encode_spatial(records[0], vocab)) == vocab.encoding_length


def model_inputs(spatial, rows, vocab):
    """One client's rows as the model sees them, ``[enc[codes], raw]``,
    from the row format that :func:`stack_rows` returns."""
    client = ClientDataset("c", spatial, rows, np.zeros(len(rows)), n_classes=2)
    raw, _, codes, enc, _, _ = stack_rows([client], vocab)
    return np.hstack([enc[codes], raw])


class TestFeatureVector:
    def test_stacked_rows_tile_encoding(self):
        vocab = build_vocabulary([attr(0, 0, "a"), attr(0, 0, "b")])
        rows = np.array([[1.0], [2.0], [3.0]])
        out = model_inputs(attr(0, 0, "b"), rows, vocab)
        assert out.shape == (3, vocab.encoding_length + 1)
        assert np.array_equal(out[:, -1], [1.0, 2.0, 3.0])
        assert np.array_equal(out[0, :-1], encode_spatial(attr(0, 0, "b"), vocab))
        assert np.array_equal(out[0, :-1], out[2, :-1])

    def test_stacked_rows_without_vocab_are_raw(self):
        rows = np.array([[1.0, 2.0]])
        assert np.array_equal(model_inputs(attr(0, 0, "a"), rows, None), rows)


@st.composite
def label_pairs(draw):
    labels = draw(st.lists(st.text("abcdefgh", min_size=1, max_size=4),
                           min_size=2, max_size=6, unique=True))
    first, second = draw(st.permutations(labels))[:2]
    return labels, first, second


class TestProperties:
    @given(label_pairs())
    @settings(max_examples=100, deadline=None)
    def test_distinct_hierarchy_labels_encode_distinctly(self, case):
        labels, first, second = case
        vocab = build_vocabulary([attr(0, 0, label) for label in labels])
        enc_a = encode_spatial(attr(0, 0, first), vocab)
        enc_b = encode_spatial(attr(0, 0, second), vocab)
        assert not np.array_equal(enc_a, enc_b)

    @given(st.floats(40.0, 50.0), st.floats(40.0, 50.0))
    @settings(max_examples=100, deadline=None)
    def test_normalised_latitude_monotonic(self, lat_a, lat_b):
        vocab = build_vocabulary([attr(40, 0, "a"), attr(50, 0, "b")])
        enc_a = encode_spatial(attr(lat_a, 0, "a"), vocab)
        enc_b = encode_spatial(attr(lat_b, 0, "a"), vocab)
        if lat_a <= lat_b:
            assert enc_a[0] <= enc_b[0]
        else:
            assert enc_a[0] >= enc_b[0]

    @given(st.integers(0, 2 ** 31))
    @settings(max_examples=100, deadline=None)
    def test_one_hot_blocks_sum_exactly_one(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 8))
        records = [attr(float(rng.uniform(-80, 80)), float(rng.uniform(-170, 170)),
                        f"leaf{i}", f"region{i % 3}") for i in range(n)]
        vocab = build_vocabulary(records)
        enc = encode_spatial(records[int(rng.integers(0, n))], vocab)
        blocks = enc[2:]
        leaf_block = blocks[:len(vocab.levels[0])]
        region_block = blocks[len(vocab.levels[0]):]
        assert leaf_block.sum() == 1.0
        assert region_block.sum() == 1.0

    @given(st.integers(0, 2 ** 31), st.booleans(), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_entries_outside_the_encoding_columns_are_zero(self, seed, coordinates, hierarchy):
        if not (coordinates or hierarchy):
            hierarchy = True
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 8))
        records = [attr(float(rng.uniform(-80, 80)), float(rng.uniform(-170, 170)),
                        f"leaf{i}", f"region{i % 3}") for i in range(n)]
        vocab = build_vocabulary(records, include_coordinates=coordinates, include_hierarchy=hierarchy)
        for record in records:
            enc, columns = encode_spatial(record, vocab), encoding_columns(record, vocab)
            assert columns == sorted(set(columns))
            assert len(columns) == 2 * coordinates + len(vocab.levels) * hierarchy
            assert not np.delete(enc, columns).any()

    def test_encoding_columns_come_from_the_layout_not_the_values(self):
        # The record at both coordinate minimums encodes 0.0 there, and
        # both coordinate columns are still its columns.
        records = [attr(40.0, -70.0, "a", "x"), attr(50.0, -60.0, "b", "y"), attr(45.0, -65.0, "c", "x")]
        vocab = build_vocabulary(records)
        assert encode_spatial(records[0], vocab)[:2].tolist() == [0.0, 0.0]
        assert [encoding_columns(r, vocab) for r in records] == [[0, 1, 2, 5], [0, 1, 3, 6], [0, 1, 4, 5]]

    def test_encoding_is_pure(self):
        vocab = build_vocabulary([attr(1, 2, "a", "x"), attr(3, 4, "b", "y")])
        a1 = encode_spatial(attr(1, 2, "a", "x"), vocab)
        a2 = encode_spatial(attr(1, 2, "a", "x"), vocab)
        assert np.array_equal(a1, a2)
