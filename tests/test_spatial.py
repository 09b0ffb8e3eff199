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
    encoding_table,
)


def attr(lat, lon, *path):
    return SpatialAttribute(lat, lon, tuple(path))


def encode(record, vocab):
    """One attribute's row of :func:`encoding_table`."""
    table, _ = encoding_table([record], vocab)
    return table[0]


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
        enc = encode(attr(45.0, -66.0, "only", "NB"), vocab)
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
        low, high = encoding_table(records, vocab)[0]
        assert low[0] == 0.0 and low[1] == 0.0
        assert high[0] == 1.0 and high[1] == 1.0

    def test_out_of_bounds_coordinates_clamp(self):
        vocab = build_vocabulary([attr(40.0, -70.0, "a"), attr(50.0, -60.0, "a")])
        enc = encode(attr(55.0, -75.0, "a"), vocab)
        assert enc[0] == 1.0 and enc[1] == 0.0

    def test_one_hot_block_position(self):
        records = [attr(0, 0, leaf) for leaf in ("a", "b", "c", "d")]
        vocab = build_vocabulary(records)
        enc = encode(attr(0, 0, "c"), vocab)
        assert np.array_equal(enc[2:], [0.0, 0.0, 1.0, 0.0])

    def test_unknown_label_rejected(self):
        vocab = build_vocabulary([attr(0, 0, "a", "NB"), attr(0, 0, "b", "ON")])
        with pytest.raises(DataError, match="^label 'YT' unknown at hierarchy level 1$"):
            encoding_table([attr(0, 0, "a", "NB"), attr(0, 0, "a", "YT")], vocab)

    def test_depth_mismatch_rejected(self):
        vocab = build_vocabulary([attr(0, 0, "a", "NB"), attr(0, 0, "b", "ON")])
        with pytest.raises(DataError, match="^path depth 3 != vocabulary depth 2$"):
            encoding_table([attr(0, 0, "a", "NB", "CA")], vocab)
        # The depth is a hierarchy check: without hierarchy blocks it is not made.
        coordinates = build_vocabulary([attr(0, 0, "a", "NB")], include_hierarchy=False)
        assert encode(attr(0, 0, "a", "NB", "CA"), coordinates).tolist() == [0.5, 0.5]

    def test_coordinates_only_encoding(self):
        vocab = build_vocabulary([attr(40, -70, "a"), attr(50, -60, "b")],
                                 include_hierarchy=False)
        table, columns = encoding_table([attr(45, -65, "a"), attr(50, -60, "b")], vocab)
        assert vocab.encoding_length == 2
        assert table.shape == (2, 2) and columns.tolist() == [[0, 1], [0, 1]]

    def test_hierarchy_only_encoding(self):
        vocab = build_vocabulary([attr(40, -70, "a"), attr(50, -60, "b")],
                                 include_coordinates=False)
        table, columns = encoding_table([attr(40, -70, "b"), attr(50, -60, "a")], vocab)
        assert vocab.encoding_length == 2
        assert table.tolist() == [[0.0, 1.0], [1.0, 0.0]] and columns.tolist() == [[1], [0]]

    def test_total_length_matches_contract(self):
        records = [attr(0, 0, leaf, region) for leaf, region in
                   [("a", "r1"), ("b", "r1"), ("c", "r2")]]
        vocab = build_vocabulary(records)
        assert vocab.encoding_length == 2 + 3 + 2
        table, columns = encoding_table(records, vocab)
        assert table.shape == (3, vocab.encoding_length) and columns.shape == (3, 2 + 2)


def model_inputs(spatial, rows, vocab):
    """One client's rows as the model sees them, ``[enc[codes], raw]``,
    from the row format that :func:`stack_rows` returns and the table of
    encodings its codes index."""
    client = ClientDataset("c", spatial, rows, np.zeros(len(rows)), n_classes=2)
    raw, _, codes, _ = stack_rows([client])
    enc, _ = encoding_table([client.spatial], vocab)
    return np.hstack([enc[codes], raw])


class TestFeatureVector:
    def test_stacked_rows_tile_encoding(self):
        vocab = build_vocabulary([attr(0, 0, "a"), attr(0, 0, "b")])
        rows = np.array([[1.0], [2.0], [3.0]])
        out = model_inputs(attr(0, 0, "b"), rows, vocab)
        assert out.shape == (3, vocab.encoding_length + 1)
        assert np.array_equal(out[:, -1], [1.0, 2.0, 3.0])
        assert np.array_equal(out[0, :-1], encode(attr(0, 0, "b"), vocab))
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
        enc_a, enc_b = encoding_table([attr(0, 0, first), attr(0, 0, second)], vocab)[0]
        assert not np.array_equal(enc_a, enc_b)

    @given(st.floats(40.0, 50.0), st.floats(40.0, 50.0))
    @settings(max_examples=100, deadline=None)
    def test_normalised_latitude_monotonic(self, lat_a, lat_b):
        vocab = build_vocabulary([attr(40, 0, "a"), attr(50, 0, "b")])
        enc_a, enc_b = encoding_table([attr(lat_a, 0, "a"), attr(lat_b, 0, "a")], vocab)[0]
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
        enc = encoding_table(records, vocab)[0][int(rng.integers(0, n))]
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
        table, layout = encoding_table(records, vocab)
        assert layout.shape == (n, 2 * coordinates + len(vocab.levels) * hierarchy)
        for enc, columns in zip(table, layout.tolist()):
            assert columns == sorted(set(columns))
            assert not np.delete(enc, columns).any()

    def test_encoding_columns_come_from_the_layout_not_the_values(self):
        # The record at both coordinate minimums encodes 0.0 there, and
        # both coordinate columns are still its columns.
        records = [attr(40.0, -70.0, "a", "x"), attr(50.0, -60.0, "b", "y"), attr(45.0, -65.0, "c", "x")]
        vocab = build_vocabulary(records)
        table, columns = encoding_table(records, vocab)
        assert table[0, :2].tolist() == [0.0, 0.0]
        assert columns.tolist() == [[0, 1, 2, 5], [0, 1, 3, 6], [0, 1, 4, 5]]

    def test_encoding_is_pure(self):
        vocab = build_vocabulary([attr(1, 2, "a", "x"), attr(3, 4, "b", "y")])
        records = [attr(1, 2, "a", "x"), attr(3, 4, "b", "y")]
        first, second = encoding_table(records, vocab), encoding_table(records, vocab)
        assert all(np.array_equal(a, b) for a, b in zip(first, second))
        assert records == [attr(1, 2, "a", "x"), attr(3, 4, "b", "y")]

    @given(st.integers(0, 2 ** 31), st.sampled_from([(True, True), (True, False), (False, True)]))
    @settings(max_examples=100, deadline=None)
    def test_a_row_does_not_depend_on_the_other_records(self, seed, parts):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 8))
        records = [attr(float(rng.uniform(-80, 80)), float(rng.uniform(-170, 170)),
                        f"leaf{i}", f"region{int(rng.integers(0, 3))}") for i in range(n)]
        vocab = build_vocabulary(records, include_coordinates=parts[0], include_hierarchy=parts[1])
        table, columns = encoding_table(records, vocab)
        for k, record in enumerate(records):
            row, row_columns = encoding_table([record], vocab)
            assert row.tobytes() == table[k:k + 1].tobytes()
            assert row_columns.tolist() == columns[k:k + 1].tolist()

    def test_no_vocabulary_gives_rows_of_width_zero(self):
        records = [attr(0, 0, "a", "x"), attr(1, 1, "b", "y"), attr(2, 2, "c", "x")]
        table, columns = encoding_table(records, None)
        assert table.shape == columns.shape == (3, 0)
        assert table.dtype == np.float64 and columns.dtype == np.intp
