"""Tests for ingestion, preprocessing, discretisation, partitioning, and
the synthetic benchmark generator."""

import csv
import io
import math
import random
from collections import namedtuple
from dataclasses import dataclass
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, assume, example, given, settings
from hypothesis import strategies as st

from spatialfl import data
from spatialfl.data import (
    ClientDataset,
    CsvSchema,
    GeoTable,
    PreprocessConfig,
    SyntheticSpec,
    discretize_target,
    export_csv,
    generate_synthetic,
    ingest_csv,
    partition_clients,
    preprocess,
    train_valid_split,
)
from spatialfl.errors import DataError
from spatialfl.federation import ROOT_ID, TierTopology
from spatialfl.spatial import SpatialAttribute

import reference_csv
from reference_csv import reference_ingest

Row = namedtuple("Row", "path lat lon ref_date features target")


def record(leaf, day, target, features=(1.0,), path_tail=(), lat=45.0, lon=-66.0):
    """One row for :func:`table`."""
    return Row((leaf, *path_tail), lat, lon, date(2020, 1, day), features, target)


def table(records):
    """The GeoTable holding ``records`` in order."""
    paths = list(dict.fromkeys(r.path for r in records))
    n_features = len(records[0].features) if records else 0
    return GeoTable(
        paths=paths,
        path_index=[paths.index(r.path) for r in records],
        latitude=[r.lat for r in records],
        longitude=[r.lon for r in records],
        ordinals=[r.ref_date.toordinal() for r in records],
        features=np.array([r.features for r in records], dtype=np.float64).reshape(len(records), n_features),
        target=[r.target for r in records],
    )


def path_of(rows, i):
    return rows.paths[rows.path_index[i]]


class TestIngestCsv:
    HEADER = "client_label,latitude,longitude,ref_date,target,feature_1\n"

    def test_well_formed_file(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(self.HEADER
                        + "NB,45.0,-66.0,2020-01-01,10.5,1.0\n"
                        + "NB,45.0,-66.0,2020-01-02,11.0,2.0\n"
                        + "ON,44.0,-79.0,2020-01-01,9.0,3.0\n")
        rows = ingest_csv(path)
        assert len(rows) == 3
        assert path_of(rows, 0) == ("NB",)
        assert rows.features[2, 0] == 3.0

    def test_missing_target_column_named(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("client_label,latitude,longitude,ref_date,feature_1\n"
                        "NB,45.0,-66.0,2020-01-01,1.0\n")
        with pytest.raises(DataError, match=r"^CSV header is missing mapped columns: \['target'\]$"):
            ingest_csv(path)

    def test_empty_feature_cell_is_missing_marker(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(self.HEADER + "NB,45.0,-66.0,2020-01-01,10.5,\n")
        rows = ingest_csv(path)
        assert math.isnan(rows.features[0, 0])

    @pytest.mark.parametrize("row, message", [
        pytest.param("NB,not-a-number,-66.0,2020-01-02,11.0,1.0",
                     "line 3: column 'latitude' holds 'not-a-number', not a number", id="latitude"),
        pytest.param("NB,45.0,west,2020-01-02,11.0,1.0",
                     "line 3: column 'longitude' holds 'west', not a number", id="longitude"),
        pytest.param("NB,45.0,-66.0,2020-13-02,11.0,1.0",
                     "line 3: column 'ref_date' holds '2020-13-02', not a date", id="ref_date"),
        pytest.param("NB,45.0,-66.0,2020-01-02,11.0,1.0.0",
                     "line 3: column 'feature_1' holds '1.0.0', not a number", id="feature"),
        pytest.param("NB,45.0,-66.0,2020-01-02,high,1.0",
                     "line 3: column 'target' holds 'high', not a number", id="target"),
    ])
    def test_unparseable_row_reports_line_number(self, tmp_path, row, message):
        path = tmp_path / "data.csv"
        path.write_text(self.HEADER
                        + "NB,45.0,-66.0,2020-01-01,10.5,1.0\n"
                        + row + "\n")
        with pytest.raises(DataError) as info:
            ingest_csv(path)
        assert str(info.value) == message

    def test_row_error_names_the_file_line_past_blank_lines(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(self.HEADER
                        + "NB,45.0,-66.0,2020-01-01,10.5,1.0\n"
                        + "\n\n"
                        + "NB,95.0,-66.0,2020-01-02,11.0,1.0\n")
        with pytest.raises(DataError) as info:
            ingest_csv(path)
        assert str(info.value) == "line 5: latitude 95.0 outside [-90, 90]"

    def test_short_row_names_its_first_missing_column(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(self.HEADER + "NB,45.0,-66.0,2020-01-01\n")
        with pytest.raises(DataError) as info:
            ingest_csv(path)
        assert str(info.value) == "line 2: row is short a value for column 'feature_1'"

    def test_blank_lines_skipped_and_extra_cells_ignored(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(self.HEADER
                        + "\n"
                        + "NB,45.0,-66.0,2020-01-01,10.5,1.0,surplus,cells\n"
                        + "\n")
        rows = ingest_csv(path)
        assert len(rows) == 1 and rows.target[0] == 10.5

    @pytest.mark.parametrize("cell", ["inf", "-inf", "Infinity", "nan"])
    def test_non_finite_cell_names_line_and_column(self, tmp_path, cell):
        path = tmp_path / "data.csv"
        path.write_text(self.HEADER
                        + "NB,45.0,-66.0,2020-01-01,10.5,1.0\n"
                        + f"NB,45.0,-66.0,2020-01-02,11.0,{cell}\n")
        with pytest.raises(DataError, match=f"^line 3: column 'feature_1' holds non-finite value '{cell}'$"):
            ingest_csv(path)

    @pytest.mark.parametrize("rows, message", [
        # The decoder reads the file in blocks, ahead of the row parsed.
        pytest.param([b"N\xffB,45.0,-66.0,2020-01-02,11.0,2.0"],
                     "line 3: byte 0xff is not UTF-8 text; the file must be UTF-8 encoded", id="not-utf8"),
        pytest.param([b"NB,45.0,-66.0,2020-01-02,11.0,2.0"] * 600 + [b"\xe9,45.0,-66.0,2020-01-02,11.0,2.0"],
                     "line 603: byte 0xe9 is not UTF-8 text; the file must be UTF-8 encoded",
                     id="not-utf8-past-the-first-block"),
        pytest.param([b'"' + b"x" * 140_000 + b'",45.0,-66.0,2020-01-02,11.0,2.0'],
                     "line 3: field larger than field limit (131072)", id="cell-too-long"),
    ])
    def test_unreadable_row_names_its_line(self, tmp_path, rows, message):
        path = tmp_path / "data.csv"
        path.write_bytes(b"\n".join([self.HEADER.encode() + b"NB,45.0,-66.0,2020-01-01,10.5,1.0",
                                      *rows, b""]))
        with pytest.raises(DataError) as info:
            ingest_csv(path)
        assert str(info.value) == message

    def test_plain_rows_of_the_wrong_width_are_read_by_csv_reader(self, tmp_path):
        # Eight cells, then six: as many as two rows of the header's seven,
        # and cut into rows of seven, both rows would pass.
        path = tmp_path / "data.csv"
        path.write_text(self.HEADER.replace("\n", ",note\n")
                        + "NB,45.0,-66.0,2020-01-01,10.5,1.0,x,NB\n"
                        + "45.0,-66.0,2020-01-02,11.0,2.0,x\n")
        with pytest.raises(DataError) as info:
            ingest_csv(path)
        assert str(info.value) == "line 3: column 'longitude' holds '2020-01-02', not a number"

    def test_quoted_cells_lose_their_quotes(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(self.HEADER + '"NB",45.0,-66.0,2020-01-01,10.5,1.0\n')
        assert path_of(ingest_csv(path), 0) == ("NB",)

    def test_hierarchy_levels_autodetected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("client_label,level_1,latitude,longitude,ref_date,target,feature_1\n"
                        "stn1,cityA,45.0,-66.0,2020-01-01,1.0,0.5\n")
        rows = ingest_csv(path)
        assert path_of(rows, 0) == ("stn1", "cityA")

    def test_custom_schema_mapping(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("prov,lat,lon,when,emission,x1\n"
                        "NB,45.0,-66.0,2020-01-01,3.5,1.0\n")
        schema = CsvSchema(client_label="prov", latitude="lat", longitude="lon",
                           ref_date="when", target="emission", features=("x1",), hierarchy=())
        rows = ingest_csv(path, schema)
        assert rows.target[0] == 3.5


# Cells on which float() and float(cell.strip()) part ways or nearly do:
# float() rejects U+001C to U+001F, which str.strip() removes.
FLOAT_CELLS = ["1.5", " 1.5\t", "\x1c1.5", "2.5\x1d", "\x1e-3\x1f", "\x1f", " ", "", "\u2003",
               "nan", " nan", "inf", "-inf", "1e400", "-1e400", "1_0", " 1_0 ", "1__0", "-0.0", "\x1c-0.0",
               "0x10", "1e-400", "1.0.0"]


class TestFloats:
    @pytest.mark.parametrize("required", [True, False])
    @pytest.mark.parametrize("cell", FLOAT_CELLS)
    def test_cell_converts_as_the_per_row_reader_does(self, cell, required):
        try:
            expected = np.float64(reference_csv._number(cell, "x", required)).tobytes()
        except ValueError:
            expected = None
        got = data._floats([cell], required)
        assert (None if got is None else got.tobytes()) == expected

    @pytest.mark.parametrize("required", [True, False])
    def test_column_converts_as_the_per_row_reader_does(self, required):
        good = [c for c in FLOAT_CELLS if _number_or_none(c, required) is not None]
        # float() takes the first column's cells as they are, not the second's.
        for cells in ([c for c in good if c.isprintable() and c.strip()], good):
            expected = np.array([_number_or_none(c, required) for c in cells]).tobytes()
            assert data._floats(cells, required).tobytes() == expected
        for bad in (c for c in FLOAT_CELLS if _number_or_none(c, required) is None):
            assert data._floats([*good, bad], required) is None


def _number_or_none(cell, required):
    try:
        return reference_csv._number(cell, "x", required)
    except ValueError:
        return None


# Cells that strip to nothing, and padding that str.strip() removes
# although float() alone would reject it (the information separators).
BLANKS = ["", " ", "\t", "\x1c", " "]
PADS = ["", " ", "\t", "\x1f"]
FAULTS = {
    "label": ["", " ", "global", " global "],
    "latitude": ["", " ", "north", "inf", "nan", "1e999", "90.5", "-91"],
    "longitude": ["", "\x1c", "west", "-inf", "NaN", "180.25", "-181"],
    "ref_date": ["", "2020-13-01", "2021-02-30", "soon"],
    "number": ["x", "1.0.0", "inf", "nan", "-Infinity", "1e999"],
}


def geo_csv_bytes(rng, n_rows, depth, faults, plain=False):
    """A CSV of ``n_rows`` data rows (blank lines, quoted commas and
    newlines, padded and whitespace-only cells among them) with ``faults``
    injected, as ``(row, kind)`` pairs, into the row cell lists.
    ``rng`` is a ``random.Random``. A ``plain`` file quotes no cell, ends
    its lines in "\n" only, holds no blank line and may lack the last
    line's newline; only its faults can make it other than plain."""
    header = ["client_label", *(f"level_{k}" for k in range(1, depth + 1)), "latitude", "longitude",
              "ref_date", "note", "target", "feature_1", "feature_2"]
    lat_i = depth + 1
    tag = " north" if plain else ", north"
    notes = ["", "plain", "a b", "tab\tstop"] if plain else ["", "plain", "a, b", "two\nlines", '"quoted"']
    rows = []
    for _ in range(n_rows):
        leaf = rng.randrange(12)
        path = [f"s{leaf}" if leaf % 5 else f"s{leaf}{tag}", f"c{leaf % 4}", f"p{leaf % 2}"][:depth + 1]
        numbers = [rng.choice(BLANKS) if rng.random() < 0.05 else
                   rng.choice(PADS) + repr(rng.gauss(0.0, 10.0)) + rng.choice(PADS) for _ in range(3)]
        day = date(2021, 3, 1) + timedelta(days=rng.randrange(40))
        note = rng.choice(notes)
        rows.append([*path, repr(rng.uniform(-90, 90)), f" {rng.uniform(-180, 180)!r}",
                     rng.choice(PADS) + day.isoformat(), note, *numbers])
    # A row cut short first would leave no cell for a later fault in it.
    for i, kind in sorted(faults, key=lambda fault: fault[1] == "short"):
        row = rows[i]
        if kind == "short":
            del row[rng.randrange(max(len(row) - 1, 1)):]
        elif kind == "not-utf8":
            j = rng.randrange(len(row))
            row[j] = row[j][:1] + "\udcff" + row[j][1:]
        elif kind == "long-field":
            row[rng.choice([0, lat_i + 3])] = "x" * 140_000
        elif kind == "label":
            row[rng.randrange(lat_i)] = rng.choice(FAULTS["label"])
        elif kind in ("latitude", "longitude", "ref_date"):
            row[lat_i + ("latitude", "longitude", "ref_date").index(kind)] = rng.choice(FAULTS[kind])
        else:
            row[rng.randrange(lat_i + 4, len(row))] = rng.choice(FAULTS["number"])
    if plain:
        text = "\n".join(",".join(row) for row in [header, *rows]) + rng.choice(["\n", ""])
    else:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator=rng.choice(["\n", "\r\n"]))
        writer.writerow(header)
        for row in rows:
            if rng.random() < 0.03:
                writer.writerow([])
            writer.writerow(row)
        text = out.getvalue()
    return text.encode("utf-8", errors="surrogateescape")


def table_bytes(rows):
    return (rows.paths, *((a.dtype.str, a.shape, a.flags.c_contiguous, a.tobytes()) for a in (
        rows.path_index, rows.latitude, rows.longitude, rows.ordinals, rows.features, rows.target)))


class TestIngestMatchesPerRowReader:
    # Files of two to four blocks, with at most two bad rows; the second is
    # often a few rows after the first, in the same block. Blocks of 16 rows
    # keep most examples, and every shrink step, to tens of rows. A plain
    # file's blocks of 1 to 3,000 characters end at many different rows.
    @given(seed=st.integers(0, 2 ** 32 - 1),
           shape=st.sampled_from([16, 256]).flatmap(lambda block: st.tuples(
               st.just(block), st.integers(block + 1, 4 * block))),
           depth=st.integers(0, 2),
           faults=st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True),
                                     st.sampled_from(["short", "not-utf8", "long-field", "label", "latitude",
                                                      "longitude", "ref_date", "number"])),
                           max_size=2),
           gap=st.one_of(st.none(), st.integers(1, 8)),
           plain=st.one_of(st.none(), st.integers(1, 3000)))
    # A failure is shrunk and reported alone, without the explain phase:
    # shrinking each distinct failure and explaining it re-ran thousands of
    # examples, most of the time a failure took to report.
    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture],
              phases=[phase for phase in Phase if phase is not Phase.explain], report_multiple_bugs=False)
    # Two bad rows, 10 and 13, in the first block.
    @example(seed=5, shape=(16, 40), depth=1, faults=[(0.25, "latitude"), (0.5, "number")], gap=3, plain=None)
    @example(seed=5, shape=(16, 40), depth=1, faults=[(0.25, "latitude"), (0.5, "number")], gap=3, plain=200)
    @example(seed=6, shape=(256, 600), depth=2, faults=[], gap=None, plain=1)
    def test_same_table_or_same_error_as_per_row_reader(self, tmp_path, seed, shape, depth, faults, gap, plain):
        block, n_rows = shape
        rows = [int(at * n_rows) for at, _ in faults]
        if gap is not None and len(rows) == 2:
            rows[1] = min(rows[0] + gap, n_rows - 1)
        path = tmp_path / "geo.csv"
        path.write_bytes(geo_csv_bytes(random.Random(seed), n_rows, depth,
                                       [(i, kind) for i, (_, kind) in zip(rows, faults)], plain=plain is not None))
        try:
            expected = table_bytes(reference_ingest(path))
        except DataError as exc:
            expected = exc
        readers = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(data, "_BLOCK_ROWS", block)
            patch.setattr(data, "_PLAIN_CHARS", plain or data._PLAIN_CHARS)
            patch.setattr(csv, "reader", lambda *args, reader=csv.reader: readers.append(1) or reader(*args))
            if isinstance(expected, DataError):
                with pytest.raises(DataError) as info:
                    ingest_csv(path)
                assert str(info.value) == str(expected)
            else:
                assert table_bytes(ingest_csv(path)) == expected
        # A plain file without faults never reaches the csv module.
        if plain is not None and not faults:
            assert readers == []


class TestPreprocess:
    def test_interior_missing_target_interpolates_midpoint(self):
        records = [record("u", 1, 10.0), record("u", 2, math.nan), record("u", 3, 20.0)]
        out = preprocess(table(records))
        assert list(out.target) == [10.0, 15.0, 20.0]

    def test_leading_missing_takes_nearest(self):
        records = [record("u", 1, math.nan), record("u", 2, 7.0), record("u", 3, 9.0)]
        out = preprocess(table(records))
        assert list(out.target) == [7.0, 7.0, 9.0]

    def test_missing_feature_interpolates_along_series(self):
        records = [record("u", 1, 1.0, features=(4.0,)),
                   record("u", 2, 2.0, features=(math.nan,)),
                   record("u", 3, 3.0, features=(8.0,))]
        out = preprocess(table(records))
        assert list(out.features[:, 0]) == [4.0, 6.0, 8.0]

    def test_hand_computed_zscore_boundary(self):
        # mean 200, population std 400 -> z = 2.0, below the 3.0 threshold.
        values = [0.0, 0.0, 0.0, 0.0, 1000.0]
        z = abs(1000.0 - np.mean(values)) / np.std(values)
        assert z == 2.0
        out = preprocess(table([record("u", d, v) for d, v in enumerate(values, start=1)]))
        assert len(out) == 5

    def test_hand_computed_zscore_outlier_dropped(self):
        values = [0.0] * 20 + [100.0]
        z = abs(100.0 - np.mean(values)) / np.std(values)
        assert z > 3.0
        out = preprocess(table([record("u", d, v) for d, v in enumerate(values, start=1)]))
        assert len(out) == 20
        assert all(out.target == 0.0)

    def test_outlier_drop_can_be_disabled(self):
        values = [0.0] * 20 + [100.0]
        out = preprocess(table([record("u", d, v) for d, v in enumerate(values, start=1)]),
                         PreprocessConfig(drop_outliers=False))
        assert len(out) == 21

    def test_all_missing_target_unusable(self):
        with pytest.raises(DataError, match="^unit 'u' has no target values$"):
            preprocess(table([record("u", 1, math.nan), record("u", 2, math.nan)]))

    def test_fill_missing_off_drops_incomplete_rows(self):
        records = [record("u", 1, 1.0), record("u", 2, math.nan), record("u", 3, 3.0)]
        out = preprocess(table(records), PreprocessConfig(fill_missing=False))
        assert list(out.target) == [1.0, 3.0]

    def test_rows_sorted_by_date_within_unit(self):
        records = [record("u", 3, 3.0), record("u", 1, 1.0), record("u", 2, 2.0)]
        out = preprocess(table(records))
        assert [date.fromordinal(o).day for o in out.ordinals] == [1, 2, 3]

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
        once = preprocess(table(records))
        twice = preprocess(once)
        assert len(once) == len(twice)
        assert [path_of(once, i) for i in range(len(once))] == [path_of(twice, i) for i in range(len(twice))]
        for column in ("latitude", "longitude", "ordinals", "target", "features"):
            assert np.array_equal(getattr(once, column), getattr(twice, column))


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

    def test_array_and_generator_inputs_agree(self):
        values = np.random.default_rng(3).normal(size=500)
        from_array = discretize_target(values, 3)
        from_generator = discretize_target((float(v) for v in values), 3)
        assert from_array.dtype == from_generator.dtype == np.int64
        assert from_array.tobytes() == from_generator.tobytes()
        assert from_array.tolist() == oracle_classes(values.tolist(), 3)

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
        datasets, topology = partition_clients(table(self.make_flat_records(PROVINCES)), n_classes=3)
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
        datasets, topology = partition_clients(table(records), n_classes=2)
        assert len(datasets) == 9
        assert topology.max_tier == 2
        tier1 = [n.node_id for n in topology.nodes if n.tier == 1]
        assert sorted(tier1) == ["city0", "city1", "city2"]
        assert topology.children("city0") == ["stn0", "stn3", "stn6"]

    def test_single_leaf_is_valid(self):
        datasets, topology = partition_clients(table(self.make_flat_records(["NB"])), n_classes=2)
        assert list(datasets) == ["NB"]
        assert topology.clients() == ["NB"]

    def test_thin_leaves_listed(self):
        records = self.make_flat_records(["NB", "ON"]) + [record("PE", 1, 1.0)]
        with pytest.raises(DataError, match=r"^leaves with fewer than 5 rows: \['PE'\]$"):
            partition_clients(table(records), n_classes=2)

    def test_partition_totality(self):
        records = self.make_flat_records(PROVINCES[:4], rows_each=7)
        datasets, _ = partition_clients(table(records), n_classes=3)
        assert sum(ds.n_rows for ds in datasets.values()) == len(records)

    def test_date_feature_appended_and_normalised(self):
        records = self.make_flat_records(["NB", "ON"], rows_each=5)
        with_date, _ = partition_clients(table(records), n_classes=2, include_date_feature=True)
        without, _ = partition_clients(table(records), n_classes=2, include_date_feature=False)
        assert with_date["NB"].features.shape[1] == without["NB"].features.shape[1] + 1
        date_col = with_date["NB"].features[:, -1]
        assert date_col.min() >= 0.0 and date_col.max() <= 1.0

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError, match="^cannot partition an empty corpus$"):
            partition_clients(table([]), n_classes=2)

    def test_labels_share_global_scale(self):
        # Between-client label thresholds come from the pooled corpus, so a
        # uniformly low client gets only low classes.
        records = [record("lo", d + 1, float(d)) for d in range(6)]
        records += [record("hi", d + 1, 100.0 + d) for d in range(6)]
        datasets, _ = partition_clients(table(records), n_classes=2)
        assert set(datasets["lo"].labels) == {0}
        assert set(datasets["hi"].labels) == {1}


# -- reference: the per-record pipeline that the columnar one replaced ---------
#
# A row-by-row copy of the earlier ingest (csv.DictReader plus one record
# per row), preprocess and partition_clients, kept only as the oracle of
# TestColumnarMatchesRecordPipeline.

@dataclass
class RefRecord:
    spatial: SpatialAttribute
    ref_date: date
    features: np.ndarray
    target: float


def ref_ingest(path, schema=CsvSchema()):
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.DictReader(handle)
        header = reader.fieldnames or []
        hierarchy = schema.hierarchy
        if hierarchy is None:
            hierarchy = tuple(c for c in ("level_1", "level_2") if c in header)
        features = schema.features
        if features is None:
            features = tuple(c for c in header if c.startswith("feature_"))
        required = [schema.client_label, schema.latitude, schema.longitude,
                    schema.ref_date, schema.target, *hierarchy, *features]
        missing = [c for c in required if c not in header]
        if missing:
            raise DataError(f"CSV header is missing mapped columns: {missing}")
        records = []
        for line_no, row in enumerate(reader, start=2):
            try:
                records.append(ref_parse_row(row, schema, hierarchy, features))
            except (KeyError, TypeError, ValueError) as exc:
                raise DataError(f"line {line_no}: {exc}") from exc
    return records


def ref_parse_row(row, schema, hierarchy, features):
    def cell(column):
        value = row[column]
        if value is None:
            raise ValueError(f"row is short a value for column {column!r}")
        return value.strip()

    def number(column, *, required):
        text = cell(column)
        if text == "":
            if required:
                raise ValueError(f"column {column!r} must not be empty")
            return math.nan
        value = float(text)
        if not math.isfinite(value):
            raise ValueError(f"column {column!r} holds non-finite value {text!r}")
        return value

    def label(column):
        text = cell(column)
        if text == "":
            raise ValueError(f"column {column!r} must not be empty")
        if text == ROOT_ID:
            raise ValueError(f"column {column!r} holds {ROOT_ID!r}, the reserved label of the root node")
        return text

    path = tuple(label(c) for c in (schema.client_label, *hierarchy))
    spatial = SpatialAttribute(
        latitude=number(schema.latitude, required=True),
        longitude=number(schema.longitude, required=True),
        hierarchy_path=path,
    )
    return RefRecord(
        spatial=spatial,
        ref_date=date.fromisoformat(cell(schema.ref_date)),
        features=np.array([number(c, required=False) for c in features], dtype=np.float64),
        target=number(schema.target, required=False),
    )


def ref_interpolate(values):
    known = ~np.isnan(values)
    idx = np.arange(values.size, dtype=np.float64)
    return np.interp(idx, idx[known], values[known])


def ref_outlier_keep(targets, threshold):
    keep = np.ones(targets.size, dtype=bool)
    while True:
        vals = targets[keep]
        std = vals.std()
        if std == 0.0:
            return keep
        z = np.abs(targets - vals.mean()) / std
        drop = keep & (z > threshold)
        if not drop.any():
            return keep
        keep &= ~drop


def ref_preprocess(records, config=PreprocessConfig()):
    if not records:
        return []
    groups = {}
    for record_ in records:
        groups.setdefault(record_.spatial.leaf, []).append(record_)
    out = []
    for leaf in sorted(groups):
        rows = sorted(enumerate(groups[leaf]), key=lambda t: (t[1].ref_date, t[0]))
        unit = [r for _, r in rows]
        targets = np.array([r.target for r in unit], dtype=np.float64)
        if np.isnan(targets).all():
            raise DataError(f"unit {leaf!r} has no target values")
        feats = np.stack([r.features for r in unit])
        if config.fill_missing:
            targets = ref_interpolate(targets)
            for j in range(feats.shape[1]):
                if np.isnan(feats[:, j]).all():
                    raise DataError(f"unit {leaf!r} has no values for feature {j}")
                feats[:, j] = ref_interpolate(feats[:, j])
            keep = np.ones(len(unit), dtype=bool)
        else:
            keep = ~(np.isnan(targets) | np.isnan(feats).any(axis=1))
            if not keep.any():
                raise DataError(f"unit {leaf!r} has no complete rows")
        if config.drop_outliers:
            kept_idx = np.flatnonzero(keep)
            inlier = ref_outlier_keep(targets[kept_idx], config.outlier_zscore)
            keep[kept_idx[~inlier]] = False
        for i in np.flatnonzero(keep):
            out.append(RefRecord(unit[i].spatial, unit[i].ref_date, feats[i].copy(), float(targets[i])))
    return out


def ref_partition(records, n_classes, min_rows=5, include_date_feature=True):
    if not records:
        raise DataError("cannot partition an empty corpus")
    depth = len(records[0].spatial.hierarchy_path)
    if any(len(r.spatial.hierarchy_path) != depth for r in records):
        raise DataError("hierarchy paths have mixed lengths")
    labels = discretize_target([r.target for r in records], n_classes)
    ordinals = np.array([r.ref_date.toordinal() for r in records], dtype=np.float64)
    lo, hi = ordinals.min(), ordinals.max()
    date_feature = np.full(ordinals.size, 0.5) if lo == hi else (ordinals - lo) / (hi - lo)
    by_leaf = {}
    for i, record_ in enumerate(records):
        by_leaf.setdefault(record_.spatial.leaf, []).append(i)
    thin = sorted(leaf for leaf, idx in by_leaf.items() if len(idx) < min_rows)
    if thin:
        raise DataError(f"leaves with fewer than {min_rows} rows: {thin}")
    datasets, paths = {}, {}
    for leaf in sorted(by_leaf):
        idx = by_leaf[leaf]
        leaf_paths = {records[i].spatial.hierarchy_path for i in idx}
        if len(leaf_paths) > 1:
            raise DataError(f"leaf {leaf!r} appears under multiple paths: {sorted(leaf_paths)}")
        paths[leaf] = next(iter(leaf_paths))
        feats = np.stack([records[i].features for i in idx])
        if include_date_feature:
            feats = np.hstack([feats, date_feature[idx][:, None]])
        attr = SpatialAttribute(
            latitude=float(np.mean([records[i].spatial.latitude for i in idx])),
            longitude=float(np.mean([records[i].spatial.longitude for i in idx])),
            hierarchy_path=paths[leaf],
        )
        datasets[leaf] = ClientDataset(leaf, attr, feats, labels[idx], n_classes)
    return datasets, TierTopology(paths.values())


def random_geo_csv(rng, depth):
    """A shuffled CSV over 1-4 leaves of 1-12 rows each, ``depth`` levels
    above the leaf, repeated dates, about 5% empty feature and target
    cells, occasional target spikes and blank lines."""
    n_features = int(rng.integers(1, 4))
    header = ["client_label", *(f"level_{k}" for k in range(1, depth + 1)),
              "latitude", "longitude", "ref_date", "target",
              *(f"feature_{j}" for j in range(1, n_features + 1))]
    lines = []
    for leaf in range(int(rng.integers(1, 5))):
        city = int(rng.integers(0, 3))
        path = [f"s{leaf}", f"c{city}", f"p{city % 2}"][:depth + 1]
        base_lat, base_lon = rng.uniform(-80, 80), rng.uniform(-170, 170)
        n = int(rng.integers(1, 13))
        for _ in range(n):
            day = date(2021, 3, 1) + timedelta(days=int(rng.integers(0, n)))
            target = rng.normal(scale=5.0) + (rng.choice([-100.0, 100.0]) if rng.random() < 0.05 else 0.0)
            cells = [repr(float(target)), *(repr(float(v)) for v in rng.normal(size=n_features))]
            cells = ["" if rng.random() < 0.05 else c for c in cells]
            lines.append(",".join([*path, repr(base_lat + rng.normal(scale=0.01)),
                                   repr(base_lon + rng.normal(scale=0.01)), day.isoformat(), *cells]))
    lines = [lines[i] for i in rng.permutation(len(lines))]
    lines = [line for line in lines for line in ([""] if rng.random() < 0.05 else []) + [line]]
    return "\n".join([",".join(header), *lines]) + "\n"


def outcome(ingest, clean, partition, path, config, n_classes, min_rows, date_feature):
    """Each stage's result, or the exception that stopped the pipeline."""
    try:
        rows = ingest(path)
        cleaned = clean(rows, config)
        datasets, topology = partition(cleaned, n_classes, min_rows, date_feature)
    except Exception as exc:  # noqa: BLE001 - the oracle compares failures too
        return exc
    return rows, cleaned, datasets, topology


def assert_same_clients(got, expected):
    (datasets, topology), (ref_datasets, ref_topology) = got, expected
    assert list(datasets) == list(ref_datasets)
    for cid, ref in ref_datasets.items():
        assert datasets[cid].features.tobytes() == ref.features.tobytes()
        assert datasets[cid].labels.tobytes() == ref.labels.tobytes()
        assert datasets[cid].spatial == ref.spatial
    assert topology.nodes == ref_topology.nodes


class TestColumnarMatchesRecordPipeline:
    @given(seed=st.integers(0, 2 ** 32 - 1), depth=st.integers(0, 2),
           fill_missing=st.booleans(), drop_outliers=st.booleans(),
           zscore=st.sampled_from([1.5, 3.0]), n_classes=st.sampled_from([2, 3]),
           min_rows=st.sampled_from([1, 3]), date_feature=st.booleans())
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_same_clients_and_topology_as_record_pipeline(
            self, tmp_path, seed, depth, fill_missing, drop_outliers, zscore, n_classes, min_rows,
            date_feature):
        path = tmp_path / "geo.csv"
        path.write_text(random_geo_csv(np.random.default_rng(seed), depth), encoding="utf-8")
        config = PreprocessConfig(fill_missing, drop_outliers, zscore)
        args = (path, config, n_classes, min_rows, date_feature)
        expected = outcome(ref_ingest, ref_preprocess, ref_partition, *args)
        got = outcome(ingest_csv, preprocess, partition_clients, *args)
        if isinstance(expected, Exception):
            assert type(got) is type(expected) and str(got) == str(expected)
            return

        ref_rows, ref_cleaned, ref_datasets, ref_topology = expected
        rows, cleaned, datasets, topology = got
        assert len(rows) == len(ref_rows) and len(cleaned) == len(ref_cleaned)
        assert [path_of(cleaned, i) for i in range(len(cleaned))] == \
            [r.spatial.hierarchy_path for r in ref_cleaned]
        assert cleaned.ordinals.tolist() == [r.ref_date.toordinal() for r in ref_cleaned]
        for column, values in (("latitude", [r.spatial.latitude for r in ref_cleaned]),
                               ("longitude", [r.spatial.longitude for r in ref_cleaned]),
                               ("target", [r.target for r in ref_cleaned])):
            assert getattr(cleaned, column).tobytes() == np.array(values, dtype=np.float64).tobytes()
        assert cleaned.features.tobytes() == np.stack([r.features for r in ref_cleaned]).tobytes()

        assert_same_clients((datasets, topology), (ref_datasets, ref_topology))

        # The cleaned rows arrive grouped by leaf; shuffled, they show
        # whether partitioning keeps each leaf's rows in input order.
        perm = np.random.default_rng(seed).permutation(len(cleaned))
        assert_same_clients(
            partition_clients(cleaned.take(perm), n_classes, min_rows, date_feature),
            ref_partition([ref_cleaned[i] for i in perm], n_classes, min_rows, date_feature))


class TestTrainValidSplit:
    def make_dataset(self, n=10):
        """Row ``i`` holds features ``[2i, 2i + 1]`` and label ``i % 3``."""
        return ClientDataset(
            "c", SpatialAttribute(45, -66, ("c",)),
            np.arange(2 * n, dtype=np.float64).reshape(n, 2),
            np.arange(n) % 3, n_classes=3,
        )

    @given(n=st.integers(2, 80), ratio=st.floats(0.01, 0.99), seed=st.integers(0, 2 ** 32 - 1))
    @example(n=10, ratio=0.8, seed=1)
    @settings(max_examples=150, deadline=None)
    def test_halves_partition_the_rows_in_order(self, n, ratio, seed):
        n_train = math.floor(ratio * n)
        assume(0 < n_train < n)
        dataset = self.make_dataset(n)
        train, valid = train_valid_split(dataset, ratio, seed)
        assert (train.n_rows, valid.n_rows) == (n_train, n - n_train)
        # Each half's rows by their index in the client, in the order held.
        halves = [(half.features[:, 0] // 2).astype(np.int64) for half in (train, valid)]
        for half, rows in zip((train, valid), halves):
            assert np.all(np.diff(rows) > 0)
            assert np.array_equal(half.features, dataset.features[rows])
            assert np.array_equal(half.labels, dataset.labels[rows])
            assert (half.client_id, half.spatial, half.n_classes) == ("c", dataset.spatial, 3)
        assert np.array_equal(np.sort(np.concatenate(halves)), np.arange(n))
        # The training rows are the first n_train of a seeded permutation.
        oracle = np.zeros(n, dtype=bool)
        oracle[np.random.default_rng(seed).permutation(n)[:n_train]] = True
        assert np.array_equal(halves[0], np.flatnonzero(oracle))
        again = train_valid_split(self.make_dataset(n), ratio, seed)
        for half, same in zip((train, valid), again):
            assert np.array_equal(half.features, same.features) and np.array_equal(half.labels, same.labels)

    def test_single_row_rejected(self):
        with pytest.raises(DataError, match="^client 'c': ratio 0.8 leaves an empty split for 1 rows$"):
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

        rows = ingest_csv(path)
        assert len(rows) == sum(ds.n_rows for ds in datasets.values())
        recovered, topo2 = partition_clients(
            preprocess(rows), n_classes=2, include_date_feature=False)
        assert sorted(recovered) == sorted(datasets)
        assert {n.node_id for n in topo2.nodes} == {n.node_id for n in topology.nodes}
        for cid in datasets:
            assert np.array_equal(recovered[cid].features, datasets[cid].features)
            assert np.array_equal(recovered[cid].labels, datasets[cid].labels)
