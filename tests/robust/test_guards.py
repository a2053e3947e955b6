"""Tests for the ingest guards: row-level quarantine and structured reports."""

import dataclasses
import json

import numpy as np
import pytest

from repro.errors import DataIntegrityError
from repro.robust import (
    QUARANTINE_SCHEMA,
    read_records_checked,
    validate_records,
)
from repro.specdata.io import write_records_csv


@pytest.fixture(scope="module")
def records(spec_archive):
    return spec_archive("opteron-2")


class TestValidateRecords:
    def test_clean_records_pass_untouched(self, records):
        clean, report = validate_records(records, source="clean")
        assert clean == list(records)
        assert report.ok and report.n_quarantined == 0
        assert report.n_clean == report.n_total == len(records)

    def test_nan_parameter_quarantined(self, records):
        dirty = list(records)
        dirty[3] = dataclasses.replace(dirty[3], processor_speed=float("nan"))
        clean, report = validate_records(dirty)
        assert len(clean) == len(records) - 1
        assert report.rows[0].index == 3
        assert report.rows[0].reason == "non-finite"
        assert "processor_speed" in report.rows[0].detail

    def test_inf_rating_quarantined(self, records):
        dirty = list(records)
        dirty[0] = dataclasses.replace(dirty[0], specfp_rate=float("inf"))
        _, report = validate_records(dirty)
        assert report.reasons() == {"non-finite": 1}

    def test_out_of_range_year_quarantined(self, records):
        dirty = list(records)
        dirty[1] = dataclasses.replace(dirty[1], year=1987)
        _, report = validate_records(dirty)
        assert report.reasons() == {"out-of-range": 1}
        assert "year=1987" in report.rows[0].detail

    def test_absurd_rating_magnitude_quarantined(self, records):
        dirty = list(records)
        dirty[2] = dataclasses.replace(dirty[2], specint_rate=1e9)
        _, report = validate_records(dirty)
        assert report.reasons() == {"out-of-range": 1}

    def test_conflicting_duplicate_quarantined(self, records):
        dirty = list(records) + [
            dataclasses.replace(records[4],
                                specint_rate=records[4].specint_rate * 2)
        ]
        clean, report = validate_records(dirty)
        assert report.reasons() == {"conflicting-duplicate": 1}
        assert report.rows[0].index == len(records)  # the appended row loses
        assert records[4] in clean                   # the original wins

    def test_exact_duplicate_passes(self, records):
        dirty = list(records) + [records[0]]
        clean, report = validate_records(dirty)
        assert report.ok
        assert len(clean) == len(records) + 1

    def test_all_bad_raises_with_report(self, records):
        dirty = [dataclasses.replace(r, processor_speed=float("nan"))
                 for r in records[:5]]
        with pytest.raises(DataIntegrityError, match="every row failed") as ei:
            validate_records(dirty)
        assert ei.value.report.n_quarantined == 5
        assert ei.value.exit_code == 7

    def test_fraction_tolerance_enforced(self, records):
        dirty = list(records[:10])
        for i in range(4):
            dirty[i] = dataclasses.replace(dirty[i], l2_size=float("nan"))
        # 40% quarantined: fine at the default 50%, fatal at 25%.
        clean, _ = validate_records(dirty)
        assert len(clean) == 6
        with pytest.raises(DataIntegrityError, match="exceeds tolerance"):
            validate_records(dirty, max_quarantine_fraction=0.25)

    def test_is_a_value_error(self, records):
        # Legacy callers catch ValueError; the typed error must oblige.
        dirty = [dataclasses.replace(records[0], l2_size=float("nan"))]
        with pytest.raises(ValueError):
            validate_records(dirty)


class TestReadRecordsChecked:
    @pytest.fixture
    def csv_path(self, records, tmp_path):
        path = tmp_path / "records.csv"
        write_records_csv(records, path)
        return path

    def test_clean_roundtrip(self, records, csv_path):
        got, report = read_records_checked(csv_path)
        assert got == list(records)
        assert report.ok

    def test_malformed_row_quarantined_not_fatal(self, records, csv_path):
        lines = csv_path.read_text().splitlines()
        lines[2] = lines[2].replace(",", ",garbage", 1)
        csv_path.write_text("\n".join(lines) + "\n")
        got, report = read_records_checked(csv_path)
        assert len(got) == len(records) - 1
        assert report.reasons() == {"parse-error": 1}
        assert report.rows[0].index == 1  # 0-based data-row index

    def test_missing_column_fatal(self, csv_path):
        lines = csv_path.read_text().splitlines()
        header = lines[0].split(",")
        drop = header.index("specint_rate")
        rewritten = [",".join(v for i, v in enumerate(line.split(","))
                              if i != drop) for line in lines]
        csv_path.write_text("\n".join(rewritten) + "\n")
        with pytest.raises(DataIntegrityError, match="missing columns"):
            read_records_checked(csv_path)

    def test_missing_file_fatal(self, tmp_path):
        with pytest.raises(DataIntegrityError, match="cannot read"):
            read_records_checked(tmp_path / "nope.csv")

    def test_header_only_fatal(self, csv_path, tmp_path):
        out = tmp_path / "empty.csv"
        out.write_text(csv_path.read_text().splitlines()[0] + "\n")
        with pytest.raises(DataIntegrityError, match="no data rows"):
            read_records_checked(out)

    def test_jsonl_report_written(self, records, csv_path, tmp_path):
        lines = csv_path.read_text().splitlines()
        lines[1] = lines[1].replace(",", ",junk", 1)
        csv_path.write_text("\n".join(lines) + "\n")
        report_path = tmp_path / "quarantine.jsonl"
        _, report = read_records_checked(csv_path, report_path=report_path)
        entries = [json.loads(ln) for ln in report_path.read_text().splitlines()]
        assert entries[0]["kind"] == "report"
        assert entries[0]["schema"] == QUARANTINE_SCHEMA
        assert entries[0]["n_quarantined"] == report.n_quarantined == 1
        assert entries[1]["kind"] == "row"
        assert entries[1]["reason"] == "parse-error"

    def test_report_written_even_when_aborting(self, records, tmp_path):
        path = tmp_path / "allbad.csv"
        bad = [dataclasses.replace(r, specint_rate=float("inf"))
               for r in records[:3]]
        write_records_csv(bad, path)
        report_path = tmp_path / "q.jsonl"
        with pytest.raises(DataIntegrityError):
            read_records_checked(path, report_path=report_path)
        assert report_path.exists()
        head = json.loads(report_path.read_text().splitlines()[0])
        assert head["n_quarantined"] == 3
