"""Tests for CSV import/export of announcement records."""

import pytest

from repro.robust import read_records_checked
from repro.specdata import write_records_csv


class TestRoundTrip:
    def test_full_round_trip(self, tmp_path, spec_archive):
        records = spec_archive("opteron-2")
        path = tmp_path / "opteron2.csv"
        write_records_csv(records, path)
        back, report = read_records_checked(path)
        assert report.rows == []
        assert len(back) == len(records)
        for a, b in zip(records, back):
            assert a.system_name == b.system_name
            assert a.processor_speed == b.processor_speed
            assert a.smt == b.smt
            assert a.total_cores == b.total_cores
            assert a.specint_rate == pytest.approx(b.specint_rate)
            assert dict(a.app_ratios)["181.mcf"] == pytest.approx(
                dict(b.app_ratios)["181.mcf"])

    def test_loaded_records_feed_workflows(self, tmp_path, spec_archive):
        from repro.core import model_builders, run_chronological

        path = tmp_path / "xeon.csv"
        write_records_csv(spec_archive("xeon"), path)
        records, _ = read_records_checked(path)
        res = run_chronological("xeon", model_builders(("LR-B",)),
                                records=records)
        assert res.errors["LR-B"].mean < 10.0


class TestValidation:
    def test_write_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_records_csv([], tmp_path / "x.csv")

    def test_read_missing_columns(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("family,year\nxeon,2005\n")
        with pytest.raises(ValueError, match="missing columns"):
            read_records_checked(p)

    def test_read_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(ValueError):
            read_records_checked(p)

    def test_read_header_only(self, tmp_path, spec_archive):
        p = tmp_path / "header.csv"
        write_records_csv(spec_archive("xeon")[:1], p)
        lines = p.read_text().splitlines()
        p.write_text(lines[0] + "\n")
        with pytest.raises(ValueError, match="no data rows"):
            read_records_checked(p)
