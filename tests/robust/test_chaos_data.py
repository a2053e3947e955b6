"""Data-corruption chaos suite: every fault class must be absorbed loudly.

The acceptance bar for the robustness layer: for each injected fault class,
either the bad rows are quarantined (with a structured report) or the run
degrades down the model ladder with observable counters — and in no case do
silent NaN predictions escape. Clean inputs stay bit-identical with the
whole robustness stack enabled.
"""

import numpy as np
import pytest

from repro.core.chronological import run_chronological
from repro.core.models import model_builders
from repro.core.sampled import run_sampled_dse
from repro.errors import DataIntegrityError
from repro.obs.metrics import default_registry
from repro.robust import (
    DataFaultInjector,
    ValidationGate,
    default_ladder,
    read_records_checked,
    validate_records,
)
from repro.specdata.io import write_records_csv

FAMILY = "opteron-2"


@pytest.fixture(scope="module")
def records(spec_archive):
    return spec_archive(FAMILY)


@pytest.fixture(scope="module")
def injector():
    return DataFaultInjector(seed=99)


def _run(records, ladder=None, seed=5):
    return run_chronological(
        FAMILY, model_builders(("LR-S", "LR-B"), seed=3),
        records=records, rng=np.random.default_rng(seed), n_cv_reps=2,
        ladder=ladder)


class TestFaultClasses:
    """Each injected fault class is either quarantined or degraded — never silent."""

    def test_byte_corruption_quarantined(self, records, injector, tmp_path):
        path = tmp_path / "records.csv"
        write_records_csv(records, path)
        injector.corrupt_csv_file(path, n_flips=10)
        clean, report = read_records_checked(path)
        assert not report.ok
        assert "parse-error" in report.reasons() or "non-finite" in report.reasons()
        result = _run(clean)
        assert all(np.isfinite(s.mean) for s in result.errors.values())

    def test_nan_columns_quarantined(self, records, injector):
        dirty = injector.nan_columns(records, fraction=0.2)
        clean, report = validate_records(dirty)
        assert report.reasons() == {"non-finite": report.n_quarantined}
        assert report.n_quarantined > 0
        result = _run(clean)
        assert all(np.isfinite(s.mean) for s in result.errors.values())

    def test_inf_ratings_quarantined(self, records, injector):
        dirty = injector.inf_ratings(records, fraction=0.15)
        clean, report = validate_records(dirty)
        assert report.n_quarantined > 0
        assert all(np.isfinite(r.specint_rate) for r in clean)

    def test_adversarial_duplicates_quarantined(self, records, injector):
        dirty = injector.conflicting_duplicates(records, n_duplicates=3)
        clean, report = validate_records(dirty)
        assert report.reasons() == {"conflicting-duplicate": 3}
        assert len(clean) == len(records)

    def test_unquarantined_poison_degrades_not_nan(self, records):
        """A poisoned model (not a poisoned row) must walk the ladder."""
        from repro.errors import NumericalError
        from repro.ml.base import PredictiveModel
        from repro.robust import MEAN_BASELINE, DegradationLadder

        class _Diverges(PredictiveModel):
            name = "diverges"

            def fit(self, data):
                raise NumericalError("boom", cause="nn-divergence")

            def predict(self, data):  # pragma: no cover
                raise AssertionError

        before = default_registry().counter("robust.ladder.degraded").value
        ladder = DegradationLadder(
            rungs=("LR-B", MEAN_BASELINE),
            builders=dict(model_builders(("LR-B",), seed=3)))
        builders = {"diverges": _Diverges, "LR-S": model_builders(("LR-S",), seed=3)["LR-S"]}
        result = run_chronological(
            FAMILY, builders, records=records,
            rng=np.random.default_rng(5), n_cv_reps=2, ladder=ladder)
        # The divergent model degraded; every reported error is finite.
        assert result.degraded_labels() == {"diverges": "LR-B"}
        assert all(np.isfinite(s.mean) for s in result.errors.values())
        after = default_registry().counter("robust.ladder.degraded").value
        assert after > before

    def test_quarantine_counter_incremented(self, records, injector):
        before = default_registry().counter("robust.ingest.quarantined").value
        dirty = injector.nan_columns(records, fraction=0.1)
        _, report = validate_records(dirty)
        after = default_registry().counter("robust.ingest.quarantined").value
        assert after - before == report.n_quarantined > 0

    def test_total_corruption_aborts_typed(self, records, injector):
        dirty = injector.nan_columns(records, fraction=1.0)
        with pytest.raises(DataIntegrityError):
            validate_records(dirty)


class TestCleanInputBitIdentity:
    """The whole robustness stack must not move a single clean-input bit."""

    @pytest.mark.parametrize("driver", ["chronological", "sampled"])
    def test_ladder_on_off_identical(self, driver, records, space_dataset):
        def run(ladder):
            """True errors, per-rep estimates, select label, degraded labels."""
            if driver == "chronological":
                res = _run(records, ladder=ladder)
                return (res.mean_errors(),
                        {k: e.per_rep for k, e in res.estimates.items()},
                        None, res.degraded_labels())
            res = run_sampled_dse(
                space_dataset("applu"), model_builders(("LR-B", "NN-S"), seed=3),
                0.01, np.random.default_rng(5), n_cv_reps=2, ladder=ladder)
            return (res.true_errors(),
                    {k: o.estimate.per_rep for k, o in res.outcomes.items()},
                    res.select_label,
                    [k for k, o in res.outcomes.items() if o.degraded])

        plain = run(None)
        robust = run(default_ladder(seed=3, gate=ValidationGate()))
        assert plain[:3] == robust[:3]
        assert not robust[3]

    def test_guarded_ingest_identical_on_clean_csv(self, records, tmp_path):
        path = tmp_path / "clean.csv"
        write_records_csv(records, path)
        clean, report = read_records_checked(path)
        assert clean == list(records) and report.rows == []

    def test_injector_is_deterministic(self, records):
        def hit_rows(recs):
            return [i for i, r in enumerate(recs)
                    if not np.isfinite(r.processor_speed)]

        a = DataFaultInjector(seed=7).nan_columns(records, fraction=0.2)
        b = DataFaultInjector(seed=7).nan_columns(records, fraction=0.2)
        assert hit_rows(a) == hit_rows(b) != []
        c = DataFaultInjector(seed=8).nan_columns(records, fraction=0.2)
        assert hit_rows(a) != hit_rows(c)


class TestInjectorEdges:
    def test_corrupt_needs_data_region(self, injector):
        with pytest.raises(ValueError, match="no data region"):
            injector.corrupt_csv_bytes(b"header,only\n")

    def test_fraction_validated(self, records, injector):
        with pytest.raises(ValueError, match="fraction"):
            injector.nan_columns(records, fraction=0.0)

    def test_non_numeric_field_rejected(self, records, injector):
        with pytest.raises(ValueError, match="not numeric"):
            injector.nan_columns(records, fields=("company",))

    def test_corrupt_responses(self, injector):
        resp = np.ones(100)
        out = injector.corrupt_responses(resp, fraction=0.1)
        assert np.isnan(out).sum() == 10
        assert np.isfinite(resp).all()  # input untouched
