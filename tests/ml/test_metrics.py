"""Tests for error summaries (the Figure 7/8 mean ± std statistics)."""

import numpy as np
import pytest

from repro.ml.metrics import ErrorSummary, summarize_errors


class TestSummarizeErrors:
    def test_fields(self):
        y = np.array([100.0, 100.0])
        s = summarize_errors(np.array([105.0, 115.0]), y)
        assert isinstance(s, ErrorSummary)
        assert s.mean == pytest.approx(10.0)
        assert s.std == pytest.approx(5.0)
        assert s.max == pytest.approx(15.0)
        assert s.n == 2

    def test_zero_spread(self):
        y = np.array([50.0, 50.0])
        s = summarize_errors(y * 1.02, y)
        assert s.std == pytest.approx(0.0, abs=1e-12)
