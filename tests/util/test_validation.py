"""Tests for the argument-validation helpers."""

import pytest

from repro.util.validation import require_positive


class TestRequirePositive:
    def test_accepts_positive(self):
        require_positive(1, "x")
        require_positive(0.5, "x")

    @pytest.mark.parametrize("bad", [0, -1, -0.1])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError, match="x"):
            require_positive(bad, "x")

