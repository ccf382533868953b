import pytest

from qcjkls import braid


@pytest.fixture
def packed_only(monkeypatch):
    """Fail any scan that falls back to the per-tuple path."""

    def refuse(*args):
        raise AssertionError("per-tuple scan used where the packed scan should run")

    monkeypatch.setattr(braid, "_scan_tuples", refuse)
