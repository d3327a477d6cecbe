import pytest


@pytest.fixture(autouse=True)
def _no_caller_cap(monkeypatch):
    # the oracle reads its cap from the environment: a test sees the default
    # cap unless it sets CHAR2SQUARES_ORACLE_CAP itself
    monkeypatch.delenv("CHAR2SQUARES_ORACLE_CAP", raising=False)
