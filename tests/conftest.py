import pytest

from gradsurf.layers import _shutdown_pools


@pytest.fixture(autouse=True)
def no_worker_outlives_its_test():
    """Shut down the worker pools a test warmed.  Warm workers keep the module
    state they were forked with, so without this a later test's monkeypatch
    would not reach them, and a timing test would find the pool warm."""
    yield
    _shutdown_pools()
