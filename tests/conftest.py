"""Fixtures shared by the test modules."""

import pytest

from iswpt import scenario, sdp


@pytest.fixture
def blas_at_two_threads():
    """The OpenBLAS thread count set to 2 for the test, so one thread inside
    a run differs from the count outside it; the prior count comes back.
    Skips where no OpenBLAS thread-count setter resolves."""
    if scenario._BLAS_THREAD_CALLS is None:
        pytest.skip("no OpenBLAS thread-count setter resolves")
    get, put = scenario._BLAS_THREAD_CALLS
    prior = get()
    put(2)
    yield get
    put(prior)


@pytest.fixture
def uncertified(monkeypatch):
    """Every sdp half-step's certificates fail, the one-eigvalsh one and the
    solve's dual iterates (both take `sdp._certified`), so each half-step
    runs the interior-point solve to its own stop and extracts, with its lc
    point as the incumbent."""
    monkeypatch.setattr(sdp, "_certified", lambda *args, **kwargs: None)
