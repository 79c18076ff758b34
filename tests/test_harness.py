"""The test session's own set-up (``conftest.py``)."""

import os

import conftest


def test_blas_threads_pinned_before_numpy_loads():
    # OpenBLAS reads its thread count once, when numpy loads, so the pin
    # binds only if numpy was not loaded before it.
    assert not conftest.NUMPY_BEFORE_PIN
    for name, value in conftest.BLAS_ENV.items():
        assert os.environ[name] == value
