"""Shared fixtures for the test suite."""

import pytest
from hypothesis import settings


@pytest.fixture(autouse=True)
def _isolated_compile_cache(tmp_path, monkeypatch):
    """Point the persistent compiled-artifact cache at a per-test dir.

    Without this, tests populate (and read!) the developer's real
    ``~/.cache/repro-target``, making runs order-dependent and leaving
    artifacts behind. ``monkeypatch.setenv`` mutates ``os.environ``
    itself, so spawned cluster workers inherit the isolated path too.
    """
    monkeypatch.setenv(
        "REPRO_COMPILE_CACHE", str(tmp_path / "compile-cache")
    )
    yield


# ``--hypothesis-profile=ci``: the golden CI job's run of the
# generated-program suite (tests/test_generated_programs.py), which
# takes the profile's budget instead of tier-1's fixed sample.
settings.register_profile("ci", max_examples=500, deadline=None)
