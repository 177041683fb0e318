"""Shared test settings.

Property tests draw a fixed sequence of examples (derandomize) and keep no
example database, so every run of the suite checks the same cases; the
per-example deadline is off because exact Fraction arithmetic varies in cost.
The Sturm kernel is built in a directory of the session's own.
"""
import pytest
from hypothesis import settings

settings.register_profile("pdmlag", derandomize=True, deadline=None, database=None)
settings.load_profile("pdmlag")


@pytest.fixture(autouse=True, scope="session")
def kernel_cache(tmp_path_factory):
    """The user cache directory of the session, child processes included,
    so that the suite writes nothing under the user's home."""
    folder = tmp_path_factory.mktemp("cache")
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(folder))
        yield folder / "pdmlag"
