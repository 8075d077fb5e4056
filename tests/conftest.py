import pytest

from test_bad_inputs import build_bases


@pytest.fixture(scope="session")
def bases(tmp_path_factory):
    """The base runs of the bad-input rows, built once per session."""
    return build_bases(tmp_path_factory.mktemp("bases"))
