"""Shared test set-up."""

import pytest

from calderon3d import recon


@pytest.fixture(autouse=True)
def fresh_coupling_operator():
    """Start and end every test with an empty coupling-operator cache, so an
    operator built while a test patches the special functions never reaches
    another test."""
    recon.coupling_operator.cache_clear()
    yield
    recon.coupling_operator.cache_clear()
