"""Shared fixtures of the test suite."""

import pytest

from strictgames import solvers


@pytest.fixture(autouse=True)
def cold_enumeration_memo():
    """Each test starts with an empty support-enumeration memo, so a test
    that counts solves does not depend on the tests run before it."""
    solvers._class_equilibria.cache_clear()
