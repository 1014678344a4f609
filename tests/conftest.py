"""Tier-1 session settings.

A file, pipe or socket a test leaves open fails that test: a
``ResourceWarning``, and the ``PytestUnraisableExceptionWarning`` that
one raised inside a finalizer turns into, are errors here.  The filter
lives in this conftest rather than in ``pyproject.toml`` so that it
covers only the suites under ``tests/``.
"""


def pytest_configure(config):
    config.addinivalue_line("filterwarnings", "error::ResourceWarning")
    config.addinivalue_line(
        "filterwarnings", "error::pytest.PytestUnraisableExceptionWarning"
    )
