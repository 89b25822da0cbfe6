import pytest
from hypothesis import HealthCheck, settings

from recstats.tables import iter_rec_rows, iter_srec_rows

settings.register_profile(
    "ci",
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def rec_rows_300() -> dict[int, list[int]]:
    """Dense rec rows for n = 1..300, built once per session."""
    return {n: list(row) for n, row in iter_rec_rows(300)}


@pytest.fixture(scope="session")
def srec_rows_150() -> dict[int, list[int]]:
    """Dense srec rows for n = 1..150, built once per session."""
    return {n: list(row) for n, row in iter_srec_rows(150)}
