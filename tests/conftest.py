import pytest
from hypothesis import settings

from pisotcoding import check_weak_finitarity, make_field

# the same examples on every run, and no per-example time limit
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def golden():
    return make_field([1, 1])  # x^2 = x + 1


@pytest.fixture(scope="session")
def tribonacci():
    return make_field([1, 1, 1])  # x^3 = x^2 + x + 1


@pytest.fixture(scope="session")
def cubic341():
    return make_field([3, 4, 1])  # x^3 = 3x^2 + 4x + 1


@pytest.fixture(scope="session")
def quartic():
    return make_field([1, 0, 0, 1])  # x^4 = x^3 + 1


@pytest.fixture(scope="session")
def phi_squared():
    return make_field([3, -1])  # x^2 = 3x - 1, not finitary


@pytest.fixture(scope="session")
def plastic():
    return make_field([0, 1, 1])  # x^3 = x + 1, smallest Pisot number


@pytest.fixture(scope="session")
def golden_cert(golden):
    return check_weak_finitarity(golden)


@pytest.fixture(scope="session")
def quartic_cert(quartic):
    return check_weak_finitarity(quartic)
