import random

import pytest

from hetmod.models import builtin_model


@pytest.fixture(scope="session")
def iwasawa():
    return builtin_model("iwasawa")


@pytest.fixture(scope="session")
def torus():
    return builtin_model("torus")


@pytest.fixture(scope="session")
def calabi_eckmann():
    return builtin_model("calabi-eckmann")


@pytest.fixture(scope="session")
def builtins(iwasawa, torus, calabi_eckmann):
    return [iwasawa, torus, calabi_eckmann]


@pytest.fixture(scope="session")
def random_flat_models():
    """Two flat models with a dense, non-real Hermitian metric and nonzero
    F, so that a transposed or swapped Gram factor shows."""
    from test_cohomology import _random_flat_model
    rng = random.Random(20261018)
    return [_random_flat_model(rng, idx) for idx in range(2)]
