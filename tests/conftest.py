import dataclasses
import random

import pytest

from hetmod.models import builtin_model
from hetmod.scalars import GR_ONE, GR_ZERO, GaussRat


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


@pytest.fixture(scope="session")
def dense_metric_builtins(iwasawa, calabi_eckmann):
    """iwasawa and calabi-eckmann with the dense, non-real Hermitian metric
    I + A^dagger A, so that the curvature and the Bismut shift fill their
    tables; ``dataclasses.replace`` gives each copy a cache of its own."""
    out = []
    for m in (iwasawa, calabi_eckmann):
        n = m.n
        A = [[GaussRat.of((i + 2 * j) % 3 - 1, (i * j + 1) % 3 - 1)
              for j in range(n)] for i in range(n)]
        metric = [[sum((A[k][i].conjugate() * A[k][j] for k in range(n)),
                       start=GR_ONE if i == j else GR_ZERO)
                   for j in range(n)] for i in range(n)]
        out.append(dataclasses.replace(m, name=m.name + "-dense",
                                       metric=metric))
    return out
