import json
import random

import pytest

from hetmod.models import builtin_model, parse_model_text
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
    tables; the record's ``replace`` gives each copy a cache of its own."""
    out = []
    for m in (iwasawa, calabi_eckmann):
        n = m.n
        A = [[GaussRat.of((i + 2 * j) % 3 - 1, (i * j + 1) % 3 - 1)
              for j in range(n)] for i in range(n)]
        metric = [[sum((A[k][i].conjugate() * A[k][j] for k in range(n)),
                       start=GR_ONE if i == j else GR_ZERO)
                   for j in range(n)] for i in range(n)]
        out.append(m.replace(name=m.name + "-dense", metric=metric))
    return out


def kt_model(n: int):
    """The Kodaira-Thurston type model at n: d a2 = a1 ^ ab1, the other
    legs closed, unit metric, a line bundle with F = 0, so the symbol has
    no gauge block and alpha' R couples the rest."""
    return parse_model_text(json.dumps({
        "name": f"kt{n}", "n": n,
        "coframe": [f"a{k + 1}" for k in range(n)],
        "d": {"a2": [{"coeff": "1", "wedge": ["a1", "ab1"]}]},
        "metric": [["1" if i == j else "0" for j in range(n)]
                   for i in range(n)],
        "omega_coeff": "1", "bundle": {"rank": 1, "F": {}}}))


@pytest.fixture(scope="session")
def kt_models():
    """The Kodaira-Thurston type models for n = 2 and 3."""
    return [kt_model(2), kt_model(3)]


@pytest.fixture(scope="session")
def kt4():
    """The Kodaira-Thurston type model for n = 4: 2,400 samples, so that
    the symbol scan spans several blocks."""
    return kt_model(4)
