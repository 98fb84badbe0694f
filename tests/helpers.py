"""Functions that only the tests call, kept out of ``src/hetmod``: each one
makes test inputs or is an oracle with its own route to the answer."""

from typing import List, Sequence

from hetmod.exterior import FormError
from hetmod.geometry import HomogeneousModel
from hetmod.linalg import Matrix
from hetmod.qcomplex import QSection, gram, q_basis
from hetmod.scalars import GR_ZERO, S_ZERO, GaussRat, Scalar


def section_from_coordinates(m: HomogeneousModel, p: int,
                             coords: Sequence[Scalar]) -> QSection:
    basis = q_basis(m, p)
    if len(coords) != basis.dim:
        raise FormError("coordinate vector has the wrong length")
    acc = QSection.zero(m.n, m.rank, p)
    for c, b in zip(coords, basis.sections):
        if c:
            acc = acc + b.scale(c)
    return acc


def gram_pair(m: HomogeneousModel, p: int, x: Sequence[Scalar],
              y: Sequence[Scalar]) -> Scalar:
    """<x, y> with the second slot conjugated (a treated as real)."""
    G = gram(m, p)
    acc = S_ZERO
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j, yj in enumerate(y):
            if yj and G[i][j]:
                acc = acc + xi * Scalar.const(G[i][j]) * yj.conjugate()
    return acc


def mat_vec(a: Matrix, v: Sequence[GaussRat]) -> List[GaussRat]:
    return [sum((row[j] * v[j] for j in range(len(v)) if v[j]),
                start=GR_ZERO) for row in a]
