#!/usr/bin/env python3
"""Write the larger model files that the ROADMAP's Baseline times.

- ``iwasawa-t2.json``: iwasawa's data with two more closed coframe legs,
  coframe ``a1..a5``, metric ``1/2 I`` and iwasawa's chart with
  ``a4 = dz4`` and ``a5 = dz5`` (iwasawa x T^2);
- ``flat<n>r<r>.json``: ``d = 0``, metric ``1/2 I``, bundle rank ``r``,
  ``F = 0`` and the identity chart ``a<k> = dz<k>``, for (n, r) in (5, 3),
  (6, 2), (7, 1), (8, 1);
- ``kt-t1.json``: a Kodaira-Thurston type model times T^1, coframe
  ``a1..a3`` with ``d a2 = a1 ^ ab1``, unit metric, bundle rank 1 and
  ``F = 0``; its symbol loses rank at some samples for alpha' = 1 and 2;
- ``dense4r2.json``: ``d = 0``, the dense non-real metric ``I + A^dagger A``
  for a fixed 4 x 4 matrix A of Gaussian rationals, bundle rank 2, a
  strictly upper-triangular constant ``F`` (so tr F ^ F = 0 and the
  operator squares to zero at every alpha'), and the identity chart; its
  Gram factors carry large denominators, which the exact ranks of the
  harmonic counts work through.

The files depend on nothing but the built-in iwasawa model and fixed
numbers, so two runs write the same bytes.  The script prints the path of
each file it wrote.

Usage:
    PYTHONPATH=src python3 scripts/scale_models.py OUTDIR
"""

import json
import os
import sys

from hetmod.models import builtin_model, model_to_json
from hetmod.scalars import GR_ONE, GR_ZERO, GaussRat

FLAT = ((5, 3), (6, 2), (7, 1), (8, 1))


def _half_identity(n):
    return [["1/2" if i == j else "0" for j in range(n)] for i in range(n)]


def _coframe(n):
    return [f"a{k + 1}" for k in range(n)]


def iwasawa_t2():
    data = model_to_json(builtin_model("iwasawa"))
    data["chart"]["coords"] = 5
    data["chart"]["coframe_pullback"].update(a4="dz4", a5="dz5")
    data.update(name="iwasawa-t2", n=5, coframe=_coframe(5),
                metric=_half_identity(5))
    return data


def flat(n, r):
    return {"name": f"flat{n}r{r}", "n": n, "coframe": _coframe(n), "d": {},
            "metric": _half_identity(n), "omega_coeff": "1",
            "bundle": {"rank": r, "F": {}},
            "chart": {"coords": n, "coframe_pullback": {
                f"a{k + 1}": f"dz{k + 1}" for k in range(n)}}}


def kt_t1():
    return {"name": "kt-t1", "n": 3, "coframe": _coframe(3),
            "d": {"a2": [{"coeff": "1", "wedge": ["a1", "ab1"]}]},
            "metric": [["1" if i == j else "0" for j in range(3)]
                       for i in range(3)],
            "omega_coeff": "1", "bundle": {"rank": 1, "F": {}}}


def dense_r2(n):
    A = [[GaussRat(f"{(i + 2 * j) % 3 - 1}/{j + 2}",
                   f"{(i * j + 1) % 3 - 1}/{i + 3}") for j in range(n)]
         for i in range(n)]
    metric = [[str(sum((A[k][i].conjugate() * A[k][j] for k in range(n)),
                       start=GR_ONE if i == j else GR_ZERO))
               for j in range(n)] for i in range(n)]
    # each F value is nonzero only in its (0, 1) entry
    F = {f"a{a + 1}^ab{b + 1}":
         [["0", str(GaussRat(0, f"{a - b}/{a + b + 2}"))], ["0", "0"]]
         for a in range(n) for b in range(n) if a != b}
    return {"name": f"dense{n}r2", "n": n, "coframe": _coframe(n),
            "d": {}, "metric": metric, "omega_coeff": "1",
            "bundle": {"rank": 2, "F": F},
            "chart": {"coords": n, "coframe_pullback": {
                f"a{k + 1}": f"dz{k + 1}" for k in range(n)}}}


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    outdir = argv[0]
    os.makedirs(outdir, exist_ok=True)
    models = ([iwasawa_t2(), kt_t1()] + [flat(n, r) for n, r in FLAT]
              + [dense_r2(4)])
    for data in models:
        path = os.path.join(outdir, data["name"] + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(data, indent=2, sort_keys=True) + "\n")
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
