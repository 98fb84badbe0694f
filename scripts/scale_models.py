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
  ``F = 0``; its symbol loses rank at some samples for alpha' = 1 and 2.

The files depend on nothing but the built-in iwasawa model, so two runs
write the same bytes.  The script prints the path of each file it wrote.

Usage:
    PYTHONPATH=src python3 scripts/scale_models.py OUTDIR
"""

import json
import os
import sys

from hetmod.models import builtin_model, model_to_json

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


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    outdir = argv[0]
    os.makedirs(outdir, exist_ok=True)
    models = [iwasawa_t2(), kt_t1()] + [flat(n, r) for n, r in FLAT]
    for data in models:
        path = os.path.join(outdir, data["name"] + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(data, indent=2, sort_keys=True) + "\n")
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
