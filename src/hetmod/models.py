"""Built-in homogeneous models and JSON model files.

The three built-ins are model texts, the data ``print_model`` prints for
each, and ``builtin_model`` parses and validates them the way a model file
is, through ``parse_model_text`` and ``validate_model``:

* ``iwasawa``: nilmanifold with d(a3) = a1^a2, diagonal metric, a rank-2
  diagonal gauge field, coupling -4 and a polynomial chart.
* ``calabi-eckmann``: S^3 x S^3 with the product round metric; its six d
  terms are those of the real su(2)+su(2) structure constants on the
  complex coframe a1 = e1 + i e4, a2 = e2 + i e3, a3 = e5 + i e6 (the
  tests derive them from the constants).
* ``torus``: abelian baseline, every structure constant zero.

The JSON schema (see ``model_to_json``) mirrors the model fields; holomorphic
coframe legs are referenced by name ("a1") and antiholomorphic ones by the
conjugate name ("ab1").
"""

from __future__ import annotations

import json

from .exterior import EndForm, FormError, InvariantForm, MixedForm
from .geometry import HomogeneousModel, ModelError, validate_model
from .scalars import (
    GaussRat,
    Scalar,
    ScalarError,
    format_scalar,
    parse_gauss,
)

# The built-ins as model texts: the data ``print_model`` prints for each.
_BUILTIN_TEXTS = {
    "iwasawa": """{
  "name": "iwasawa", "n": 3, "coframe": ["a1", "a2", "a3"],
  "d": {"a3": [{"coeff": "1", "wedge": ["a1", "a2"]}]},
  "metric": [["1/2", "0", "0"], ["0", "1/2", "0"], ["0", "0", "1/2"]],
  "omega_coeff": "1",
  "bundle": {"rank": 2, "F": {"a1^ab1": [["1/4 i", "0"], ["0", "-1/4 i"]],
                              "a2^ab2": [["-1/4 i", "0"], ["0", "1/4 i"]]}},
  "alpha_prime": "-4",
  "chart": {"coords": 3, "coframe_pullback": {
    "a1": "dz1", "a2": "dz2", "a3": "-dz3 + z1 dz2"}}
}""",
    "calabi-eckmann": """{
  "name": "calabi-eckmann", "n": 3, "coframe": ["a1", "a2", "a3"],
  "d": {
    "a1": [{"coeff": "1/2 i", "wedge": ["a2", "ab2"]},
           {"coeff": "-1/2", "wedge": ["a3", "ab3"]}],
    "a2": [{"coeff": "-1/2 i", "wedge": ["a2", "ab1"]},
           {"coeff": "1/2 i", "wedge": ["a1", "a2"]}],
    "a3": [{"coeff": "1/2", "wedge": ["a3", "ab1"]},
           {"coeff": "1/2", "wedge": ["a1", "a3"]}]},
  "metric": [["1/2", "0", "0"], ["0", "1/2", "0"], ["0", "0", "1/2"]],
  "omega_coeff": "1",
  "bundle": {"rank": 3, "F": {}},
  "alpha_prime": null
}""",
    "torus": """{
  "name": "torus", "n": 3, "coframe": ["a1", "a2", "a3"],
  "d": {},
  "metric": [["1/2", "0", "0"], ["0", "1/2", "0"], ["0", "0", "1/2"]],
  "omega_coeff": "1",
  "bundle": {"rank": 2, "F": {}},
  "alpha_prime": null
}""",
}

BUILTIN_NAMES = tuple(_BUILTIN_TEXTS)


def builtin_model(name: str) -> HomogeneousModel:
    """A new model parsed and validated from the built-in's text, sharing
    no state with any other call."""
    if name not in _BUILTIN_TEXTS:
        raise ModelError(
            f"unknown built-in model {name!r}; choose from {BUILTIN_NAMES}"
        )
    return parse_model_text(_BUILTIN_TEXTS[name])


# ---------------------------------------------------------------------------
# JSON ingestion / serialization


def _conj_name(name: str) -> str:
    return "ab" + name[1:] if name.startswith("a") else name + "_bar"


def _parse_wedge(legs, names: dict[str, int], where: str):
    """The sign of moving a wedge's holomorphic legs before its
    antiholomorphic ones, and the two lists of legs in their order.  A leg
    named twice is refused: the wedge would read as zero."""
    if not isinstance(legs, list) or not all(isinstance(x, str)
                                             for x in legs):
        raise ModelError(f"{where}: wedge must be a list of coframe names, "
                         f"not {json.dumps(legs)}")
    holo, anti = [], []
    sign = 1
    conj = {_conj_name(nm): idx for nm, idx in names.items()}
    for pos, leg in enumerate(legs):
        if leg in legs[:pos]:
            raise ModelError(f"{where}: wedge repeats the leg {leg!r}")
        if leg in names:
            holo.append(names[leg])
            if len(anti) % 2:
                sign = -sign
        elif leg in conj:
            anti.append(conj[leg])
        else:
            raise ModelError(f"{where}: unknown coframe leg {leg!r}")
    return sign, holo, anti


def _parse_const(text, where: str) -> GaussRat:
    try:
        return parse_gauss(str(text))
    except ScalarError as exc:
        raise ModelError(f"{where}: {exc}") from exc


def parse_model_text(text: str) -> HomogeneousModel:
    """Build and fully validate a model from its JSON text."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelError(f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ModelError("model file must contain a JSON object")
    for key in ("name", "n", "coframe", "d", "metric", "omega_coeff",
                "bundle"):
        if key not in data:
            raise ModelError(f"missing required key {key!r}")
    n = data["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ModelError("n must be a positive integer")
    if not isinstance(data["name"], str):
        raise ModelError(f"name must be a string, not "
                         f"{json.dumps(data['name'])}")
    coframe = data["coframe"]
    if (not isinstance(coframe, list) or len(coframe) != n
            or not all(isinstance(nm, str) for nm in coframe)
            or len(set(coframe)) != n):
        raise ModelError("coframe must list n distinct names")
    names = {nm: idx + 1 for idx, nm in enumerate(coframe)}
    for nm in coframe:
        if _conj_name(nm) in names:
            raise ModelError(f"coframe: {_conj_name(nm)!r} is both a name "
                             f"and the conjugate of {nm!r}")

    d_coframe = []
    dmap = data["d"]
    if not isinstance(dmap, dict):
        raise ModelError("d must map coframe names to term lists")
    for nm in dmap:
        if nm not in names:
            raise ModelError(f"d.{nm}: not a coframe name")
    for nm in coframe:
        acc = MixedForm.zero(n, 2)
        for pos, term in enumerate(dmap.get(nm, [])):
            where = f"d.{nm}[{pos}]"
            if not isinstance(term, dict) or set(term) != {"coeff", "wedge"}:
                raise ModelError(f"{where}: expected coeff/wedge keys")
            sign, holo, anti = _parse_wedge(term["wedge"], names, where)
            if len(holo) + len(anti) != 2:
                raise ModelError(f"{where}: wedge must have two legs")
            c = _parse_const(term["coeff"], where)
            mono = InvariantForm.monomial(n, holo, anti,
                                          Scalar.const(c if sign > 0 else -c))
            if mono:
                acc = acc + MixedForm.of(mono)
        d_coframe.append(acc)

    metric_rows = data["metric"]
    if (not isinstance(metric_rows, list) or len(metric_rows) != n
            or any(not isinstance(r, list) or len(r) != n
                   for r in metric_rows)):
        raise ModelError("metric must be an n x n array")
    metric = [
        [_parse_const(metric_rows[a][b], f"metric[{a}][{b}]")
         for b in range(n)]
        for a in range(n)
    ]

    bundle = data["bundle"]
    if not isinstance(bundle, dict) or "rank" not in bundle:
        raise ModelError("bundle must be an object with a rank")
    rank = bundle["rank"]
    if not isinstance(rank, int) or isinstance(rank, bool) or rank < 1:
        raise ModelError("bundle.rank must be a positive integer")
    fgrid = [[InvariantForm.zero(n, 1, 1) for _ in range(rank)]
             for _ in range(rank)]
    fmap = bundle.get("F", {})
    if not isinstance(fmap, dict):
        raise ModelError("bundle.F must map wedge names such as 'a1^ab1' "
                         f"to rank x rank arrays, not {json.dumps(fmap)}")
    spelled: dict[tuple, str] = {}   # (holo, anti) -> the key naming it
    for mono_name, rows in fmap.items():
        where = f"bundle.F[{mono_name!r}]"
        legs = mono_name.split("^")
        sign, holo, anti = _parse_wedge(legs, names, where)
        if len(holo) != 1 or len(anti) != 1:
            raise ModelError(f"{where}: key must name one a and one ab leg")
        first = spelled.setdefault((holo[0], anti[0]), mono_name)
        if first != mono_name:
            raise ModelError(f"bundle.F: keys {first!r} and {mono_name!r} "
                             "name the same component")
        if (not isinstance(rows, list) or len(rows) != rank
                or any(not isinstance(r, list) or len(r) != rank
                       for r in rows)):
            raise ModelError(f"{where}: expected a rank x rank array")
        for i in range(rank):
            for j in range(rank):
                c = _parse_const(rows[i][j], f"{where}[{i}][{j}]")
                if c:
                    fgrid[i][j] = fgrid[i][j] + InvariantForm.monomial(
                        n, holo, anti, Scalar.const(c if sign > 0 else -c))
    F = EndForm.build(n, rank, 1, 1, fgrid)

    alpha_raw = data.get("alpha_prime")
    alpha = (None if alpha_raw is None
             else _parse_const(alpha_raw, "alpha_prime"))
    if alpha is not None and alpha.b:
        raise ModelError("alpha_prime must be a real rational")

    chart = data.get("chart")
    if chart is not None:
        if (not isinstance(chart, dict) or "coords" not in chart
                or "coframe_pullback" not in chart):
            raise ModelError("chart needs coords and coframe_pullback")
        coords, pullback = chart["coords"], chart["coframe_pullback"]
        if not isinstance(coords, int) or isinstance(coords, bool):
            raise ModelError(f"chart.coords must be an integer, not "
                             f"{coords!r}")
        if not isinstance(pullback, dict):
            raise ModelError("chart.coframe_pullback must map coframe names "
                             "to one-forms")
        missing = [nm for nm in coframe if nm not in pullback]
        if missing:
            raise ModelError(f"chart.coframe_pullback missing {missing}")
        for nm, text in pullback.items():
            if nm not in names:
                raise ModelError(f"chart.coframe_pullback.{nm}: not a "
                                 "coframe name")
            if not isinstance(text, str):
                raise ModelError(f"chart.coframe_pullback.{nm} must be a "
                                 f"string such as 'dz1', not {text!r}")

    try:
        model = HomogeneousModel(
            name=data["name"],
            n=n,
            coframe_names=list(coframe),
            d_coframe=d_coframe,
            metric=metric,
            omega_coeff=_parse_const(data["omega_coeff"], "omega_coeff"),
            rank=rank,
            curvature_F=F,
            alpha_prime=alpha,
            chart=chart,
        )
    except FormError as exc:
        raise ModelError(str(exc)) from exc
    problems = validate_model(model)
    if problems:
        raise ModelError("; ".join(problems))
    return model


def parse_model_file(path: str) -> HomogeneousModel:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_model_text(fh.read())


def _mono_name(key, coframe) -> str:
    holo, anti = key
    legs = [coframe[i - 1] for i in holo]
    legs += [_conj_name(coframe[i - 1]) for i in anti]
    return "^".join(legs)


def model_to_json(m: HomogeneousModel) -> dict:
    """Plain-JSON description; ``parse_model_text`` inverts it exactly."""
    d = {}
    for a, mf in enumerate(m.d_coframe):
        terms = []
        for _, f in sorted(mf.parts):
            for key, c in sorted(f.terms):
                terms.append({
                    "coeff": format_scalar(c),
                    "wedge": _mono_name(key, m.coframe_names).split("^"),
                })
        if terms:
            d[m.coframe_names[a]] = terms
    fmap: dict[str, list] = {}
    for i in range(m.rank):
        for j in range(m.rank):
            for key, c in m.curvature_F.entry(i, j).terms:
                nm = _mono_name(key, m.coframe_names)
                if nm not in fmap:
                    fmap[nm] = [["0"] * m.rank for _ in range(m.rank)]
                fmap[nm][i][j] = format_scalar(c)
    out = {
        "name": m.name,
        "n": m.n,
        "coframe": list(m.coframe_names),
        "d": d,
        "metric": [[str(x) for x in row] for row in m.metric],
        "omega_coeff": str(m.omega_coeff),
        "bundle": {"rank": m.rank, "F": fmap},
        "alpha_prime": (None if m.alpha_prime is None
                        else str(m.alpha_prime)),
    }
    if m.chart is not None:
        out["chart"] = m.chart
    return out


def print_model(m: HomogeneousModel) -> str:
    return json.dumps(model_to_json(m), indent=2, sort_keys=True) + "\n"
