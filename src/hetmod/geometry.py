"""Homogeneous Hermitian models: exterior calculus on the invariant coframe,
connections (Levi-Civita / Chern / Bismut), the Chern curvature, torsion,
the coupling a report uses (``resolve_alpha``) and the coupled-system
checker, which gives the four conditions as the dict the ``check`` report
prints.  ``_frame_values`` gives a form's values on frame vectors to the
bracket table and to both Levi-Civita routes.

Conventions fixed here once and used everywhere downstream:

* metric matrix h[a][b] is the Hermitian pairing of frame vectors V_a, V_b
  (i.e. g(V_a, conj V_b)); omega = i * sum h[a][b] alpha^a ^ abar^b.
* connection blocks: gamma[a][b][c] means nabla_{V_a} V_c = gamma[a][b][c] V_b,
  mu[a][b][c] means nabla_{Vbar_a} V_c = mu[a][b][c] V_b (all 0-based).
* curvature array R[k][j][l][m] carries the index picture "antiholomorphic
  derivative first": it is minus the coefficient of alpha^{j+1} ^ abar^{k+1}
  in the curvature 2-form entry (l,m), so that the commutator of a (1,0) and
  a (0,1) covariant derivative acts as -R on vector components.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from . import linalg
from .exterior import EndForm, InvariantForm, MixedForm, sort_with_sign
from .scalars import (GR_I, GR_ONE, GR_ZERO, GaussRat, Record, S_A, S_I,
                      S_ONE, Scalar, _acc, _make)


class ModelError(ValueError):
    pass


class HomogeneousModel(Record):
    name: str
    n: int
    coframe_names: list[str]
    d_coframe: list[MixedForm]          # d(alpha^a), total degree 2
    metric: list[list[GaussRat]]        # Hermitian positive h[a][b]
    omega_coeff: GaussRat               # Omega = omega_coeff * alpha^{1..n}
    rank: int
    curvature_F: EndForm                # gauge curvature, (1,1), trace-free
    alpha_prime: GaussRat | None
    chart: dict | None = None
    _cache: dict          # built values, keyed by name; empty on each copy
    _derived = ("_cache",)
    __hash__ = None

    def _derive(self) -> dict:
        return {"_cache": {}}

    def cached(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]


# ---------------------------------------------------------------------------
# exterior calculus


def exterior_derivative(x: InvariantForm, m: HomogeneousModel) -> MixedForm:
    """Leibniz extension of the coframe differentials (coefficients are
    constant on invariant forms): ``Form.derivation`` with a per-model
    table of the terms of d alpha^k and of its conjugate for each leg."""
    def build():
        def legs(ds):
            return tuple(tuple(t for _, f in d.parts for t in f.terms)
                         for d in ds)
        return (legs(m.d_coframe),
                legs(d.conjugate() for d in m.d_coframe))
    return x.derivation(*m.cached("d_legs", build))


def dolbeault_split(x: InvariantForm, m: HomogeneousModel):
    """(dx_{p+1,q}, dx_{p,q+1}); raises if an off-type component appears."""
    dx = exterior_derivative(x, m)
    hol = dx.part(x.p + 1, x.q)
    anti = dx.part(x.p, x.q + 1)
    for (p, q), f in dx.parts:
        if (p, q) not in ((x.p + 1, x.q), (x.p, x.q + 1)) and f:
            raise ModelError(
                f"non-integrable model: d of a ({x.p},{x.q}) form has a "
                f"({p},{q}) component"
            )
    return hol, anti


def partial_form(x: InvariantForm, m: HomogeneousModel) -> InvariantForm:
    return dolbeault_split(x, m)[0]


def dbar_form(x: InvariantForm, m: HomogeneousModel) -> InvariantForm:
    return dolbeault_split(x, m)[1]


def omega_form(m: HomogeneousModel) -> InvariantForm:
    def build():
        acc = InvariantForm.zero(m.n, 1, 1)
        for a in range(m.n):
            for b in range(m.n):
                h = m.metric[a][b]
                if h:
                    acc = acc + InvariantForm.monomial(
                        m.n, [a + 1], [b + 1], S_I * Scalar.const(h)
                    )
        return acc
    return m.cached("omega", build)


def torsion(m: HomogeneousModel) -> InvariantForm:
    """T = i * (2,1)-part of d(omega)."""
    return m.cached(
        "torsion",
        lambda: partial_form(omega_form(m), m).scale(S_I),
    )


def holomorphic_volume(m: HomogeneousModel) -> InvariantForm:
    return InvariantForm.monomial(
        m.n, list(range(1, m.n + 1)), [], Scalar.const(m.omega_coeff)
    )


# ---------------------------------------------------------------------------
# frame, brackets, metric helpers


def _as_gauss(s: Scalar, what: str) -> GaussRat:
    if s.degree > 0:
        raise ModelError(f"{what} is not constant in a")
    return s.coefficient(0)


def bracket_table(m: HomogeneousModel):
    """brackets[u][w]: components of [e_u, e_w] on the complexified frame,
    via alpha^c([X,Y]) = -d(alpha^c)(X,Y), with the values of d(alpha^c)
    and of its conjugate read by ``_frame_values``.
    """
    def build():
        n = m.n
        d_all = [*m.d_coframe, *(d.conjugate() for d in m.d_coframe)]
        table = [[[GR_ZERO] * (2 * n) for _ in range(2 * n)]
                 for _ in range(2 * n)]
        for c, dc in enumerate(d_all):
            for (s, t), v in _frame_values(dc, "structure constant").items():
                table[s][t][c] = -v
        return table
    return m.cached("brackets", build)


def metric_inverse(m: HomogeneousModel):
    return m.cached("hinv", lambda: linalg.inverse(m.metric))


def levi_civita(m: HomogeneousModel) -> dict:
    """The lowered complexified connection table on the frame (V_1..V_n,
    Vbar_1..Vbar_n), L[u, w, x] = g(nabla_{e_u} e_w, e_x), by the Koszul
    formula on the invariant frame, where g is constant, with each bracket
    lowered once, bl[u][w][x] = g([e_u, e_w], e_x):

        L[u][w][x] = 1/2 (bl[u][w][x] - bl[w][x][u] + bl[x][u][w]).

    It is scattered from the nonzero bl[i][j][k], each adding +1/2 to
    L[i, j, k], -1/2 to L[k, i, j] and +1/2 to L[j, k, i], and kept as a
    dict of the nonzero entries keyed by (u, w, x).  The table stays
    lowered, so no inverse metric enters."""
    def build():
        n, h = m.n, m.metric
        # the nonzero (x, g(e_y, e_x)): g(V_a, Vbar_b) = h[a][b]
        G = ([[(n + b, h[a][b]) for b in range(n) if h[a][b]]
              for a in range(n)]
             + [[(a, h[a][b]) for a in range(n) if h[a][b]]
                for b in range(n)])
        bl: dict = {}
        for u, row in enumerate(bracket_table(m)):
            for w, vec in enumerate(row):
                for y, c in enumerate(vec):
                    if c:
                        for x, g in G[y]:
                            _acc(bl, (u, w, x), c * g)
        half = GaussRat.of("1/2")
        L: dict = {}
        for (i, j, k), v in bl.items():
            v = half * v
            _acc(L, (i, j, k), v)
            _acc(L, (k, i, j), -v)
            _acc(L, (j, k, i), v)
        return L
    return m.cached("levi_civita", build)


class ConnectionData(Record):
    """Connection on T^{1,0} in the invariant frame (see module docstring)."""

    kind: str
    n: int
    gamma: tuple  # gamma[a][b][c], GaussRat
    mu: tuple     # mu[a][b][c], GaussRat


def frame_dbar_matrix(m: HomogeneousModel):
    """mu[a][b][c]: the (0,1)-block of the Chern connection, read off from
    the (1,1) structure constants (the holomorphic structure of T^{1,0}):
    alpha^c([Vbar_a, V_b]) is the coefficient of alpha^b ^ abar^a in
    d alpha^c, scattered from the terms of its (1,1) part."""
    n = m.n
    mu = [[[GR_ZERO] * n for _ in range(n)] for _ in range(n)]
    for c in range(n):
        for ((b,), (a,)), v in m.d_coframe[c].part(1, 1).terms:
            mu[a - 1][c][b - 1] = _as_gauss(v, "structure constant")
    return mu


def chern_connection(m: HomogeneousModel) -> ConnectionData:
    """Chern connection, computed two ways (metric/holomorphic-structure route
    and the Levi-Civita route) which must agree."""
    def build():
        n = m.n
        mu = frame_dbar_matrix(m)
        hinv = metric_inverse(m)
        # h-compatibility: sum_d gamma[a][d][b] h[d][c]
        #                  = - sum_e conj(mu[a][e][c]) h[b][e],
        # summed over the nonzero entries of mu, h and h^{-1} only
        h_col = [[(b, m.metric[b][e]) for b in range(n) if m.metric[b][e]]
                 for e in range(n)]
        rhs: dict = {}
        for a, block in enumerate(mu):
            for e, row in enumerate(block):
                for c, v in enumerate(row):
                    if v:
                        for b, h in h_col[e]:
                            _acc(rhs, (a, b, c), -v.conjugate() * h)
        gamma = [[[GR_ZERO] * n for _ in range(n)] for _ in range(n)]
        for (a, b, c), v in rhs.items():
            for d, w in enumerate(hinv[c]):
                if w:
                    gamma[a][d][b] = gamma[a][d][b] + v * w
        conn = ConnectionData(
            "chern", n,
            tuple(tuple(tuple(r) for r in g) for g in gamma),
            tuple(tuple(tuple(r) for r in g) for g in mu),
        )
        other = _via_levi_civita(m, "chern",
                                 exterior_derivative(omega_form(m), m),
                                 (GR_I, -GR_I))
        if conn.gamma != other.gamma or conn.mu != other.mu:
            raise ModelError(
                "Chern connection routes disagree (convention bug)"
            )
        return conn
    return m.cached("chern", build)


def _dc_omega(m: HomogeneousModel) -> MixedForm:
    """d^c omega = i(dbar - partial) omega."""
    hol, anti = dolbeault_split(omega_form(m), m)
    return (MixedForm.of(anti) - MixedForm.of(hol)).scale(S_I)


@lru_cache(maxsize=None)
def _odd_permutations(k: int) -> tuple[bool, ...]:
    """Whether each permutation of range(k), in ``itertools.permutations``
    order, is odd; built once per form degree."""
    return tuple(sort_with_sign(p)[0] < 0
                 for p in itertools.permutations(range(k)))


def _frame_values(form: MixedForm, what: str):
    """Values of a k-form on ordered k-tuples of complexified frame vectors,
    keyed by 0-based frame indices (V_1..V_n, then Vbar_1..Vbar_n).

    A term c theta^{s_1} ^ ... ^ theta^{s_k}, with s_1 < ... < s_k in frame
    order, is c times the sign of the permutation on every reordering of
    its slots; every other tuple is 0 and absent."""
    n = form.n
    odd = _odd_permutations(form.degree)
    values = {}
    for _, f in form.parts:
        for (h, a), c in f.terms:
            val = _as_gauss(c, what)
            slots = [i - 1 for i in h] + [n + i - 1 for i in a]
            for perm, o in zip(itertools.permutations(slots), odd):
                values[perm] = -val if o else val
    return values


def _via_levi_civita(m: HomogeneousModel, kind: str, three_form: MixedForm,
                     factors) -> ConnectionData:
    """A Hermitian connection from the Levi-Civita connection and a 3-form:

        h(nabla_X V_b, V_c) = g(nabla^g_X V_b, Vbar_c)
                              - 1/2 f three_form(X, V_b, Vbar_c),

    with f = factors[0] for X = V_a and f = factors[1] for X = Vbar_a.  The
    Chern connection takes d omega with factors (i, -i), because
    J V_a = i V_a; the Bismut connection takes d^c omega with factors
    (1, 1).  The first term is read off the nonzero entries of the lowered
    table of ``levi_civita``, the second off the terms of the 3-form, both
    at (X, V_b, Vbar_c); h^{-1} raises the nonzero pair entries, against
    its nonzero entries, to the (gamma, mu) blocks of the module
    docstring."""
    n = m.n
    values = _frame_values(three_form, f"the {kind} 3-form")
    hinv = [[(d, v) for d, v in enumerate(row) if v]
            for row in metric_inverse(m)]
    half = GaussRat.of("1/2")
    pairs: dict = {}
    for (u, b, x), v in levi_civita(m).items():
        if b < n <= x:
            _acc(pairs, (u, b, x - n), v)
    for (u, b, x), v in values.items():
        if b < n <= x:
            _acc(pairs, (u, b, x - n), -half * factors[u // n] * v)
    blocks = [[[[GR_ZERO] * n for _ in range(n)] for _ in range(n)]
              for _ in factors]
    for (u, b, c), v in pairs.items():
        block = blocks[u // n][u % n]
        for d, w in hinv[c]:
            block[d][b] = block[d][b] + v * w
    return ConnectionData(kind, n, *(
        tuple(tuple(tuple(r) for r in g) for g in block) for block in blocks))


def torsion_lower(m: HomogeneousModel):
    """T[mm][k][l] with the antiholomorphic leg first and the holomorphic pair
    antisymmetrized from the stored (2,1) form (0-based): a term
    v alpha^k ^ alpha^l ^ abar^mm, k < l, is v at (mm, k, l) and -v at
    (mm, l, k)."""
    def build():
        n = m.n
        arr = [[[GR_ZERO] * n for _ in range(n)] for _ in range(n)]
        for ((k, l), (mm,)), v in torsion(m).terms:
            val = _as_gauss(v, "torsion")
            arr[mm - 1][k - 1][l - 1] = val
            arr[mm - 1][l - 1][k - 1] = -val
        return arr
    return m.cached("torsion_lower", build)


def torsion_raised(m: HomogeneousModel):
    """T^j_{kl} = sum_m h^{j mbar} T_{mbar k l}; raising uses h inverse."""
    def build():
        n = m.n
        low = torsion_lower(m)
        hinv = metric_inverse(m)
        arr = [[[GR_ZERO] * n for _ in range(n)] for _ in range(n)]
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    arr[j][k][l] = sum(
                        (hinv[mm][j] * low[mm][k][l] for mm in range(n)),
                        start=GR_ZERO,
                    )
        return arr
    return m.cached("torsion_raised", build)


def bismut(m: HomogeneousModel) -> ConnectionData:
    """Bismut connection: Chern shifted by the raised torsion on the (1,0)
    block; cross-checked against nabla^g - 1/2 g^{-1} d^c omega."""
    def build():
        n = m.n
        ch = chern_connection(m)
        tr_raised = torsion_raised(m)
        gamma = tuple(
            tuple(
                tuple(ch.gamma[a][j][b] + tr_raised[j][a][b] for b in range(n))
                for j in range(n)
            )
            for a in range(n)
        )
        other = _via_levi_civita(m, "bismut", _dc_omega(m), (GR_ONE, GR_ONE))
        if other.gamma != gamma:
            raise ModelError("Bismut connection routes disagree")
        return ConnectionData("bismut", n, gamma, other.mu)
    return m.cached("bismut", build)


def chern_curvature(m: HomogeneousModel) -> EndForm:
    """The Chern curvature d theta + theta ^ theta as an End(T)-valued (1,1)
    form, from the matrix of connection 1-forms theta[b][c] = sum_a
    gamma[a][b][c] alpha^a + mu[a][b][c] abar^a (nabla e_c = theta[b][c]
    e_b); raises if any other bidegree appears."""
    def build():
        n, conn = m.n, chern_connection(m)

        def part(block, b, c, p):
            return _make(InvariantForm, (n, p, 1 - p), {
                ((a + 1,), ()) if p else ((), (a + 1,)):
                    Scalar.const(block[a][b][c])
                for a in range(n) if block[a][b][c]})
        theta = [[MixedForm(n, 1, {(1, 0): part(conn.gamma, b, c, 1),
                                   (0, 1): part(conn.mu, b, c, 0)})
                  for c in range(n)] for b in range(n)]
        flat = []
        for b in range(n):
            for c in range(n):
                R = MixedForm.zero(n, 2)
                for _, f in theta[b][c].parts:
                    R = R + exterior_derivative(f, m)
                for k in range(n):
                    R = R + theta[b][k].wedge(theta[k][c])
                for p, q in R.coeffs:
                    if (p, q) != (1, 1):
                        raise ModelError(
                            f"curvature of kind=chern has a ({p},{q}) part")
                flat.append(R.part(1, 1))
        return EndForm(n, n, 1, 1, tuple(flat))
    return m.cached("chern_R", build)


def curvature_array(m: HomogeneousModel):
    """R[k][j][l][mm] = R with antiholomorphic index k first (0-based); equals
    minus the coefficient of alpha^{j+1} ^ abar^{k+1} in entry (l, mm)."""
    def build():
        n = m.n
        R = chern_curvature(m)
        arr = [[[[GR_ZERO] * n for _ in range(n)] for _ in range(n)]
               for _ in range(n)]
        for l in range(n):
            for mm in range(n):
                f = R.entry(l, mm)
                for (holo, anti), c in f.terms:
                    j, k = holo[0] - 1, anti[0] - 1
                    arr[k][j][l][mm] = -_as_gauss(c, "curvature")
        return arr
    return m.cached("chern_R_array", build)


# ---------------------------------------------------------------------------
# system checker and symmetry identity


def _mixed_str(x: MixedForm) -> str:
    if not x:
        return "0"
    return " + ".join(str(f) for _, f in sorted(x.parts))


def _end_str(x: EndForm) -> str:
    if not x:
        return "0"
    bits = []
    for i in range(x.r):
        for j in range(x.r):
            if x.entry(i, j):
                bits.append(f"[{i + 1},{j + 1}]: {x.entry(i, j)}")
    return "; ".join(bits)


def anomaly_residual(m: HomogeneousModel,
                     alpha: GaussRat | None) -> InvariantForm:
    """2i d-del-bar omega - alpha' (tr F^F - tr R^R) as a (2,2) form; when
    alpha is None the result is symbolic in a."""
    w = omega_form(m)
    ddbar = partial_form(dbar_form(w, m), m)
    lhs = ddbar.scale(S_I + S_I)
    F = m.curvature_F
    trFF = F.mat_wedge(F).trace()
    R = chern_curvature(m)
    trRR = R.mat_wedge(R).trace()
    rhs = trFF - trRR
    factor = Scalar.const(alpha) if alpha is not None else S_A
    return lhs - rhs.scale(factor)


def resolve_alpha(m: HomogeneousModel, alpha0: GaussRat | None
                  ) -> GaussRat:
    """The coupling a report uses: ``alpha0`` if given (it must be real),
    else the model's alpha', else 1."""
    if alpha0 is not None:
        if alpha0.im:
            raise ModelError(
                f"the coupling alpha' must be real, not {alpha0}: the "
                "adjoint treats the coupling variable a as real")
        return alpha0
    if m.alpha_prime is not None:
        return m.alpha_prime
    # unconstrained coupling (both anomaly sides vanish): any value gives the
    # same dimensions when F = 0; pick 1 for definiteness
    return GaussRat.of(1)


def check_heterotic_system(m: HomogeneousModel,
                           alpha_override: GaussRat | None = None) -> dict:
    """{name: {"passed", "residual"}} for F1 (d Omega = 0), F2 (the anomaly
    residual), D1 (F ^ omega^{n-1} = 0) and D2 (d omega^{n-1} = 0), at
    ``alpha_override``, else the model's alpha', else symbolic in a."""
    alpha = alpha_override if alpha_override is not None else m.alpha_prime
    n = m.n
    w = omega_form(m)

    f1 = exterior_derivative(holomorphic_volume(m), m)
    f2 = anomaly_residual(m, alpha)
    # omega^{n-1}; omega^0 is the constant function 1
    wn = w if n > 1 else InvariantForm.monomial(n, [], [], S_ONE)
    for _ in range(n - 2):
        wn = wn.wedge(w)
    d1 = EndForm(n, m.rank, n, n,
                 tuple(f.wedge(wn) for f in m.curvature_F.flat))
    # |Omega|_omega is constant on invariant data, so the conformally
    # balanced condition reduces to d(omega^{n-1}) = 0
    d2 = exterior_derivative(wn, m)
    return {name: {"passed": not x, "residual": text(x)} for name, x, text
            in (("F1", f1, _mixed_str), ("F2", f2, str), ("D1", d1, _end_str),
                ("D2", d2, _mixed_str))}


def chern_symmetry_residual(m: HomogeneousModel):
    """Residuals of the first-Bianchi-type symmetry of the Chern curvature
    against the (0,1) covariant derivative of the raised torsion, evaluated
    on every index tuple in the invariant frame."""
    n = m.n
    R = curvature_array(m)
    Tr = torsion_raised(m)
    ch = chern_connection(m)
    mu = ch.mu
    residuals = {}
    for k in range(n):
        for q in range(n):
            for mm in range(n):
                for l in range(n):
                    # (0,1)-covariant derivative of T^mm_{l q} in direction k
                    dT = sum(
                        (mu[k][mm][c] * Tr[c][l][q]
                         - mu[k][c][l] * Tr[mm][c][q]
                         - mu[k][c][q] * Tr[mm][l][c]
                         for c in range(n)),
                        start=GR_ZERO,
                    )
                    res = R[k][q][mm][l] - R[k][l][mm][q] - dT
                    if res:
                        residuals[(k + 1, q + 1, mm + 1, l + 1)] = res
    return {
        "zero": not residuals,
        "nonzero_count": len(residuals),
        "entries": {str(k): str(v) for k, v in residuals.items()},
    }


# ---------------------------------------------------------------------------
# model validation


def validate_model(m: HomogeneousModel) -> list[str]:
    """Full validation; returns a list of failure messages (empty = valid)."""
    errors = []
    n = m.n
    if len(m.coframe_names) != n:
        errors.append("coframe has wrong length")
    if len(m.d_coframe) != n:
        errors.append("dCoframe has wrong length")
        return errors
    # integrability and d^2 = 0
    for a in range(n):
        if m.d_coframe[a].part(0, 2):
            errors.append(
                f"non-integrable: d {m.coframe_names[a]} has a (0,2) part"
            )
        dd = MixedForm.zero(n, 3)
        for _, f in m.d_coframe[a].parts:
            dd = dd + exterior_derivative(f, m)
        if dd:
            errors.append(f"d^2 {m.coframe_names[a]} != 0")
    # metric
    if len(m.metric) != n or any(len(r) != n for r in m.metric):
        errors.append("metric has wrong shape")
    else:
        bad = next(((a, b) for a in range(n) for b in range(n)
                    if m.metric[a][b] != m.metric[b][a].conjugate()), None)
        if bad is not None:
            a, b = bad
            errors.append(f"metric is not Hermitian: metric[{a}][{b}] = "
                          f"{m.metric[a][b]} but conj(metric[{b}][{a}]) = "
                          f"{m.metric[b][a].conjugate()}")
        # leading principal minors must be positive rationals
        for k in range(1, n + 1):
            minor = linalg.det([row[:k] for row in m.metric[:k]], GR_ONE)
            if minor.b or minor.a <= 0:
                errors.append(
                    f"metric leading minor {k} is not positive ({minor})"
                )
    # gauge curvature
    F = m.curvature_F
    if (F.p, F.q) != (1, 1):
        errors.append("gauge curvature F is not of bidegree (1,1)")
    if F.r != m.rank:
        errors.append("gauge curvature F has wrong rank")
    if not F.is_trace_free():
        errors.append("gauge curvature F is not trace-free")
    if not m.omega_coeff:
        errors.append("omega_coeff must be nonzero")
    return errors
