"""Pseudo-Kähler coordinate charts and their derived geometry.

A chart supplies the metric g_{kl} = 2g(Z_k, Zb_l) and its inverse as exact
rational functions, a factor base used to keep coefficients reduced, an
optional holomorphic potential gradient and a formal series of closed
two-forms.  From the metric the module derives the Kähler connection, the
curvature element of the Weyl algebra and the Ricci form, and validates
every structural identity exactly at load time; a failed identity is an
error, never a warning.
"""

from __future__ import annotations

import json
from fractions import Fraction

from . import weyl
from .expr import (
    GR_HALF_I,
    ChartExpr,
    ExprError,
    GaussianRational,
    _stored,
    factor_base as interned_base,
    parse,
    var_name,
)

GR_MINUS_HALF_I = GaussianRational(0, Fraction(-1, 2))
# the largest `dimension` a chart document may declare; the curvature check
# at load time takes n^5 steps, and `describe` on the identity metric takes
# 0.44 s in dimension 12 on a 2-core x86-64 VM (0.95 s in dimension 14)
MAX_DIMENSION = 12


class ChartError(Exception):
    """Schema violation or failed structural invariant in a chart document."""


# -- differential forms --------------------------------------------------------


def _signed(c, sign):
    return c if sign > 0 else -c


def _hol_degree(mask, n):
    """The number of dz symbols in the word `mask`."""
    return bin(mask & ((1 << n) - 1)).count("1")


class Form:
    """sum_M c_M dx^M over the 2n one-form symbols, for forms of every degree.

    A key M is the bit mask of an ascending word in dz1..dzn, dzb1..dzbn
    (bit j < n is dz^{j+1}, bit n + l is dzb^{l+1}), the convention of the
    antisymmetric part of a WeylElement.  Zero coefficients are dropped.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        self.n = n
        self.terms = {m: c for m, c in (terms or {}).items() if not c.is_zero()}

    @staticmethod
    def _summed(n, items):
        """The form sum c dx^M over (mask, c) pairs; repeated masks add up."""
        terms = {}
        for mask, c in items:
            if not c.is_zero():
                terms[mask] = terms[mask] + c if mask in terms else c
        return Form(n, terms)

    def __getitem__(self, mask):
        return self.terms.get(mask, ChartExpr.zero(self.n))

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        return Form._summed(self.n, [*self.terms.items(), *other.terms.items()])

    def __neg__(self):
        return Form(self.n, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, factor):
        return Form(self.n, {m: c.scale(factor) for m, c in self.terms.items()})

    def __eq__(self, other):
        return (self - other).is_zero() if isinstance(other, Form) else NotImplemented

    def d(self):
        """Exterior derivative: sum_j d_j c_M dx^j ^ dx^M."""
        return Form._summed(self.n, [
            (m | (1 << j), _signed(c.differentiate(j), weyl._pass_sign(j, m)))
            for m, c in self.terms.items()
            for j in range(2 * self.n)
            if not (m >> j) & 1
        ])

    def is_closed(self):
        return self.d().is_zero()

    def interior(self, j):
        """Contraction with the coordinate field of symbol j (Z_j, or Zb_{j-n})."""
        return Form._summed(self.n, [
            (m ^ (1 << j), _signed(c, weyl._pass_sign(j, m)))
            for m, c in self.terms.items()
            if (m >> j) & 1
        ])

    def conjugate(self):
        """Complex conjugation of the coefficients and of dz <-> dzb."""
        out = {}
        for m, c in self.terms.items():
            mask, sign = weyl._conj_mask(m, self.n)
            out[mask] = _signed(c.conjugate(), sign)
        return Form(self.n, out)

    def is_type_11(self):
        return all(_hol_degree(m, self.n) == 1 and bin(m).count("1") == 2 for m in self.terms)

    def to_weyl(self, nu_power=0, truncation=None):
        """The central element 1 x (form) at the given nu power."""
        zero_sym = (0,) * (2 * self.n)
        return weyl.WeylElement.from_terms(
            self.n, [(nu_power, zero_sym, m, c) for m, c in self.terms.items()], truncation
        )

    def to_weyl_sym(self, nu_power=0, truncation=None):
        """The element (one-form) x 1: symmetric degree 1, no wedge part."""
        items = []
        for m, c in self.terms.items():
            if m & (m - 1):
                raise ValueError("the symmetric embedding takes one-forms only")
            sym = [0] * (2 * self.n)
            sym[m.bit_length() - 1] = 1
            items.append((nu_power, tuple(sym), 0, c))
        return weyl.WeylElement.from_terms(self.n, items, truncation)

    def render(self):
        if self.is_zero():
            return "0"
        n = self.n

        def word(m):
            return "^".join(f"d{var_name(j, n)}" for j in weyl._iter_bits(m))

        # more dz symbols first, so (2,0) before (1,1) before (0,2); then by word
        keys = sorted(self.terms, key=lambda m: (-_hol_degree(m, n), tuple(weyl._iter_bits(m))))
        return " + ".join(f"({self.terms[m].pretty()}) {word(m)}" for m in keys)

    def __repr__(self):
        return f"<Form {self.render()}>"


def OneForm(n, hol=None, ahol=None):
    """b_k dz^k + c_l dzb^l from the typed parts {k: b_k} and {l: c_l}."""
    return Form(n, {
        **{1 << k: b for k, b in (hol or {}).items()},
        **{1 << (n + l): c for l, c in (ahol or {}).items()},
    })


def TwoForm(n, hh=None, hm=None, aa=None):
    """A two-form from its typed parts: hh[(k, l)] with k < l the coefficient
    of dz^k ^ dz^l, hm[(k, l)] that of dz^k ^ dzb^l, aa[(k, l)] with k < l
    that of dzb^k ^ dzb^l."""
    return Form(n, {
        **{(1 << k) | (1 << l): c for (k, l), c in (hh or {}).items()},
        **{(1 << k) | (1 << (n + l)): c for (k, l), c in (hm or {}).items()},
        **{(1 << (n + k)) | (1 << (n + l)): c for (k, l), c in (aa or {}).items()},
    })


class FormSeries:
    """Formal series sum_i nu^i * (form)_i; normalized and sparse."""

    __slots__ = ("n", "forms")

    def __init__(self, n, forms=()):
        self.n = n
        merged = {}
        for power, form in forms:
            merged[power] = merged[power] + form if power in merged else form
        self.forms = {p: f for p, f in sorted(merged.items()) if not f.is_zero()}

    @staticmethod
    def zero(n):
        return FormSeries(n)

    def items(self):
        return list(self.forms.items())

    def is_zero(self):
        return not self.forms

    def min_power(self):
        return min(self.forms, default=None)

    def _map(self, fn):
        return FormSeries(self.n, [(p, fn(p, f)) for p, f in self.forms.items()])

    def __add__(self, other):
        return FormSeries(self.n, self.items() + other.items())

    def __neg__(self):
        return self._map(lambda p, f: -f)

    def __sub__(self, other):
        return self + (-other)

    def __eq__(self, other):
        return (self - other).is_zero() if isinstance(other, FormSeries) else NotImplemented

    def scale(self, factor):
        return self._map(lambda p, f: f.scale(factor))

    def parity(self):
        """nu -> -nu on the series."""
        return self._map(lambda p, f: -f if p & 1 else f)

    def conjugate(self):
        """Conjugation with nu -> -nu (the formal parameter is imaginary)."""
        return self._map(lambda p, f: f.conjugate()).parity()

    def d(self):
        return self._map(lambda p, f: f.d())

    def is_closed(self):
        return self.d().is_zero()

    def is_type_11(self):
        return all(f.is_type_11() for f in self.forms.values())

    def to_weyl(self, truncation=None):
        """The series 1 x (form) as a Weyl element."""
        el = weyl.WeylElement.zero(self.n, truncation)
        for p, f in self.forms.items():
            el = el + f.to_weyl(p, truncation)
        return el

    def to_weyl_sym(self, truncation=None):
        """The series (one-form) x 1 as a Weyl element (symmetric degree 1)."""
        el = weyl.WeylElement.zero(self.n, truncation)
        for p, f in self.forms.items():
            el = el + f.to_weyl_sym(p, truncation)
        return el

    def render(self):
        if not self.forms:
            return "0"
        return " + ".join(f"nu^{p} * [{f.render()}]" for p, f in self.forms.items())

    def __repr__(self):
        return f"<FormSeries {self.render()}>"


# -- connection and curvature ----------------------------------------------------


class ConnectionData:
    """Christoffel symbols of the Kähler connection (holomorphic block).

    christoffel[m][k][l] = Gamma^m_{kl} = g^{mn} Z_k(g_{ln}); the barred
    block is the entrywise conjugate.
    """

    __slots__ = ("n", "christoffel", "christoffel_bar")

    def __init__(self, n, christoffel, christoffel_bar):
        self.n = n
        self.christoffel = christoffel
        self.christoffel_bar = christoffel_bar


class CurvatureData:
    """Curvature element of the Weyl algebra plus the Ricci form.

    The lowered curvature coefficients rho[(p, nb, i, jb)] multiply
    dz^p v dzb^nb x dz^i ^ dzb^jb; the sign convention is pinned by the
    two identities  nabla^2 = -(1/nu) ad(R)  and  Delta_fib R = 1 x ricci,
    both of which are verified exactly on every chart.
    """

    __slots__ = ("n", "rho", "curvature_element", "ricci_form", "ricci_tensor")

    def __init__(self, n, rho, curvature_element, ricci_form, ricci_tensor):
        self.n = n
        self.rho = rho
        self.curvature_element = curvature_element
        self.ricci_form = ricci_form
        self.ricci_tensor = ricci_tensor


def christoffel(chart):
    """Kähler connection coefficients Gamma^m_{kl} = g^{mn} Z_k(g_{ln})."""
    n = chart.n
    zero = ChartExpr.zero(n)
    gamma = [[[zero for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for m in range(n):
        for k in range(n):
            for l in range(n):
                total = zero
                for nn in range(n):
                    total = total + chart.inverse_metric[m][nn] * chart.metric[l][nn].differentiate(k)
                gamma[m][k][l] = total
    gamma_bar = [
        [[gamma[m][k][l].conjugate() for l in range(n)] for k in range(n)]
        for m in range(n)
    ]
    conn = ConnectionData(n, gamma, gamma_bar)
    _validate_connection(chart, conn)
    return conn


def _validate_connection(chart, conn):
    n = chart.n
    for m in range(n):
        for k in range(n):
            for l in range(n):
                if conn.christoffel[m][k][l] != conn.christoffel[m][l][k]:
                    raise ChartError(f"connection is not torsion-free at ({m},{k},{l})")
    # metric compatibility: Z_k g_{ln} = Gamma^m_{kl} g_{mn}
    for k in range(n):
        for l in range(n):
            for nn in range(n):
                lhs = chart.metric[l][nn].differentiate(k)
                rhs = ChartExpr.zero(n)
                for m in range(n):
                    rhs = rhs + conn.christoffel[m][k][l] * chart.metric[m][nn]
                if lhs != rhs:
                    raise ChartError(f"connection is not metric at ({k},{l},{nn})")


def curvature(chart):
    """Curvature element and Ricci form of the chart's connection, checked
    against delta R = 0, nabla R = 0 and Delta_fib R = Ricci form."""
    n = chart.n
    conn = chart.connection
    zero = ChartExpr.zero(n)
    # dgamma[m][i][p][jb] = Zb_jb Gamma^m_{ip}, once for every nb
    dgamma = [[[[gamma.differentiate(n + jb) for jb in range(n)] for gamma in row]
               for row in plane] for plane in conn.christoffel]
    rho = {}
    items = []
    for p in range(n):
        for nb in range(n):
            for i in range(n):
                for jb in range(n):
                    total = zero
                    for m in range(n):
                        total = total + chart.metric[m][nb] * dgamma[m][i][p][jb]
                    total = total.scale(GR_HALF_I)
                    if total.is_zero():
                        continue
                    rho[(p, nb, i, jb)] = total
                    sym = [0] * (2 * n)
                    sym[p] += 1
                    sym[n + nb] += 1
                    items.append((0, tuple(sym), (1 << i) | (1 << (n + jb)), total))
    element = weyl.WeylElement.from_terms(n, items, None)
    # Ricci tensor R_{ij} as the trace of R^m_{pij} = -Zb_j Gamma^m_{ip}
    ricci = {}
    for i in range(n):
        for jb in range(n):
            total = zero
            for m in range(n):
                total = total - dgamma[m][i][m][jb]
            if not total.is_zero():
                ricci[(i, jb)] = total
    ricci_form = TwoForm(
        n, hm={(i, jb): v.scale(GR_MINUS_HALF_I) for (i, jb), v in ricci.items()}
    )
    data = CurvatureData(n, rho, element, ricci_form, ricci)
    _validate_curvature(chart, conn, data)
    return data


def _validate_curvature(chart, conn, curv):
    n = chart.n
    R = curv.curvature_element
    if not weyl.delta(R).is_zero():
        raise ChartError("curvature element fails delta R = 0")
    if not weyl.nabla(R, chart, conn).is_zero():
        raise ChartError("curvature element fails nabla R = 0")
    fib = weyl.delta_fib(R, chart)
    expected = curv.ricci_form.to_weyl()
    if not (fib - expected).is_zero():
        raise ChartError("Delta_fib R does not reproduce the Ricci form")
    if not curv.ricci_form.is_closed():
        raise ChartError("Ricci form is not closed")


def omega_form(chart):
    """The fundamental form (i/2) g_{kl} dz^k ^ dzb^l; closed by construction
    of a valid chart, and re-verified here."""
    n = chart.n
    form = TwoForm(
        n,
        hm={
            (k, l): chart.metric[k][l].scale(GR_HALF_I)
            for k in range(n)
            for l in range(n)
            if not chart.metric[k][l].is_zero()
        },
    )
    if not form.is_closed():
        raise ChartError("fundamental form is not closed")
    return form


def poisson_bracket(chart, f, g):
    """{f, g} = (2/i) g^{kl} (Z_k f Zb_l g - Zb_l f Z_k g)."""
    n = chart.n
    total = ChartExpr.zero(n)
    for k in range(n):
        df_k = f.differentiate(k)
        dg_k = g.differentiate(k)
        for l in range(n):
            term = df_k * g.differentiate(n + l) - f.differentiate(n + l) * dg_k
            if term.is_zero():
                continue
            total = total + chart.inverse_metric[k][l] * term
    return total.scale(GaussianRational(0, -2))


# -- the chart -------------------------------------------------------------------


class Chart:
    """Immutable chart data with lazily derived geometry.

    The derived geometry and the kernels' tables live in the chart's
    geometry entry of the store (`expr._stored`), so charts with equal
    metrics share them and a chart holds none of its own.  The tau cache is on `FedosovData`.
    """

    def __init__(self, n, metric, inverse_metric, factor_base=(),
                 potential_gradient=None, omega_series=None, name=""):
        self.n = n
        self.metric = metric
        self.inverse_metric = inverse_metric
        self.factor_base = interned_base(factor_base)
        self.potential_gradient = potential_gradient
        self.omega_series = omega_series if omega_series is not None else FormSeries.zero(n)
        self.name = name
        # the key of the chart's geometry entry in the store: the dimension
        # and the canonical fields of the metric, the inverse metric and the
        # factor base that the entry's values are held over
        entries = [(e.num, e._mono, e._exps) for row in (*metric, *inverse_metric) for e in row]
        self._key = repr((n, [(p._d, sorted(p._t.items()), m, x) for p, m, x in entries],
                          [(b._d, sorted(b._t.items())) for b in self.factor_base]))

    def _derived(self, name, build=None):
        """The geometry build(chart), or a table created empty, in the store."""
        entry = _stored(self._key)
        if entry is None:
            entry = _stored(self._key, {})
        hit = entry.get(name)
        if hit is None:
            hit = entry.setdefault(name, {} if build is None else build(self))
        return hit

    @property
    def connection(self):
        return self._derived("connection", christoffel)

    @property
    def curvature_data(self):
        return self._derived("curvature", curvature)

    @property
    def omega(self):
        return self._derived("omega", omega_form)

    def is_flat(self):
        n = self.n
        gamma = self.connection.christoffel
        return all(
            gamma[m][k][l].is_zero() for m in range(n) for k in range(n) for l in range(n)
        ) and all(
            self.metric[k][l].is_constant() for k in range(n) for l in range(n)
        )

    def with_omega(self, omega_series):
        """A copy of the chart with a different two-form series; the metric
        is unchanged, so it reads the same geometry entry."""
        return Chart(self.n, self.metric, self.inverse_metric, self.factor_base,
                     self.potential_gradient, omega_series, self.name)

    def validate(self):
        n = self.n
        for k in range(n):
            for l in range(n):
                if self.metric[k][l].conjugate() != self.metric[l][k]:
                    raise ChartError(f"metric is not Hermitian at ({k},{l})")
        for k in range(n):
            for m in range(n):
                total = ChartExpr.zero(n)
                for l in range(n):
                    total = total + self.inverse_metric[k][l] * self.metric[m][l]
                expected = ChartExpr.one(n) if k == m else ChartExpr.zero(n)
                if total != expected:
                    raise ChartError(f"inverse metric mismatch at ({k},{m})")
        for power, form in self.omega_series.items():
            if power < 1:
                raise ChartError("two-form series must start at nu^1")
            if not form.is_closed():
                raise ChartError(f"two-form at nu^{power} is not closed")
        if self.potential_gradient is not None:
            grads = self.potential_gradient
            if len(grads) != n:
                raise ChartError("potential gradient needs one entry per holomorphic coordinate")
            for k in range(n):
                for l in range(n):
                    if grads[k].differentiate(n + l) != self.metric[k][l].scale(GR_HALF_I):
                        raise ChartError(
                            f"potential gradient fails Zb_{l+1} u_{k+1} = (i/2) g_{{{k+1}{l+1}}}"
                        )
            for k in range(n):
                for l in range(k + 1, n):
                    if grads[l].differentiate(k) != grads[k].differentiate(l):
                        raise ChartError("potential gradient is not a gradient (mixed derivatives differ)")
        return self


# -- chart documents ----------------------------------------------------------------

_SHAPES = {list: "a list", dict: "an object", str: "a string"}


def _expect(value, shape, what):
    """`value` if it has the JSON shape `shape`; a ChartError otherwise."""
    if not isinstance(value, shape):
        raise ChartError(f"{what} must be {_SHAPES[shape]}")
    return value


def _is_integer(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_text(text, n, base, what):
    """A chart expression over the factor base; the parser refuses a
    denominator that does not factor over the base and the coordinates."""
    text = _expect(text, str, what)
    try:
        return parse(text, n, base)
    except ExprError as exc:
        raise ChartError(f"bad expression in chart document: {what} {text!r}: {exc}") from exc


def _parse_form_component_key(key, n):
    """The two symbol indices of a component key such as `dz1^dzb2`."""
    parts = key.split("^")
    if len(parts) != 2:
        raise ChartError(f"malformed form component {key!r}")

    def classify(token):
        token = token.strip()
        if token.startswith("dzb"):
            idx, offset = token[3:], n
        elif token.startswith("dz"):
            idx, offset = token[2:], 0
        else:
            raise ChartError(f"malformed form symbol {token!r}")
        if not idx.isdigit() or not 1 <= int(idx) <= n:
            raise ChartError(f"form symbol {token!r} out of range")
        return offset + int(idx) - 1

    return classify(parts[0]), classify(parts[1])


def _parse_two_form(doc, n, base, omega=None):
    """A two-form from either an `omega` reference or explicit components."""
    if isinstance(doc, str):
        text = doc.strip()
        if text == "omega":
            scalar = GaussianRational(1)
        elif text.endswith("*omega"):
            scalar_expr = _parse_text(text[: -len("*omega")].rstrip(" *"), n, base, "omega scale")
            if not scalar_expr.is_constant():
                raise ChartError("omega may only be scaled by constants")
            scalar = scalar_expr.constant_value()
        else:
            raise ChartError(f"unrecognized form spec {text!r}")
        if omega is None:
            raise ChartError("omega reference without a metric")
        return omega.scale(scalar)
    if not isinstance(doc, dict):
        raise ChartError("form spec must be a string or an object")
    items = []
    for key, text in doc.items():
        j1, j2 = _parse_form_component_key(key, n)
        coeff = _parse_text(text, n, base, f"form component {key!r}")
        if coeff.is_zero():
            continue
        if j1 == j2:
            raise ChartError(f"repeated symbol in {key!r}")
        if j1 >= n > j2:
            raise ChartError(f"component {key!r} must be ordered dz before dzb")
        mask, sign = weyl._wedge(1 << j1, 1 << j2)
        items.append((mask, _signed(coeff, sign)))
    return Form._summed(n, items)


def load_chart(source):
    """Load and fully validate a chart document (path, JSON text, or dict)."""
    if isinstance(source, dict):
        doc = source
        name = doc.get("name", "")
    else:
        text = source
        name = ""
        try:
            if "\n" not in str(source) and str(source).endswith(".json"):
                with open(source) as fh:
                    text = fh.read()
                name = str(source)
        except (OSError, UnicodeDecodeError) as exc:
            raise ChartError(f"cannot read chart file: {exc}") from exc
        try:
            doc = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ChartError(f"chart document is not valid JSON: {exc}") from exc
        name = _expect(doc, dict, "a chart document").get("name", name)
    name = _expect(name, str, "`name`")

    n = doc.get("dimension")
    if not _is_integer(n):
        raise ChartError("chart document needs an integer `dimension`")
    if n < 1:
        raise ChartError("dimension must be positive")

    for field in ("metric", "inverse_metric"):
        if field not in doc:
            raise ChartError(f"chart document is missing `{field}`")

    def matrix_texts(field):
        """The entries of `field` as n rows of n, checked for shape only."""
        rows = _expect(doc[field], list, f"`{field}`")
        if rows and isinstance(rows[0], str):
            if len(rows) != n * n:
                raise ChartError(f"`{field}` must hold n*n entries (row-major)")
            return [rows[i * n : (i + 1) * n] for i in range(n)]
        if len(rows) != n:
            raise ChartError(f"`{field}` must be an n x n matrix (row-major)")
        for row in rows:
            if len(_expect(row, list, f"`{field}` rows")) != n:
                raise ChartError(f"`{field}` must be an n x n matrix (row-major)")
        return rows

    # the shapes are checked before any entry is parsed: parsing works in
    # 2n variables, so a small document with a huge `dimension` fails here
    metric_texts = matrix_texts("metric")
    inverse_texts = matrix_texts("inverse_metric")
    gradient_texts = doc.get("potential_gradient")
    if gradient_texts is not None:
        if len(_expect(gradient_texts, list, "`potential_gradient`")) != n:
            raise ChartError("potential gradient needs one entry per holomorphic coordinate")
    if n > MAX_DIMENSION:
        raise ChartError(f"dimension {n} is above the largest supported, {MAX_DIMENSION}")

    base = []
    for text in _expect(doc.get("factor_base", []), list, "`factor_base`"):
        poly_expr = _parse_text(text, n, (), "factor base entries")
        if not poly_expr.is_polynomial():
            raise ChartError(f"factor base entry {text!r} is not a polynomial")
        poly = poly_expr.num
        if poly.is_constant():
            raise ChartError(f"factor base entry {text!r} is constant")
        base.append(poly)
    try:
        base = interned_base(base)
    except ExprError as exc:
        raise ChartError(str(exc)) from exc
    # conjugation must stay inside the base
    for entry in base:
        conj = entry.conjugate()
        if not any((q := conj.exact_div(b)) is not None and q.is_constant() for b in base):
            raise ChartError(
                f"factor base entry {entry.render()!r} needs its conjugate {conj.render()!r} in the base"
            )

    def parsed(rows, field):
        return [[_parse_text(t, n, base, f"`{field}` entries") for t in row] for row in rows]

    metric = parsed(metric_texts, "metric")
    inverse = parsed(inverse_texts, "inverse_metric")
    gradient = None
    if gradient_texts is not None:
        gradient = tuple(_parse_text(t, n, base, "`potential_gradient` entries")
                         for t in gradient_texts)

    chart = Chart(n, metric, inverse, base, gradient, None, name=name)
    if doc.get("omega_series"):
        omega = omega_form(chart)
        entries = []
        for entry in _expect(doc["omega_series"], list, "`omega_series`"):
            power = _expect(entry, dict, "omega_series entries").get("nu_power")
            if not _is_integer(power):
                raise ChartError("omega_series entries need an integer `nu_power`")
            if "form" not in entry:
                raise ChartError("omega_series entries need a `form`")
            entries.append((power, _parse_two_form(entry["form"], n, base, omega)))
        chart.omega_series = FormSeries(n, entries)
    chart.validate()
    return chart
