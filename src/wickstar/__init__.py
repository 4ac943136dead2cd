"""Exact Fedosov star products of Weyl, Wick and anti-Wick type on
pseudo-Kähler coordinate charts, with mechanical verification of their
structural properties at finite order in the formal parameter."""

from .chart import (
    Chart,
    ChartError,
    Form,
    FormSeries,
    OneForm,
    TwoForm,
    christoffel,
    curvature,
    load_chart,
    omega_form,
    poisson_bracket,
)
from .expr import (
    ChartExpr,
    ChartPolynomial,
    ExprError,
    GaussianRational,
    ParseError,
    parse,
)
from .fedosov import (
    ContractViolation,
    FedosovData,
    FedosovError,
    Report,
    closed_form_flat,
    compute_r_via_fixed_point,
    equivalence_A_h,
    fedosov_D,
    fixed_point,
    hermitian_check,
    karabegov_form,
    parity_transport,
    projected_tau,
    renormalize_s,
    separation_product,
    star,
    star_series,
    star_via_projections,
    tau,
    vey_order_check,
    weyl_transport,
    weyl_transport_map,
    wick_type_check,
)
from .weyl import NuSeries, WeylElement

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
