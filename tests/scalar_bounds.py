"""Scalar reference formulas: each bound's right-hand side for one
functional ``L`` and one pair ``(f, g)``, written out apart from the
program's bound table :data:`grusslab.bounds.BOUNDS`.

The tests compare the table with these; the program itself reads only the
table.
"""

from __future__ import annotations

import math

import numpy as np

from grusslab import operators as ops
from grusslab import special
from grusslab.bounds import BoundResult
from grusslab.funcspace import (DEFAULT_GRID, NodeSet, RealFunction, cached_envelope,
                                oscillation, range_on_grid, uniform_grid)
from grusslab.lagrange import (chebyshev_grid, lagrange_basis, lebesgue_constant,
                               pair_product_sum)
from grusslab.operators import PointFunctional, chebyshev_T, mixed_measure_T


def node_set(L: PointFunctional) -> NodeSet:
    """The functional's nodes, sorted."""
    return NodeSet(np.sort(L.nodes))


def sum_squares(L: PointFunctional) -> float:
    return float(np.dot(L.weights, L.weights))


def sum_abs(L: PointFunctional) -> float:
    return float(np.sum(np.abs(L.weights)))


def gruss_quarter(m: float, M: float, p: float, P: float) -> float:
    """(M - m)(P - p)/4 for value ranges m <= f <= M, p <= g <= P."""
    return 0.25 * (M - m) * (P - p)


def mercer_bound(L: PointFunctional, f: RealFunction, g: RealFunction,
                 ranges: tuple[tuple[float, float], tuple[float, float]]) -> float:
    """min((M-m) L|g-G|, (P-p) L|f-F|)/2 with F = Lf, G = Lg; positive L only."""
    (m, M), (p, P) = ranges
    if m > M or p > P:
        raise ValueError("need m <= M and p <= P")
    fv = f.values(L.nodes)
    gv = g.values(L.nodes)
    w = L.weights
    F = float(w @ fv)
    G = float(w @ gv)
    dev_f = float(w @ np.abs(fv - F))
    dev_g = float(w @ np.abs(gv - G))
    return 0.5 * min((M - m) * dev_g, (P - p) * dev_f)


def classical_ws_bound(family: str, n: int, x: float, f: RealFunction,
                       g: RealFunction) -> float:
    """Least-concave-majorant bound (1/4) w~(f; 2 sqrt(M2)) w~(g; 2 sqrt(M2))
    for a family with a closed-form second moment."""
    m2 = special.second_moment(family, n, x)
    s = 2.0 * math.sqrt(m2)
    wf = cached_envelope(f, DEFAULT_GRID).hull_value(s)
    wg = cached_envelope(g, DEFAULT_GRID).hull_value(s)
    return 0.25 * wf * wg


def classical_ws_uniform(family: str, n: int, f: RealFunction,
                         g: RealFunction) -> float:
    """x-free majorant of the classical bound: step 1/sqrt(n) resp. 1/n."""
    if family == "bernstein":
        s = 1.0 / math.sqrt(n)
    elif family == "sdelta":
        s = 1.0 / n
    else:
        raise ValueError(f"no x-free classical form stated for family {family!r}")
    wf = cached_envelope(f, DEFAULT_GRID).hull_value(s)
    wg = cached_envelope(g, DEFAULT_GRID).hull_value(s)
    return 0.25 * wf * wg


def new_bound_positive(L: PointFunctional, f: RealFunction, g: RealFunction) -> float:
    """(1 - sum w^2)/2 * osc(f) * osc(g) over the functional's nodes."""
    if not L.positive:
        raise ValueError("use new_bound_signed for signed functionals")
    coef = 0.5 * (1.0 - sum_squares(L))
    nodes = node_set(L)
    return coef * oscillation(f, nodes) * oscillation(g, nodes)


def new_bound_signed(L: PointFunctional, f: RealFunction, g: RealFunction) -> float:
    """osc(f) * osc(g) * sum_{k<l} |w_k w_l|, via ((sum|w|)^2 - sum w^2)/2."""
    coef = 0.5 * (sum_abs(L) ** 2 - sum_squares(L))
    nodes = node_set(L)
    return coef * oscillation(f, nodes) * oscillation(g, nodes)


def specialized_rhs(family: str, n: int, x: float | None = None) -> float:
    """Per-family closed-form coefficient multiplying osc(f) * osc(g): the
    record's value at x where it states one, else its x-free one."""
    fam = ops.FAMILY.get(family)
    if fam is None or fam.coef is None:
        raise ValueError(f"no specialized oscillation coefficient for {family!r}")
    return fam.coef(n) if x is None or fam.coef_at is None else fam.coef_at(n, x)


def node_ranges(L: PointFunctional, f: RealFunction, g: RealFunction):
    """Value ranges of f and g over what the functional reads."""
    nodes = node_set(L)
    return range_on_grid(f, nodes), range_on_grid(g, nodes)


def lagrange_new_bound(n: int, f: RealFunction, g: RealFunction, x: float) -> BoundResult:
    """Signed-functional oscillation bound |T| <= osc(f) osc(g) sum |l_k l_m|."""
    L = lagrange_basis(n, x)
    nodes = NodeSet(chebyshev_grid(n).nodes)
    lhs = abs(chebyshev_T(L, f, g))
    rhs = oscillation(f, nodes) * oscillation(g, nodes) * pair_product_sum(n, x)
    return BoundResult(operator=f"lagrange_cheb:{n}", n=n, x=x,
                       f=f.name, g=g.name, lhs=lhs, rhs={"new_osc": rhs})


def lagrange_classical_bound(n: int, f: RealFunction,
                             g: RealFunction) -> dict[str, float]:
    """The x-free norm-form bound (1/4) ||L_n|| (1 + ||L_n||) w~(f;2) w~(g;2)
    and its (2/pi^2) and (2/pi) log^2 majorants."""
    wf = cached_envelope(f, DEFAULT_GRID).hull_value(2.0)
    wg = cached_envelope(g, DEFAULT_GRID).hull_value(2.0)
    lam = lebesgue_constant(n)
    ln = math.log(n)
    return {
        "classical_norm": 0.25 * lam * (1.0 + lam) * wf * wg,
        "classical_log": 0.5 * (1.0 + (3.0 / math.pi) * ln
                                + (2.0 / math.pi ** 2) * ln * ln) * wf * wg,
        "classical_log_stated": 0.5 * (1.0 + (3.0 / math.pi) * ln
                                       + (2.0 / math.pi) * ln * ln) * wf * wg,
    }


def measure_example_T(a: float, f: RealFunction, g: RealFunction) -> tuple[float, float]:
    """T and the oscillation bound a(2-a)/2 osc(f) osc(g) for
    a*Lebesgue + (1-a)*delta_{1/2}, the oscillations over the global grid
    (the product measure charges all of [0,1]^2 whenever a > 0)."""
    t_val = float(mixed_measure_T(np.array([a]), (f, g))[0, 0, 1])
    grid = uniform_grid(0.0, 1.0)
    return t_val, 0.5 * a * (2.0 - a) * oscillation(f, grid) * oscillation(g, grid)
