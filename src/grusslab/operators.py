"""Point functionals for the operator families and the Chebyshev functional.

Every family is realized as a :class:`PointFunctional`: the nodes the
functional reads plus the weights it attaches to them at an evaluation point,
both given by the family's one record in :data:`FAMILY`.
Infinite families (Szasz, Baskakov) are truncated at a declared tail mass
and their window weights divided by their sum, so every reader gets the same
positive normalized functional; the tail mass is reported, not gated.
Weights are built by multiplicative ratio recurrences seeded at the
distribution mode, which stays in range where a plain start at k=0 would
underflow (e.g. exp(-nx) for nx beyond ~745).
"""

from __future__ import annotations

import bisect
import functools
import importlib
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .funcspace import (NodeSet, RealFunction, check_inside, oscillation,
                        uniform_grid)

__all__ = [
    "PointFunctional",
    "OperatorSpec",
    "Family",
    "FAMILY",
    "FAMILIES",
    "TAIL_EPS",
    "QUAD_N",
    "point_functional",
    "degree_coefficient",
    "bernstein_at",
    "sdelta_at",
    "szasz_at",
    "baskakov_at",
    "bbh_at",
    "r_star",
    "king_at",
    "two_point",
    "measure_example_T",
    "apply",
    "chebyshev_T",
    "PairForm",
    "pairwise_identity",
    "parse_operator_spec",
    "log_gamma",
]

_SUM_TOL = 1e-10
_NEG_TOL = 1e-12

#: the tail mass a truncated functional may leave out, unless a caller sets one
TAIL_EPS = 1e-12

#: composite Simpson panels of the mixed-measure example
QUAD_N = 2048


@dataclass(frozen=True)
class PointFunctional:
    """Nodes and weights of a normalized discrete functional.

    Invariants checked at construction: nodes distinct, weights aligned,
    |sum(weights) - 1| within tail_mass_bound plus rounding, and nonnegative
    weights whenever ``positive`` is set.
    """

    nodes: np.ndarray
    weights: np.ndarray
    positive: bool
    tail_mass_bound: float = 0.0

    def __post_init__(self):
        nodes = np.atleast_1d(np.asarray(self.nodes, dtype=float)).copy()
        weights = np.atleast_1d(np.asarray(self.weights, dtype=float)).copy()
        if nodes.shape != weights.shape or nodes.ndim != 1 or nodes.size == 0:
            raise ValueError("nodes and weights must be matching nonempty 1-d arrays")
        if nodes.size > 1 and np.min(np.diff(np.sort(nodes))) <= 0.0:
            raise ValueError("functional nodes must be distinct")
        total = float(np.sum(weights))
        if abs(total - 1.0) > self.tail_mass_bound + _SUM_TOL:
            raise ValueError(
                f"weights sum to {total!r}, outside 1 +/- {self.tail_mass_bound + _SUM_TOL}"
            )
        if self.positive and float(np.min(weights)) < -_NEG_TOL:
            raise ValueError("positive functional with a negative weight")
        nodes.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def node_set(self) -> NodeSet:
        order = np.argsort(self.nodes)
        return NodeSet(self.nodes[order])

    def sum_squares(self) -> float:
        return float(np.dot(self.weights, self.weights))

    def sum_abs(self) -> float:
        return float(np.sum(np.abs(self.weights)))


@dataclass(frozen=True)
class OperatorSpec:
    """CLI-expressible operator description ``family:n[:param]``."""

    family: str
    n: int = 1
    param: float | None = None

    def __post_init__(self):
        fam = FAMILY.get(self.family)
        if fam is None:
            raise ValueError(f"unknown operator family {self.family!r}")
        if self.n < 1:
            raise ValueError("degree n must be >= 1")
        if fam.one_point:
            if self.n != 1:
                raise ValueError(f"{self.family} has no degree, got n = {self.n}")
            if self.param is None or not 0.0 <= self.param <= 1.0:
                raise ValueError(f"{self.family} requires a parameter a in [0, 1]")
        elif self.param is not None:
            raise ValueError(f"{self.family} takes no parameter, got {self.param:g}")

    def spec_string(self) -> str:
        if self.param is None:
            return f"{self.family}:{self.n}"
        return f"{self.family}:{self.n}:{self.param:g}"


def parse_operator_spec(text: str) -> OperatorSpec:
    parts = text.split(":")
    if not 1 <= len(parts) <= 3:
        raise ValueError(f"cannot parse operator spec {text!r}")
    family = parts[0]
    n = int(parts[1]) if len(parts) > 1 and parts[1] else 1
    param = float(parts[2]) if len(parts) > 2 else None
    return OperatorSpec(family=family, n=n, param=param)


# ---------------------------------------------------------------------------
# log gamma at integers
#
# Cephes' lgam (the routine behind scipy.special.gammaln) at integer a >= 1,
# written out: log (a - 1)! below 13, Stirling's series above, its correction
# term a polynomial in 1/a^2 over a below 1000, three terms up to 1e8 and none
# beyond.  The scalar path gives cephes' bits; the array path differs from
# them only where numpy's vector log does, by at most 2 ulp.

#: log (a - 1)! at index a = 1..12; index 0 is NaN, never a plausible value
_LOG_FACTORIAL = np.array([math.nan] + [math.log(math.factorial(k))
                                        for k in range(12)])
_LS2PI = 0.91893853320467274178          # log sqrt(2 pi)
_STIRLING_POLY = (8.11614167470508450300e-4, -5.95061904284301438324e-4,
                  7.93650340457716943945e-4, -2.77777777730099687205e-3,
                  8.33333333333331927722e-2)
_STIRLING_SHORT = (7.9365079365079365079365e-4, -2.7777777777777777777778e-3,
                   0.0833333333333333333333)
#: an integer a falls in branch k = bisect_right(_EDGES, a), _EDGES[k - 1] <=
#: a < _EDGES[k]: 1 the table, 2 the polynomial, 3 the three terms, 4 none
#: (a > 1e8 is a >= 1e8 + 1); 0 (a < 1) and 5 (inf, NaN) lie outside
_EDGES = (1.0, 13.0, 1000.0, 1e8 + 1.0, math.inf)
_CHUNK = 1 << 14                         # elements per pass, kept in cache


def log_gamma(a):
    """log Gamma(a) for integer-valued a >= 1, a scalar or an array."""
    if isinstance(a, np.ndarray) and a.ndim:
        return _log_gamma_array(a)
    x = float(a)
    if not (x >= 1.0 and x.is_integer()):
        raise ValueError(f"log_gamma needs an integer a >= 1, got {a!r}")
    if x < 13.0:
        return float(_LOG_FACTORIAL[int(x)])
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        c0, c1, c2 = _STIRLING_SHORT
        return q + ((c0 * p + c1) * p + c2) / x
    c0, c1, c2, c3, c4 = _STIRLING_POLY
    return q + ((((c0 * p + c1) * p + c2) * p + c3) * p + c4) / x


def _log_gamma_array(a: np.ndarray) -> np.ndarray:
    """Over chunks of a that stay in cache; a chunk that spans branches
    evaluates each branch over its own elements only."""
    x = np.asarray(a, dtype=float)
    out = np.empty(x.shape)
    xf, of = x.reshape(-1), out.reshape(-1)
    for i in range(0, xf.size, _CHUNK):
        xc, oc = xf[i:i + _CHUNK], of[i:i + _CHUNK]
        first = bisect.bisect_right(_EDGES, xc.min())
        last = bisect.bisect_right(_EDGES, xc.max())
        if first == 0 or last == 5 or not (np.floor(xc) == xc).all():
            raise ValueError("log_gamma needs integers a >= 1")
        if first == last:
            _log_gamma_branch(xc, first, oc)
            continue
        for k in range(first, last + 1):
            mask = (xc >= _EDGES[k - 1]) & (xc < _EDGES[k])
            oc[mask] = _log_gamma_branch(xc[mask], k)
    return out


def _log_gamma_branch(x: np.ndarray, branch: int,
                      out: np.ndarray | None = None) -> np.ndarray:
    """One branch at every element of x, in cephes' order of operations."""
    if branch == 1:
        return np.take(_LOG_FACTORIAL, x.astype(np.intp), out=out)
    q = np.log(x, out=out)
    t = np.subtract(x, 0.5)
    q *= t
    q -= x
    q += _LS2PI
    if branch < 4:
        coef = _STIRLING_POLY if branch == 2 else _STIRLING_SHORT
        p = np.multiply(x, x, out=t)
        np.divide(1.0, p, out=p)
        r = coef[0] * p
        for c in coef[1:-1]:
            r += c
            r *= p
        r += coef[-1]
        r /= x
        q += r
    return q


# ---------------------------------------------------------------------------
# weight builders


def _binomial_weights(n: int, p: float) -> np.ndarray:
    """Binomial(n, p) masses by symmetric multiplicative ratio recurrence."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("binomial parameter must lie in [0, 1]")
    w = np.zeros(n + 1)
    if p == 0.0:
        w[0] = 1.0
        return w
    if p == 1.0:
        w[n] = 1.0
        return w
    if p <= 0.5:
        q = 1.0 - p
        ratios = (p / q) * (n - np.arange(n)) / np.arange(1.0, n + 1)
        w = q ** n * np.concatenate(([1.0], np.cumprod(ratios)))
    else:
        w = _binomial_weights(n, 1.0 - p)[::-1].copy()
    return w


def _mode_seeded_weights(log_w_mode: float, mode: int, kmax: int,
                         up_ratio, down_ratio) -> np.ndarray:
    """Masses for k = 0..kmax from the mode outward via ratio products."""
    wm = math.exp(log_w_mode)
    parts = [np.array([wm])]
    if mode > 0:
        down = wm * np.cumprod(down_ratio(np.arange(mode, 0, -1.0)))
        parts.insert(0, down[::-1])
    if kmax > mode:
        up = wm * np.cumprod(up_ratio(np.arange(float(mode), float(kmax))))
        parts.append(up)
    return np.concatenate(parts)


_KCAP = 5_000_000


def _truncate(w: np.ndarray, tail_eps: float, up_ratio) -> tuple[np.ndarray, float]:
    """Cut at the first index whose remaining mass is below tail_eps.

    If the initial window does not yet accumulate 1 - tail_eps (slowly
    decaying tails, e.g. nearly geometric weights), it is grown by continuing
    the upward ratio recurrence.  The mode weight, an exp of a difference of
    log-gammas, and long recurrences can leave a rounding deficit of order
    1e-11 that no amount of true tail can close; extension stops once the
    gained mass no longer closes the gap, and is not begun when the tail's
    geometric bound w[-1] r/(1 - r), r the (nonincreasing) up ratio at the
    last index, is below a quarter ulp of the window's mass: such a tail
    cannot move it.  The window is then cut where the computed mass left
    over drops below tail_eps, and the achieved deficit is reported as the
    tail bound.
    """
    c = np.cumsum(w)
    while 1.0 - c[-1] > tail_eps:
        if w.size > _KCAP:
            raise ArithmeticError("truncation window exceeded the hard cap")
        start = float(w.size - 1)
        r = float(up_ratio(np.array([start]))[0])
        if r < 1.0 and w[-1] * r / (1.0 - r) < 0.25 * np.spacing(c[-1]):
            break
        chunk = w.size // 2 + 64
        ext = w[-1] * np.cumprod(up_ratio(np.arange(start, start + chunk)))
        gain = float(np.sum(ext))
        if not np.isfinite(gain) or gain <= 0.0:
            break
        w = np.concatenate([w, ext])
        c = np.concatenate([c, c[-1] + np.cumsum(ext)])
        if 1.0 - c[-1] > tail_eps and gain < 0.25 * (1.0 - c[-1]):
            break
    top = c[-1] if 1.0 - c[-1] > tail_eps else 1.0
    k = int(np.searchsorted(c, top - tail_eps))
    k = min(k, w.size - 1)
    tail = max(tail_eps, 1.0 - float(c[k]))
    return w[: k + 1], tail


def _poisson_weights(lam: float, tail_eps: float) -> tuple[np.ndarray, float]:
    if lam <= 0.0:
        return np.array([1.0]), 0.0
    kmax = int(lam + 12.0 * math.sqrt(lam) + 50.0)
    mode = min(int(lam), kmax)
    log_wm = -lam + mode * math.log(lam) - math.lgamma(mode + 1)
    up_ratio = lambda k: lam / (k + 1.0)         # w_{k+1} = w_k * lam/(k+1)
    w = _mode_seeded_weights(
        log_wm, mode, kmax,
        up_ratio=up_ratio,
        down_ratio=lambda k: k / lam,            # w_{k-1} = w_k * k/lam
    )
    return _truncate(w, tail_eps, up_ratio)


def _negbin_weights(n: int, x: float, tail_eps: float) -> tuple[np.ndarray, float]:
    if x <= 0.0:
        return np.array([1.0]), 0.0
    p = x / (1.0 + x)
    mean = n * x
    kmax = int(mean + 15.0 * math.sqrt(mean * (1.0 + x)) + 60.0)
    mode = min(int((n - 1) * x), kmax) if n > 1 else 0
    log_wm = (log_gamma(n + mode) - log_gamma(mode + 1) - log_gamma(n)
              + mode * math.log(p) - n * math.log1p(x))
    up_ratio = lambda k: p * (n + k) / (k + 1.0)
    w = _mode_seeded_weights(
        log_wm, mode, kmax,
        up_ratio=up_ratio,
        down_ratio=lambda k: k / (p * (n + k - 1.0)),
    )
    return _truncate(w, tail_eps, up_ratio)


# ---------------------------------------------------------------------------
# the family table


def _sdelta_cell(n: int, x: float) -> tuple[int, float]:
    """Knot cell and local coordinate for piecewise-linear interpolation.

    Returns (k, u) with x = (k + u)/n, u in [0, 1); u snaps to the nearest
    knot when n*x sits within a few ulps of an integer so that knot hits stay
    exact interpolation.
    """
    m = n * x
    k = int(math.floor(m))
    u = m - k
    snap = 32.0 * np.finfo(float).eps * max(1.0, abs(m))
    if u <= snap and k >= 0:
        return k, 0.0
    if 1.0 - u <= snap:
        return k + 1, 0.0
    return k, u


def r_star(n: int, x: float) -> float:
    """Reparameterization making the Bernstein-type family reproduce e2."""
    _check_degree(n)
    if not 0.0 <= x <= 1.0:
        raise ValueError("r_star requires x in [0, 1]")
    if n == 1:
        r = x * x
    else:
        c = 1.0 / (2.0 * (n - 1.0))
        r = -c + math.sqrt((n / (n - 1.0)) * x * x + c * c)
    r = min(max(r, 0.0), 1.0)
    residual = r / n + ((n - 1.0) / n) * r * r - x * x
    if abs(residual) > 1e-12:
        raise ArithmeticError(f"r_star residual {residual} at n={n}, x={x}")
    return r


@dataclass(frozen=True)
class Family:
    """One operator family: where it is evaluated, what it reads, and how.

    ``nodes(n)`` is the node array at degree n, or None where the nodes are
    k/n over a window cut at a declared tail mass.  ``weights(n, x,
    tail_eps)`` returns ``(w, tail, span)``: the weights at x, the tail mass
    they leave out, and the index range [lo, hi) of the node array that ``w``
    covers when it covers only part of it (None: every node).  A truncated
    family's window weights come divided by their sum; ``tail`` is the mass
    of the untruncated operator that the window left out.  ``signed`` weights
    may be negative.  A ``one_point`` family takes a parameter a in [0, 1] in
    place of x, has no degree (n = 1) and makes one sweep block.  A family
    without weights (the mixed measure) has no point form.

    The bound table reads closed forms, None where none is stated: ``coef(n)``
    majorizes (1 - sum w^2)/2 at every x, ``coef_at(n, x)`` at x where that
    depends on x; ``second_moment(n, x)`` is L((e1 - x)^2); ``ws_step(n)``,
    the classical x-free step, is at least 2 sqrt(second_moment) at every x.
    """

    domain: tuple[float, float]
    nodes: Callable[[int], np.ndarray] | None = None
    weights: Callable[[int, float, float], tuple] | None = None
    signed: bool = False
    one_point: bool = False
    coef: Callable[[int], float] | None = None
    coef_at: Callable[[int, float], float] | None = None
    second_moment: Callable[[int, float], float] | None = None
    ws_step: Callable[[int], float] | None = None

    @property
    def truncated(self) -> bool:
        return self.nodes is None and self.weights is not None

    def check_point(self, name: str, x) -> None:
        """Reject x, a point or an array of points, unless every point is
        finite and inside the domain; ``name`` is this family's."""
        lo, hi = self.domain
        if not np.all(np.isfinite(x) & (x >= lo) & (x <= hi)):
            raise ValueError(f"{name} requires x in [{lo:g}, {hi:g}]")


def degree_coefficient(n: int) -> float:
    """The degree-only majorant n/(2(n+1)) of the pointwise coefficient."""
    return n / (2.0 * (n + 1.0))


def _unit_nodes(n: int) -> np.ndarray:
    return np.arange(n + 1) / n


def _hat_weights(n: int, x: float, _tail_eps: float):
    """sdelta masses on the one knot x hits, or on the two knots around x."""
    k, u = _sdelta_cell(n, x)
    if u == 0.0:
        return np.array([1.0]), 0.0, (k, k + 1)
    return np.array([1.0 - u, u]), 0.0, (k, k + 2)


def _window(w: np.ndarray, tail: float):
    """A truncated window as a normalized functional: w divided by its sum."""
    return w / np.sum(w), tail, (0, w.size)


def _late(module: str):
    """A sibling module, reached at call time: it imports this one."""
    return importlib.import_module(f"{__package__}.{module}")


def _binomial_coef(n: int) -> float:
    """(1 - phi_n(1/2))/2, phi_n's minimum being at the half point."""
    return 0.5 * (1.0 - _late("special").central_binom_scaled(n))


def _negbin_coef(n: int, x: float) -> float:
    """(1 - theta_n(x))/2, theta_n the sum of squared Baskakov weights at x."""
    return 0.5 * (1.0 - _late("special").theta_baskakov(n, x))


def _hat_moment(n: int, x: float) -> float:
    """u(1 - u)/n^2 at x = (k + u)/n."""
    _, u = _sdelta_cell(n, x)
    return u * (1.0 - u) / (n * n)


_UNIT, _RAY = (0.0, 1.0), (0.0, math.inf)

#: every operator family, in the sweep's block order.  The weight builders and
#: special functions are looked up when called, so that a profiler can wrap
#: them in their modules
FAMILY = {
    "bernstein": Family(_UNIT, _unit_nodes,
                        lambda n, x, _eps: (_binomial_weights(n, x), 0.0, None),
                        coef=_binomial_coef,
                        second_moment=lambda n, x: x * (1.0 - x) / n,
                        ws_step=lambda n: 1.0 / math.sqrt(n)),
    "sdelta": Family(_UNIT, _unit_nodes, _hat_weights, coef=lambda _n: 0.25,
                     second_moment=_hat_moment, ws_step=lambda n: 1.0 / n),
    "king": Family(_UNIT, _unit_nodes,
                   lambda n, x, _eps: (_binomial_weights(n, r_star(n, x)), 0.0, None),
                   coef=degree_coefficient,
                   second_moment=lambda n, x: max(0.0, 2.0 * x * (x - r_star(n, x)))),
    "two_point": Family(_UNIT, lambda _n: np.array([0.0, 1.0]),
                        lambda _n, a, _eps: (np.array([1.0 - a, a]), 0.0, None),
                        one_point=True),
    "measure_example": Family(_UNIT, one_point=True),
    "szasz": Family(_RAY, None,
                    lambda n, x, eps: _window(*_poisson_weights(n * x, eps)),
                    coef=lambda _n: 0.5),
    "baskakov": Family(_RAY, None,
                       lambda n, x, eps: _window(*_negbin_weights(n, x, eps)),
                       coef=lambda _n: 0.5,
                       coef_at=_negbin_coef),
    "bbh": Family(_RAY, lambda n: np.arange(n + 1) / (n + 1.0 - np.arange(n + 1)),
                  lambda n, x, _eps: (_binomial_weights(n, x / (1.0 + x)), 0.0, None),
                  coef=_binomial_coef),
    "lagrange_cheb": Family((-1.0, 1.0),
                            lambda n: _late("lagrange").chebyshev_grid(n).nodes,
                            lambda n, x, _eps: (_late("lagrange").basis_weights(n, x),
                                                0.0, None),
                            signed=True),
}

#: the shipped families' names; the program reads FAMILY when it is called
FAMILIES = tuple(FAMILY)


def point_functional(family: str, n: int, x: float,
                     tail_eps: float = TAIL_EPS) -> PointFunctional:
    """The functional of ``family`` at degree n and point x (the parameter a
    of a one-point family)."""
    fam = FAMILY.get(family)
    if fam is None or fam.weights is None:
        raise ValueError(f"{family} has no point-functional form")
    _check_degree(n)
    fam.check_point(family, x)
    if tail_eps <= 0.0:
        raise ValueError("tail_eps must be positive")
    w, tail, span = fam.weights(n, x, tail_eps)
    nodes = np.arange(w.size) / n if fam.truncated else fam.nodes(n)
    if span is not None:
        nodes = nodes[span[0]:span[1]]
    positive = not fam.signed or bool(np.min(w) >= -1e-15)
    return PointFunctional(nodes, w, positive=positive, tail_mass_bound=tail)


def bernstein_at(n: int, x: float) -> PointFunctional:
    """Bernstein basis masses at x: nodes k/n, weights C(n,k) x^k (1-x)^(n-k)."""
    return point_functional("bernstein", n, x)


def sdelta_at(n: int, x: float) -> PointFunctional:
    """Hat-function masses of piecewise-linear interpolation at equidistant knots."""
    return point_functional("sdelta", n, x)


def szasz_at(n: int, x: float, tail_eps: float = TAIL_EPS) -> PointFunctional:
    """Poisson masses exp(-nx) (nx)^k / k! at nodes k/n, over the window that
    leaves out at most tail_eps, divided by their sum."""
    return point_functional("szasz", n, x, tail_eps)


def baskakov_at(n: int, x: float, tail_eps: float = TAIL_EPS) -> PointFunctional:
    """Negative-binomial masses C(n+k-1,k) x^k / (1+x)^(n+k) at nodes k/n,
    over the window that leaves out at most tail_eps, divided by their sum."""
    return point_functional("baskakov", n, x, tail_eps)


def bbh_at(n: int, x: float) -> PointFunctional:
    """Bleimann-Butzer-Hahn masses: nodes k/(n-k+1), binomial weights at x/(1+x)."""
    return point_functional("bbh", n, x)


def king_at(n: int, x: float) -> PointFunctional:
    """Bernstein weights evaluated at r_star(n, x); reproduces e0 and e2."""
    return point_functional("king", n, x)


def two_point(a: float) -> PointFunctional:
    """(1-a) f(0) + a f(1)."""
    return point_functional("two_point", 1, a)


def _check_degree(n: int) -> None:
    if int(n) != n or n < 1:
        raise ValueError("degree n must be a positive integer")


# ---------------------------------------------------------------------------
# the mixed Lebesgue + point-mass example functional


def simpson_weights(quad_n: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Simpson nodes and weights for quad_n panels on [0, 1]."""
    if quad_n < 1:
        raise ValueError("quad_n must be >= 1")
    m = 2 * quad_n + 1
    xs = np.linspace(0.0, 1.0, m)
    w = np.full(m, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    h = 1.0 / (2.0 * quad_n)
    return xs, w * (h / 3.0)


def measure_example_T(a: float, f: RealFunction, g: RealFunction,
                      quad_n: int = QUAD_N) -> tuple[float, float]:
    """Chebyshev functional and oscillation bound for a*Lebesgue + (1-a)*delta_{1/2}.

    Returns (T, rhs) where T = L(fg) - L(f)L(g) with the Lebesgue part done by
    composite Simpson on quad_n panels, and rhs = a(2-a)/2 * osc(f) * osc(g)
    with oscillations over the global grid (the product measure charges all of
    [0,1]^2 whenever a > 0).
    """
    if not 0.0 <= a <= 1.0:
        raise ValueError("measure_example_T requires a in [0, 1]")
    xs, sw = simpson_weights(quad_n)
    fv = f.values(xs)
    gv = g.values(xs)
    int_f = float(sw @ fv)
    int_g = float(sw @ gv)
    int_fg = float(sw @ (fv * gv))
    fm = float(f.values(np.array([0.5]))[0])
    gm = float(g.values(np.array([0.5]))[0])
    lf = a * int_f + (1.0 - a) * fm
    lg = a * int_g + (1.0 - a) * gm
    lfg = a * int_fg + (1.0 - a) * fm * gm
    t_val = lfg - lf * lg
    if a == 0.0:
        return t_val, 0.0
    grid = uniform_grid(0.0, 1.0)
    return t_val, 0.5 * a * (2.0 - a) * oscillation(f, grid) * oscillation(g, grid)


# ---------------------------------------------------------------------------
# application and the Chebyshev functional


def apply(L: PointFunctional, f: RealFunction) -> float:
    """L(f) = sum of weight * f(node)."""
    check_inside(f, L.nodes.min(), L.nodes.max())
    return float(np.dot(L.weights, f.values(L.nodes)))


def chebyshev_T(L: PointFunctional, f: RealFunction, g: RealFunction) -> float:
    """T_L(f, g) = L(fg) - L(f) L(g)."""
    lo, hi = L.nodes.min(), L.nodes.max()
    check_inside(f, lo, hi)
    check_inside(g, lo, hi)
    fv = f.values(L.nodes)
    gv = g.values(L.nodes)
    w = L.weights
    return float(w @ (fv * gv) - (w @ fv) * (w @ gv))


@functools.lru_cache(maxsize=64)
def _pair_indices(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only index arrays (k, l) of every node pair k < l."""
    k, l = np.triu_indices(size, 1)
    k.flags.writeable = False
    l.flags.writeable = False
    return k, l


class PairForm:
    """The pair form of one functional over named corpus rows: w_k w_l over
    its node pairs k < l, and per row the differences f_k - f_l and the
    weighted differences w_k w_l (f_k - f_l).  Built once, it serves every
    ordered pair of its rows; it holds (2 rows + 1) pairs floats, pairs =
    size (size - 1) / 2.  ``values`` are the rows at the nodes, (rows, size).
    """

    def __init__(self, L: PointFunctional, funcs):
        funcs = tuple(funcs)
        self.rows = {f.name: i for i, f in enumerate(funcs)}
        self.values = np.stack([f.values(L.nodes) for f in funcs])
        w = L.weights
        k, l = _pair_indices(w.size)
        self.ww = w[k] * w[l]
        self.diff = self.values[:, k] - self.values[:, l]
        self.wdiff = self.ww * self.diff


def pairwise_identity(form: PairForm, f: RealFunction, g: RealFunction) -> float:
    """T_L(f, g) via the direct pair sum over k < l.

    Written out as sum_{k<l} w_k w_l (f_k - f_l)(g_k - g_l), one array term
    per node pair, multiplied in that order, so it stays an independent
    cross-check of :func:`chebyshev_T` rather than an algebraic
    rearrangement.  f and g are rows of ``form``, looked up by name.
    """
    return float((form.wdiff[form.rows[f.name]] * form.diff[form.rows[g.name]]).sum())
