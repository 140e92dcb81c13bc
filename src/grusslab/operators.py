"""Point functionals for the operator families and the Chebyshev functional.

Every family is realized as a :class:`PointFunctional`: the nodes the
functional reads plus the weights it attaches to them at an evaluation point,
both given by the family's one record in :data:`FAMILY`.
Infinite families (Szasz, Baskakov) are truncated and their window weights
divided by their sum, so every reader gets the same positive normalized
functional.  Window weights are built by multiplicative ratio recurrences
seeded at the distribution mode, which stays in range where a plain start at
k=0 would underflow (e.g. exp(-nx) for nx beyond ~745).  A window ends at the
first index past the mode where the geometric bound w_K r/(1 - r) on the mass
left over, r the up ratio at K, is at most the declared tail mass; that bound
is reported as the tail, not gated.

The mixed measure has no point form; one Gauss-Legendre table on the corpus
knots, :func:`lebesgue_rule`, integrates its Lebesgue part up to rounding.
"""

from __future__ import annotations

import functools
import importlib
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .funcspace import RANDLIP_PIECES, NodeSet, RealFunction, check_inside

__all__ = [
    "PointFunctional",
    "OperatorSpec",
    "Family",
    "FAMILY",
    "FAMILIES",
    "TAIL_EPS",
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
    "lebesgue_rule",
    "mixed_measure_T",
    "apply",
    "chebyshev_T",
    "PairForm",
    "pairwise_identity",
    "parse_operator_spec",
]

_SUM_TOL = 1e-10
_NEG_TOL = 1e-12

#: the tail mass a truncated functional may leave out, unless a caller sets one
TAIL_EPS = 1e-12


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
# weight builders


def _binomial_weights(n: int, p) -> np.ndarray:
    """Binomial(n, p) masses by symmetric multiplicative ratio recurrence, at
    a parameter p, or one row per entry of an array p.

    Each row runs the recurrence from the end of the smaller of p and 1 - p
    and is reversed where p > 1/2; q^n is a Python float power per entry,
    because numpy's array power rounds differently from it.
    """
    p = np.asarray(p, dtype=float)
    if not np.all((0.0 <= p) & (p <= 1.0)):
        raise ValueError("binomial parameter must lie in [0, 1]")
    flip = p.reshape(-1) > 0.5
    s = np.where(flip, 1.0 - p.reshape(-1), p.reshape(-1))
    q = 1.0 - s
    ratios = (s / q)[:, None] * (n - np.arange(n)) / np.arange(1.0, n + 1)
    w = np.empty((s.size, n + 1))
    w[:, 0] = 1.0
    np.cumprod(ratios, axis=1, out=w[:, 1:])
    w *= np.array([v ** n for v in q.tolist()])[:, None]
    w[flip] = w[flip, ::-1]
    return w.reshape(p.shape + (n + 1,))


#: the most nodes a truncation window may reach
_KCAP = 5_000_000


def _ratio_window(log_wm: float, mode: int, reach: int, up_ratio, down_ratio,
                  tail_eps: float) -> tuple[np.ndarray, float]:
    """Masses w_0..w_K from the mode weight exp(log_wm) by products of the
    ratios up_ratio(k) = w_{k+1}/w_k and down_ratio(k) = w_{k-1}/w_k, and the
    tail bound past K.

    K is the first index >= mode whose up ratio r = up_ratio(K) is below 1
    and where w_K r/(1 - r) <= tail_eps.  Up ratios that never increase past
    the mode make that geometric bound cover all the mass past K, so it is
    returned as the tail; with the masses, which fall past the mode, they
    also make the bound fall as K grows, so each pass finds K by bisection.
    The first pass reaches ``reach`` > mode; each later pass goes twice as
    far as the one before.
    """
    wm = math.exp(log_wm)
    parts, lo, hi = [np.array([wm])], mode, reach
    while True:
        if hi > _KCAP:
            raise ArithmeticError("truncation window exceeded the hard cap")
        r = up_ratio(np.arange(float(lo), float(hi)))   # r[j] = w_{lo+j+1}/w_{lo+j}
        up = np.cumprod(r)
        up *= parts[-1][-1]                             # up[j] = w_{lo+j} r[j]
        j, end = 0, len(r)      # the first j with a bound <= tail_eps is in [j, end]
        while j < end:
            mid = (j + end) // 2
            if _tail_bound(r, up, mid) <= tail_eps:
                end = mid
            else:
                j = mid + 1
        if j < len(r):
            break
        parts.append(up)
        lo, hi = hi, hi + 2 * (hi - lo)
    parts.append(up[:j])
    down = np.cumprod(down_ratio(np.arange(mode, 0, -1.0)))   # empty at mode 0
    down *= wm
    parts.insert(0, down[::-1])
    return np.concatenate(parts), _tail_bound(r, up, j)


def _tail_bound(r: np.ndarray, up: np.ndarray, j: int) -> float:
    """up[j]/(1 - r[j]), or inf where r[j] is not below 1: no geometric
    bound holds there."""
    rj = float(r[j])
    return float(up[j]) / (1.0 - rj) if rj < 1.0 else math.inf


def _poisson_weights(lam: float, tail_eps: float) -> tuple[np.ndarray, float]:
    if lam <= 0.0:
        return np.array([1.0]), 0.0
    mode = int(lam)
    log_wm = -lam + mode * math.log(lam) - math.lgamma(mode + 1)
    return _ratio_window(log_wm, mode, int(lam + 12.0 * math.sqrt(lam) + 50.0),
                         lambda k: lam / (k + 1.0), lambda k: k / lam, tail_eps)


def _negbin_weights(n: int, x: float, tail_eps: float) -> tuple[np.ndarray, float]:
    if x <= 0.0:
        return np.array([1.0]), 0.0
    p = x / (1.0 + x)
    mean = n * x
    mode = int((n - 1) * x)
    log_wm = (math.lgamma(n + mode) - math.lgamma(mode + 1) - math.lgamma(n)
              + mode * math.log(p) - n * math.log1p(x))
    return _ratio_window(log_wm, mode,
                         int(mean + 15.0 * math.sqrt(mean * (1.0 + x)) + 60.0),
                         lambda k: p * (n + k) / (k + 1.0),
                         lambda k: k / (p * (n + k - 1.0)), tail_eps)


# ---------------------------------------------------------------------------
# the family table


def _sdelta_cell(n: int, x):
    """Knot cell and local coordinate for piecewise-linear interpolation, at
    a point x, or as two arrays at each point of an array x.

    Returns (k, u) with x = (k + u)/n, u in [0, 1); u snaps to the nearest
    knot when n*x sits within a few ulps of an integer so that knot hits stay
    exact interpolation.
    """
    m = n * np.asarray(x, dtype=float)
    k = np.floor(m)
    u = m - k
    snap = 32.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(m))
    low = (u <= snap) & (k >= 0)
    high = ~low & (1.0 - u <= snap)
    k, u = (k + high).astype(int), np.where(low | high, 0.0, u)
    if np.ndim(x):
        return k, u
    return int(k), float(u)


def r_star(n: int, x):
    """Reparameterization making the Bernstein-type family reproduce e2, at
    a point x or at each point of an array x."""
    _check_degree(n)
    x = np.asarray(x, dtype=float)
    if not np.all((0.0 <= x) & (x <= 1.0)):
        raise ValueError("r_star requires x in [0, 1]")
    if n == 1:
        r = x * x
    else:
        c = 1.0 / (2.0 * (n - 1.0))
        r = -c + np.sqrt((n / (n - 1.0)) * x * x + c * c)
    r = np.minimum(np.maximum(r, 0.0), 1.0)
    residual = r / n + ((n - 1.0) / n) * r * r - x * x
    far = np.abs(residual) > 1e-12
    if far.any():
        i = np.argmax(far.reshape(-1))
        raise ArithmeticError(f"r_star residual {residual.reshape(-1)[i]} "
                              f"at n={n}, x={x.reshape(-1)[i]}")
    return r if r.ndim else float(r)


@dataclass(frozen=True)
class Family:
    """One operator family: where it is evaluated, what it reads, and how.

    ``nodes(n)`` is the node array at degree n, or None where the nodes are
    k/n over a window cut at a declared tail mass.  ``weights(n, x,
    tail_eps)`` returns ``(w, tail, span)``: the weights at x, the tail mass
    they leave out, and the index range [lo, hi) of the node array that ``w``
    covers when it covers only part of it (None: every node).  A fixed-node
    family's ``weights`` also take an array x, one call per batch of points:
    ``w`` is then (points, nodes), each row the bits of its point call laid
    over every node, zero off its span, and ``span`` is None or the (points,
    2) array of those spans.  A truncated family's weights take a point only;
    its window weights come divided by their sum, and ``tail`` is an upper
    bound, at most tail_eps, on the mass of the untruncated operator that the
    window left out.  ``signed`` weights may be negative.  A ``one_point``
    family takes a parameter a in [0, 1] in place of x, has no degree (n = 1)
    and makes one sweep block.  A family without weights (the mixed measure)
    has no point form.

    The bound table reads closed forms, None where none is stated: ``coef(n)``
    majorizes (1 - sum w^2)/2 at every x, ``coef_at(n, x)`` at x, a point or
    an array of points, where that depends on x; ``second_moment(n, x)``, at
    a point or an array of points, is L((e1 - x)^2); ``ws_step(n)``, the
    classical x-free step, is at least 2 sqrt(second_moment) at every x.
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


def _hat_weights(n: int, x, _tail_eps: float):
    """sdelta masses on the one knot x hits, or on the two knots around x.
    An array x gives one row per point over all n + 1 knots, zero off its
    span, and the spans as a (points, 2) array."""
    k, u = _sdelta_cell(n, np.reshape(x, -1))
    two = u != 0.0
    w = np.zeros((k.size, n + 1))
    rows = np.arange(k.size)
    w[rows, k] = 1.0 - u
    w[rows[two], k[two] + 1] = u[two]
    spans = np.stack([k, k + 1 + two], axis=1)
    if np.ndim(x):
        return w, 0.0, spans
    lo, hi = spans[0].tolist()
    return w[0, lo:hi], 0.0, (lo, hi)


def _window(w: np.ndarray, tail: float):
    """A truncated window as a normalized functional: w divided by its sum."""
    w /= w.sum()
    return w, tail, (0, w.size)


def _late(module: str):
    """A sibling module, reached at call time: it imports this one."""
    return importlib.import_module(f"{__package__}.{module}")


def _binomial_coef(n: int) -> float:
    """(1 - phi_n(1/2))/2, phi_n's minimum being at the half point."""
    return 0.5 * (1.0 - _late("special").central_binom_scaled(n))


def _negbin_coef(n: int, x):
    """(1 - theta_n(x))/2, theta_n the sum of squared Baskakov weights at x."""
    return 0.5 * (1.0 - _late("special").theta_baskakov(n, x))


def _hat_moment(n: int, x):
    """u(1 - u)/n^2 at x = (k + u)/n, a point or an array of points."""
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
                   second_moment=lambda n, x: np.maximum(0.0,
                                                         2.0 * x * (x - r_star(n, x)))),
    "two_point": Family(_UNIT, lambda _n: np.array([0.0, 1.0]),
                        lambda _n, a, _eps: (np.stack([1.0 - a, a], -1), 0.0, None),
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


@functools.cache
def lebesgue_rule() -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes and weights of the mixed measure's Lebesgue part: the
    8-point Gauss-Legendre rule on each cell [k/32, (k+1)/32] of [0, 1].

    The cells are randlip's pieces; halfstep's jump and absmid's kink at 1/2
    are cell ends, and the nodes are interior.  On a cell e0, e1, e2, hat,
    absmid, halfstep, dirichlet, randlip and their pairwise products are
    polynomials of degree <= 4, which the rule integrates exactly up to
    rounding.  With sinpi or expneg the remainder on a cell is h^17 (8!)^4 /
    (17 (16!)^3) |F^(16)| <= 4.4e-49 * 3e12 (h = 1/32; (2 pi)^16 / 2 bounds
    |(sinpi^2)^(16)|, the largest): below 5e-35 over [0, 1].  The constants are
    the bits of numpy.polynomial's leggauss(8), whose import costs 1.2 MB RSS.
    """
    t = np.array([0.18343464249564978, 0.525532409916329, 0.7966664774136267,
                  0.9602898564975362])
    w = np.array([0.36268378337836166, 0.3137066458778869, 0.22238103445337443,
                  0.10122853629037706])
    t, w = np.concatenate([-t[::-1], t]), np.concatenate([w[::-1], w])
    cells = np.arange(RANDLIP_PIECES)[:, None]
    nodes = ((cells + 0.5 * (1.0 + t)) / RANDLIP_PIECES).reshape(-1)
    weights = np.tile(w / (2.0 * RANDLIP_PIECES), RANDLIP_PIECES)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def mixed_measure_T(a, funcs) -> np.ndarray:
    """T(f, g) = L(fg) - L(f)L(g) for L = a*Lebesgue + (1-a)*delta_{1/2} on
    [0, 1], for every pair of ``funcs`` at each a of an array: (a, rows, rows).
    Each integral of a row or a product of two is a sum of its own over the
    nodes of :func:`lebesgue_rule`, so no T depends on which other rows are given.
    """
    xq, wq = lebesgue_rule()
    v = np.stack([f.values(xq) for f in funcs])
    wv = v * wq
    int_v, int_prod = wv.sum(axis=1), (wv[:, None, :] * v).sum(axis=2)
    mid = np.array([f.values(np.array([0.5]))[0] for f in funcs])
    a = np.asarray(a, dtype=float)[:, None]
    lf = a * int_v + (1.0 - a) * mid
    lfg = a[:, :, None] * int_prod + (1.0 - a)[:, :, None] * np.multiply.outer(mid, mid)
    return lfg - lf[:, :, None] * lf[:, None, :]


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
