"""Lagrange interpolation at Chebyshev nodes: basis, Lebesgue function and
constant, and the Rivlin and Hermann diagnostics.

The basis is evaluated in barycentric form specialized to first-kind Chebyshev
nodes (weights proportional to (-1)^k sin t_k); the quotient form through the
node polynomial is unstable near the nodes, so node hits are detected exactly
and replaced by point evaluation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

# cached_envelope is bound here as well so that tracing can wrap it per module
from .funcspace import cached_envelope  # noqa: F401
# chebyshev_T is bound here as well so that tracing can wrap it per module
from .operators import PointFunctional, chebyshev_T, point_functional  # noqa: F401

__all__ = [
    "ChebyshevGrid",
    "chebyshev_grid",
    "lagrange_basis",
    "basis_weights",
    "lebesgue_function",
    "lebesgue_constant",
    "pair_product_sum",
    "hermann_ratio",
    "rivlin_gap",
    "rivlin_row",
]

_NODE_HIT = 1e-14

#: classical two-sided estimate on ||L_n|| - (2/pi) ln n at Chebyshev nodes
RIVLIN_LO = 0.9625
RIVLIN_HI = 1.0

#: points of the [-1, 1] grid that :func:`hermann_ratio` minimises over
HERMANN_GRID = 257


@dataclass(frozen=True)
class ChebyshevGrid:
    """First-kind Chebyshev nodes cos((2k-1) pi / (2n)), sorted ascending."""

    n: int
    nodes: np.ndarray
    bary: np.ndarray

    def __post_init__(self):
        self.nodes.flags.writeable = False
        self.bary.flags.writeable = False


@functools.lru_cache(maxsize=512)
def chebyshev_grid(n: int) -> ChebyshevGrid:
    if int(n) != n or n < 1:
        raise ValueError("need a positive number of nodes")
    k = np.arange(1, n + 1)
    theta = (2.0 * k - 1.0) * math.pi / (2.0 * n)   # decreasing cos
    nodes = np.cos(theta)[::-1].copy()
    # barycentric weights up to an irrelevant common factor: alternating sines
    sines = np.sin(theta)[::-1]
    bary = sines * np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    return ChebyshevGrid(n=n, nodes=nodes, bary=bary)


def _bary_terms(n: int, x) -> tuple[np.ndarray, np.ndarray]:
    """bary_k / (x - x_k) and the mask of node hits, for a point x (shape
    (n,)) or one row per point of an array x.  A hit's term is bary_k, a
    placeholder: every caller replaces the rows that hit a node."""
    grid = chebyshev_grid(n)
    diff = np.subtract.outer(x, grid.nodes)
    hit = np.abs(diff) < _NODE_HIT
    diff[hit] = 1.0
    return grid.bary / diff, hit


def basis_weights(n: int, x) -> np.ndarray:
    """Fundamental-function values l_k(x), one row per point of an array x;
    rows sum to 1 by construction.  At a node they are that node's unit row."""
    r, hit = _bary_terms(n, x)
    w = r / np.sum(r, axis=-1, keepdims=True)
    if hit.any():
        at = np.nonzero(hit)
        w[at[:-1]] = 0.0
        w[at] = 1.0
    return w


def lagrange_basis(n: int, x: float) -> PointFunctional:
    """The interpolation functional at x as a (generally signed) PointFunctional."""
    return point_functional("lagrange_cheb", n, x)


def lebesgue_function(n: int, x: float) -> float:
    """Lambda_n(x) = sum |l_k(x)|; >= 1 everywhere, = 1 at the nodes."""
    return float(np.sum(np.abs(basis_weights(n, x))))


@functools.lru_cache(maxsize=512)
def lebesgue_constant(n: int) -> float:
    """max of Lambda_n over [-1, 1], attained at x = +-1: the closed form
    (1/n) sum_{k=1..n} cot((2k - 1) pi / (4n)), its terms summed exactly.
    Lambda_1 is 1 everywhere."""
    if int(n) != n or n < 1:
        raise ValueError("need a positive number of nodes")
    if n == 1:
        return 1.0
    theta = (2.0 * np.arange(1, n + 1) - 1.0) * (math.pi / (4.0 * n))
    return math.fsum(1.0 / np.tan(theta)) / n


def pair_product_sum(n: int, x: float) -> float:
    """sum_{k<m} |l_k(x) l_m(x)| via the half-difference of Lambda^2 and sum l^2."""
    w = basis_weights(n, x)
    lam = float(np.sum(np.abs(w)))
    ssq = float(np.dot(w, w))
    return max(0.0, 0.5 * (lam * lam - ssq))


def rivlin_gap(n: int) -> float:
    """||L_n|| - (2/pi) ln n; lands in (0.9625, 1) for n >= 2."""
    return lebesgue_constant(n) - (2.0 / math.pi) * math.log(n)


def rivlin_row(n: int) -> dict:
    """The Lebesgue constant, the Rivlin gap and whether it lies in the
    window (both None below n = 2), and the Hermann ratio at degree n."""
    gap = rivlin_gap(n) if n >= 2 else None
    return {"n": n, "lebesgue_constant": lebesgue_constant(n), "gap": gap,
            "in_window": None if gap is None else bool(RIVLIN_LO < gap < RIVLIN_HI),
            "hermann_min_ratio": hermann_ratio(n)}


def hermann_ratio(n: int) -> float:
    """Diagnostic for the lower estimate on sum l_k^2.

    Minimum over ``HERMANN_GRID`` points of sum l_k^2(x) / (1 + cos^2(n t)
    pi^2/6) with x = cos t.  The literature bound holds with an unspecified
    constant, so this ratio is reported, never asserted.
    """
    xs = np.linspace(-1.0, 1.0, HERMANN_GRID)
    ts = np.arccos(np.clip(xs, -1.0, 1.0))
    w = basis_weights(n, xs)
    ssq = np.matmul(w[:, None, :], w[:, :, None])[:, 0, 0]
    cos = np.array([math.cos(v) for v in n * ts])
    return float(np.min(ssq / (1.0 + cos ** 2 * (math.pi ** 2 / 6.0))))
