"""Function corpus, oscillations, moduli of continuity and their concave envelopes.

Everything in this module is pure and immutable after construction, so values
can be shared freely: the corpus and its envelopes are cached and handed out
as the same objects to every caller.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

DEFAULT_GRID = 1001
DEFAULT_XMAX = 50.0
DEFAULT_SEED = 90210

#: randlip's linear pieces on its working interval; on [0, 1] their ends k/32
#: hold halfstep's jump and absmid's kink too, so every member is smooth on each
RANDLIP_PIECES = 32

__all__ = [
    "RealFunction",
    "NodeSet",
    "ModulusEnvelope",
    "uniform_grid",
    "check_grid",
    "check_inside",
    "oscillation",
    "range_on_grid",
    "modulus",
    "modulus_profile",
    "concave_majorant",
    "envelope_of",
    "cached_envelope",
    "standard_corpus",
    "CORPUS_NAMES",
]


@dataclass(frozen=True)
class RealFunction:
    """A named scalar function on a closed interval; the right end may be +inf."""

    name: str
    domain: tuple[float, float]
    fn: Callable
    x_max: float = DEFAULT_XMAX

    def __post_init__(self):
        lo, hi = self.domain
        if not lo < hi:
            raise ValueError(f"empty domain for {self.name!r}: {self.domain}")

    @property
    def interval(self) -> tuple[float, float]:
        """The domain with an infinite right end cut at ``x_max``: where
        envelopes, working-grid ranges and sweep grids sample the function."""
        return _working_interval(self.domain, self.x_max)

    def __call__(self, x):
        return self.fn(x)

    def values(self, xs) -> np.ndarray:
        """Evaluate on an array; ``fn`` maps an array to one of its shape."""
        return np.asarray(self.fn(np.asarray(xs, dtype=float)), dtype=float)


@dataclass(frozen=True)
class NodeSet:
    """A finite, strictly increasing set of real nodes."""

    nodes: np.ndarray

    def __post_init__(self):
        arr = np.atleast_1d(np.asarray(self.nodes, dtype=float)).copy()
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("NodeSet requires a nonempty 1-d node collection")
        if arr.size > 1 and not np.all(np.diff(arr) > 0):
            raise ValueError("nodes must be strictly increasing (distinct)")
        arr.flags.writeable = False
        object.__setattr__(self, "nodes", arr)

    def __len__(self) -> int:
        return int(self.nodes.size)


def check_grid(n: int) -> None:
    """The floor of every grid, and of every ``--grid`` flag: 2 points."""
    if n < 2:
        raise ValueError(f"grid needs at least 2 points, got {n}")


def uniform_grid(lo: float, hi: float, n: int = DEFAULT_GRID) -> NodeSet:
    check_grid(n)
    return NodeSet(np.linspace(lo, hi, n))


def _working_interval(domain: tuple[float, float], x_max: float) -> tuple[float, float]:
    lo, hi = domain
    return lo, (x_max if math.isinf(hi) else hi)


def check_inside(f: RealFunction, lo: float, hi: float) -> None:
    """Reject nodes spanning [lo, hi] that leave f's domain by more than 1e-12."""
    dom_lo, dom_hi = f.domain
    if lo < dom_lo - 1e-12 or hi > dom_hi + 1e-12:
        raise ValueError(f"nodes [{lo}, {hi}] leave the domain of {f.name!r}")


def oscillation(f: RealFunction, nodes: NodeSet) -> float:
    """Largest |f(x_k) - f(x_l)| over node pairs, i.e. max - min of node values."""
    check_inside(f, nodes.nodes[0], nodes.nodes[-1])
    vals = f.values(nodes.nodes)
    return float(np.max(vals) - np.min(vals))


def range_on_grid(f: RealFunction, grid: NodeSet) -> tuple[float, float]:
    """(min, max) of f over the grid points."""
    check_inside(f, grid.nodes[0], grid.nodes[-1])
    vals = f.values(grid.nodes)
    return float(np.min(vals)), float(np.max(vals))


def modulus(f: RealFunction, t: float, grid: NodeSet) -> float:
    """Grid modulus of continuity: sup |f(x)-f(y)| over grid pairs with |x-y| <= t."""
    if t < 0:
        raise ValueError("modulus needs t >= 0")
    if t == 0:
        return 0.0
    xs = grid.nodes
    check_inside(f, xs[0], xs[-1])
    ys = f.values(xs)
    best = 0.0
    # row-blocked pair scan keeps the temporary below a few MB for big grids
    step = max(1, 4_000_000 // max(1, xs.size))
    for i0 in range(0, xs.size, step):
        i1 = min(xs.size, i0 + step)
        dx = np.abs(xs[i0:i1, None] - xs[None, :])
        dy = np.abs(ys[i0:i1, None] - ys[None, :])
        dy[dx > t + 1e-15] = 0.0
        m = float(dy.max()) if dy.size else 0.0
        best = max(best, m)
    return best


def modulus_profile(f: RealFunction, grid: NodeSet) -> tuple[np.ndarray, np.ndarray]:
    """Sampled modulus at every lag of a uniform grid.

    Returns (ts, omega) with ts[k] = k*h and omega[k] the running maximum of
    |f(x_{i+k}) - f(x_i)|; omega is nondecreasing and omega[0] = 0 by
    construction.
    """
    xs = grid.nodes
    if xs.size < 2:
        raise ValueError("profile needs at least 2 grid points")
    gaps = np.diff(xs)
    h = float(gaps[0])
    if np.max(np.abs(gaps - h)) > 1e-9 * max(1.0, abs(h)):
        raise ValueError("modulus_profile requires a uniform grid")
    ys = f.values(xs)
    n = xs.size
    omega = np.zeros(n)
    for k in range(1, n):
        omega[k] = float(np.max(np.abs(ys[k:] - ys[:-k])))
    omega = np.maximum.accumulate(omega)
    ts = h * np.arange(n)
    return ts, omega


@dataclass(frozen=True)
class ModulusEnvelope:
    """Sampled modulus together with its least concave majorant.

    The hull is stored as vertex arrays; between vertices the majorant is
    linear, beyond the diameter it stays at the full-diameter modulus.
    """

    ts: np.ndarray
    omega: np.ndarray
    hull_t: np.ndarray
    hull_y: np.ndarray

    @property
    def diameter(self) -> float:
        return float(self.ts[-1])

    def hull_value(self, t):
        t = np.asarray(t, dtype=float)
        out = np.interp(np.clip(t, 0.0, self.diameter), self.hull_t, self.hull_y)
        return float(out) if out.ndim == 0 else out


def concave_majorant(ts, omega) -> ModulusEnvelope:
    """Least concave piecewise-linear function dominating the samples.

    Computed as the upper convex-position hull of the sampled graph by a
    monotone-chain scan; the hull always contains (0, 0) and the rightmost
    sample, so the majorant agrees with the modulus at the full diameter.
    """
    ts = np.asarray(ts, dtype=float)
    om = np.asarray(omega, dtype=float)
    if ts.ndim != 1 or ts.shape != om.shape or ts.size == 0:
        raise ValueError("ts and omega must be matching nonempty 1-d arrays")
    if ts.size > 1 and np.any(np.diff(ts) <= 0):
        raise ValueError("ts must be strictly increasing")
    if abs(ts[0]) > 1e-15 or abs(om[0]) > 1e-12:
        raise ValueError("samples must start at t=0 with omega(0)=0")
    hull: list[tuple[float, float]] = []
    for p in zip(ts.tolist(), om.tolist()):
        while len(hull) >= 2:
            o, a = hull[-2], hull[-1]
            # pop a when it lies on or below the chord o -> p
            if (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0]) >= 0.0:
                hull.pop()
            else:
                break
        hull.append(p)
    ht = np.array([p[0] for p in hull])
    hy = np.array([p[1] for p in hull])
    return ModulusEnvelope(ts=ts, omega=om, hull_t=ht, hull_y=hy)


def envelope_of(f: RealFunction, grid: NodeSet) -> ModulusEnvelope:
    ts, om = modulus_profile(f, grid)
    return concave_majorant(ts, om)


@functools.lru_cache(maxsize=256)
def cached_envelope(f: RealFunction, grid_n: int) -> ModulusEnvelope:
    """Envelope on ``grid_n`` points of the member's working interval."""
    return envelope_of(f, uniform_grid(*f.interval, grid_n))


# ---------------------------------------------------------------------------
# corpus


CORPUS_NAMES = (
    "e0", "e1", "e2", "hat", "absmid", "sinpi",
    "expneg", "halfstep", "dirichlet", "randlip",
)


def standard_corpus(domain: tuple[float, float] = (0.0, 1.0),
                    seed: int = DEFAULT_SEED,
                    x_max: float = DEFAULT_XMAX) -> Mapping[str, RealFunction]:
    """The fixed ten-member corpus adapted to a domain, read-only.

    Members carry ``x_max`` for their :attr:`~RealFunction.interval`.  The
    same domain and seed, and on [0, inf) the same x_max, return the same
    member objects, so :func:`cached_envelope`, which is keyed on them, hits
    across calls.

    Members (published formulas, midpoint m = (lo+hi)/2 on finite domains):
      e0 = 1, e1 = x, e2 = x^2, hat = x(1-x), absmid = |x - m|,
      sinpi = sin(pi x), expneg = exp(-x), halfstep = floor(2x)/2,
      dirichlet = 1 (the Dirichlet indicator restricted to rational nodes;
      every binary float is rational, hence constant 1), randlip = a seeded
      Lipschitz-1 piecewise-linear function.

    On [0, inf) absmid is anchored at 1/2 and randlip is constant beyond
    x_max.
    """
    lo, hi = float(domain[0]), float(domain[1])
    # x_max cuts only an infinite domain, so finite ones share one corpus
    return _corpus((lo, hi), int(seed), float(x_max) if math.isinf(hi) else DEFAULT_XMAX)


@functools.lru_cache(maxsize=64)
def _corpus(domain: tuple[float, float], seed: int,
            x_max: float) -> Mapping[str, RealFunction]:
    lo, hi = _working_interval(domain, x_max)
    mid = 0.5 if math.isinf(domain[1]) else 0.5 * (lo + hi)

    rng = np.random.default_rng(seed)
    bps = np.linspace(lo, hi, RANDLIP_PIECES + 1)
    slopes = rng.uniform(-1.0, 1.0, size=RANDLIP_PIECES)
    vals = np.concatenate([[0.0], np.cumsum(slopes * np.diff(bps))])

    def randlip_eval(x, _bps=bps, _vals=vals):
        return np.interp(x, _bps, _vals)

    fns = {
        "e0": lambda x: np.ones_like(np.asarray(x, dtype=float)),
        "e1": lambda x: np.asarray(x, dtype=float),
        "e2": lambda x: np.square(np.asarray(x, dtype=float)),
        "hat": lambda x: np.asarray(x, dtype=float) * (1.0 - np.asarray(x, dtype=float)),
        "absmid": lambda x, _m=mid: np.abs(np.asarray(x, dtype=float) - _m),
        "sinpi": lambda x: np.sin(np.pi * np.asarray(x, dtype=float)),
        "expneg": lambda x: np.exp(-np.asarray(x, dtype=float)),
        "halfstep": lambda x: np.floor(2.0 * np.asarray(x, dtype=float)) / 2.0,
        "dirichlet": lambda x: np.ones_like(np.asarray(x, dtype=float)),
        "randlip": randlip_eval,
    }
    members = {name: RealFunction(name, domain, fn, x_max) for name, fn in fns.items()}
    return MappingProxyType(members)
