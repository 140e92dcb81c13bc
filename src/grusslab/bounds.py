"""Right-hand-side bounds: the bound table, its blocks, batches and cells.

Bound names used throughout reports:

  new_osc            pointwise oscillation bound, (1 - sum w^2)/2 for positive
                     weights, the absolute pair sum for signed ones
  new_osc_family     the per-family closed-form coefficient majorizing new_osc
  new_osc_degree     the degree-only majorant n/(2(n+1)) where stated
  gruss_quarter      (M-m)(P-p)/4 over what the functional reads
  mercer             min((M-m) L|g-G|, (P-p) L|f-F|)/2
  classical_ws       second-moment bound via least concave majorants
  classical_ws_uniform  its x-free form where one is stated

Each right-hand side and slack term is written once, in :data:`BOUNDS`.  The
sweep evaluates it over every :class:`Batch` of a :class:`Block`, the one-shot
``bounds`` command and the equality witnesses over a batch of one point.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import lagrange as lag
from . import operators as ops
from .funcspace import DEFAULT_GRID, RealFunction, cached_envelope, uniform_grid
# chebyshev_T is bound here as well so that tracing can wrap it per module
from .operators import PointFunctional, chebyshev_T  # noqa: F401

__all__ = [
    "BoundResult",
    "BOUNDS",
    "Batch",
    "Block",
    "evaluate_cell",
    "allowance",
]

BASE_REL_TOL = 1e-9

#: bytes a batch of points may take per (batch, nodes) or (batch, rows, rows)
#: array; a single point wider than this forms a batch of its own
BATCH_BYTES = 256 * 1024

#: points a batch may hold at most.  Every table row keeps its (batch, rows,
#: rows) margins and allowance until the batch's per-x updates are done; a few
#: hundred points of them come to about 10 MB, which malloc hands back to the
#: system after each batch and the next batch faults in again page by page
BATCH_POINTS = 64

@dataclass(frozen=True)
class BoundResult:
    """One (operator, f, g, x) evaluation: |T| against every applicable bound."""

    operator: str
    n: int
    x: float
    f: str
    g: str
    lhs: float
    rhs: dict[str, float]

    @property
    def margins(self) -> dict[str, float]:
        """rhs - lhs per bound."""
        return {k: v - self.lhs for k, v in self.rhs.items()}

    def to_dict(self) -> dict:
        return {
            "operator": self.operator,
            "n": self.n,
            "x": self.x,
            "f": self.f,
            "g": self.g,
            "lhs": self.lhs,
            "rhs": dict(sorted(self.rhs.items())),
            "margins": dict(sorted(self.margins.items())),
        }


# ---------------------------------------------------------------------------
# slack terms


def _col(a):
    """``a[..., :, None]``: the f axis of a pair matrix; a scalar passes as is."""
    a = np.asarray(a)
    return a[..., :, None] if a.ndim else a


def _row(a):
    """``a[..., None, :]``: the g axis of a pair matrix; a scalar passes as is."""
    a = np.asarray(a)
    return a[..., None, :] if a.ndim else a


def _per_x(a) -> np.ndarray:
    """A value per x as (batch, 1, 1), which scales (batch, rows, rows)."""
    return np.asarray(a, dtype=float)[:, None, None]


def allowance(lhs, rhs, extra=0.0):
    """Declared slack of one margin check: 1e-9 relative plus ``extra``.

    Its floor is BASE_REL_TOL: where ``extra`` >= 0 and lhs and rhs are
    finite the allowance is at least that, so a finite margin of at least
    -BASE_REL_TOL passes whatever lhs and rhs are.  The sweep forms the
    allowance only where a margin falls below that or a term is not finite.
    """
    return BASE_REL_TOL * np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs))) + extra


def modulus_slack(h, w_f, w_g):
    """Sampled moduli on a grid of step h undershoot the true sup by at most
    slope * h: h (w_f + w_g) + 4 h^2."""
    return h * (_col(w_f) + _row(w_g)) + 4.0 * h * h


# ---------------------------------------------------------------------------
# blocks and batches


def _rows_at(funcs, nodes: np.ndarray) -> np.ndarray:
    return np.stack([f.values(nodes) for f in funcs])


class Batch:
    """Consecutive evaluation points of a block over its corpus rows.

    Every array has a leading x axis.  A point batch is formed from node
    values ``v`` (rows, nodes), shared by its points, and weights ``w``
    (batch, nodes), zero past each point's own nodes.  Where a point does not
    read every node, its oscillations over its own nodes are given as
    ``osc``, so the zero padding never enters them.  A truncated family's
    weights arrive divided by their sum, so every row holds for the window
    functional they form with the base allowance alone.  The mixed-measure
    batch is given T, exact up to rounding, and its working-grid oscillations,
    and takes that allowance alone too.  T and L|f - Lf| are built one corpus
    row at a time, so no array is (batch, rows, nodes).

    T, |T| and the rhs are (batch, rows, rows); ``osc`` is (batch, rows), or
    (rows,) when every point reads every node; per-x coefficients are
    (batch, 1, 1).
    """

    def __init__(self, block: Block, start: int, v=None, w=None, *, osc=None, t=None):
        self.block = block
        self.xs = block.xs[start:start + len(w if t is None else t)]
        if w is not None:
            self.a = w @ v.T
            t, wv = np.empty((len(w), len(v), len(v))), np.empty_like(w)
            for i, vi in enumerate(v):
                np.matmul(np.multiply(w, vi, out=wv), v.T, out=t[:, i, :])
            t -= _col(self.a) * _row(self.a)
            if osc is None:
                osc = v.max(axis=1) - v.min(axis=1)
        self.v, self.w, self.t = v, w, t
        self.lhs = np.abs(t)
        self.osc = osc
        self.osc_outer = _col(osc) * _row(osc)

    @functools.cached_property
    def pair_coef(self) -> np.ndarray:
        """sum_{k<l} |w_k w_l|, which is (1 - sum w^2)/2 for positive weights."""
        ssq = np.einsum("bk,bk->b", self.w, self.w)
        if self.block.fam.signed:
            return _per_x(np.maximum(0.0, 0.5 * (np.sum(np.abs(self.w), axis=1) ** 2
                                                 - ssq)))
        return _per_x(0.5 * (1.0 - ssq))

    @functools.cached_property
    def mean_dev(self) -> np.ndarray:
        """L|f - Lf| per x and row."""
        out, dev = np.empty_like(self.a), np.empty_like(self.w)
        for i, vi in enumerate(self.v):
            np.subtract(vi, self.a[:, i, None], out=dev)
            out[:, i] = np.einsum("bk,bk->b", np.abs(dev, out=dev), self.w)
        return out

    @functools.cached_property
    def family_coef(self) -> np.ndarray:
        """The family's closed-form coefficient at each x: its value at x
        where the record states one, else its x-free one, taken once."""
        fam, n = self.block.fam, self.block.n
        if fam.coef_at is not None:
            return _per_x(fam.coef_at(n, self.xs))
        return np.full((len(self.xs), 1, 1), fam.coef(n))

    @functools.cached_property
    def env_moment(self) -> np.ndarray:
        """Envelopes at the second-moment step 2 sqrt(M2(x)), per x and row."""
        m2 = self.block.fam.second_moment(self.block.n, self.xs)
        return self.block.envelopes(2.0 * np.sqrt(np.maximum(m2, 0.0))).T

    def anti_t(self, i: int) -> np.ndarray:
        """T(f_i, 1 - f_i) per x from node values; the mixed measure has
        L(e0) = 1 exactly, so there T(f, 1 - f) = -T(f, f)."""
        if self.w is None:
            return -self.t[:, i, i]
        vi = self.v[i]
        u = 1.0 - vi
        return self.w @ (vi * u) - (self.w @ vi) * (self.w @ u)


def _span_osc(v: np.ndarray, spans) -> np.ndarray:
    """max - min of each row of v over each span [lo, hi), (spans, rows),
    in one reduceat pass per extreme.  reduceat reads index i up to index
    i + 1, so each span's lo is followed by its hi; a span that ends at the
    last node stops one node short, and that node is taken in after."""
    last = v.shape[1] - 1
    idx = np.array(spans, dtype=np.intp).reshape(-1)
    ends = np.flatnonzero(idx[1::2] > last)
    idx[1::2] = np.minimum(idx[1::2], last)
    top = np.maximum.reduceat(v, idx, axis=1)[:, ::2]
    bottom = np.minimum.reduceat(v, idx, axis=1)[:, ::2]
    if ends.size:
        top[:, ends] = np.maximum(top[:, ends], v[:, last:])
        bottom[:, ends] = np.minimum(bottom[:, ends], v[:, last:])
    return np.subtract(top.T, bottom.T, out=np.empty((len(spans), len(v))))


class _PrefixRange:
    """Each row's max and min over the nodes [0, end) of one block's node
    values, kept as end grows from batch to batch: O(rows) state.

    Truncated windows all start at node 0, and on a sweep their ends do not
    fall as x grows, so each batch reads the nodes past the widest window so
    far once.  A batch with a window that starts past node 0 or ends before
    ``end`` takes :func:`_span_osc`.  max and min are exact, so either route
    gives the same bits.
    """

    def __init__(self, rows: int):
        self.end = 0
        self.top = np.full((rows, 1), -math.inf)
        self.bottom = np.full((rows, 1), math.inf)

    def osc(self, v: np.ndarray, spans) -> np.ndarray:
        """max - min of each row of v over each span [lo, hi), (spans, rows)."""
        lo, hi = np.array(spans, dtype=np.intp).T
        if lo.any() or hi.min() < self.end:
            return _span_osc(v, spans)
        new = v[:, self.end:hi.max()]
        top = np.maximum.accumulate(np.concatenate((self.top, new), axis=1), axis=1)
        bottom = np.minimum.accumulate(np.concatenate((self.bottom, new), axis=1), axis=1)
        at = hi - self.end       # column c holds the range over [0, end + c)
        self.end += new.shape[1]
        self.top, self.bottom = top[:, -1:].copy(), bottom[:, -1:].copy()
        return np.subtract(top[:, at].T, bottom[:, at].T,
                           out=np.empty((len(spans), len(v))))


class Block:
    """One (family, degree) over evaluation points ``xs`` and corpus rows
    ``funcs``: the table rows that apply, what they read per block, and the
    block's batches.  Envelopes and working-grid ranges are taken over
    ``grid_n`` points of the rows' working interval."""

    def __init__(self, family: str, n: int, xs, funcs, *,
                 grid_n: int = DEFAULT_GRID, tail_eps: float = ops.TAIL_EPS):
        self.family, self.n = family, n
        self.xs = np.atleast_1d(np.asarray(xs, dtype=float))
        self.funcs = tuple(funcs)
        self.names = tuple(f.name for f in self.funcs)
        self.grid_n, self.tail_eps = grid_n, tail_eps
        self.fam = ops.FAMILY.get(family)
        if self.fam is None:
            raise ValueError(f"unknown family {family!r}")
        self.fam.check_point(family, self.xs)
        self.rows = tuple(b for b in BOUNDS if b.covers(family, self.fam))
        lo, hi = self.funcs[0].interval
        self.envelope_step = (hi - lo) / (grid_n - 1)
        #: (first x, last x) of the batch being formed or evaluated
        self.x_span: tuple[float, float] | None = None

    def envelopes(self, t) -> np.ndarray:
        """w~(f; t) per row, for a step t or one step per x."""
        return np.stack([cached_envelope(f, self.grid_n).hull_value(t)
                         for f in self.funcs])

    @functools.cached_property
    def env_uniform(self) -> np.ndarray:
        """Envelopes at the family's x-free classical step."""
        return self.envelopes(self.fam.ws_step(self.n))

    @functools.cached_property
    def env_two(self) -> np.ndarray:
        return self.envelopes(2.0)

    @functools.cached_property
    def lebesgue(self) -> float:
        return lag.lebesgue_constant(self.n)

    @functools.cached_property
    def grid_osc(self) -> np.ndarray:
        """Range of each row over the working grid."""
        gv = _rows_at(self.funcs, uniform_grid(*self.funcs[0].interval, self.grid_n).nodes)
        return gv.max(axis=1) - gv.min(axis=1)

    def _batch_len(self, nodes: int) -> int:
        """How many points of ``nodes`` nodes each keep every (batch, nodes)
        and (batch, rows, rows) array within BATCH_BYTES, at most
        BATCH_POINTS; at least one."""
        rows = len(self.funcs)
        return max(1, min(BATCH_POINTS, BATCH_BYTES // (8 * max(nodes, rows * rows))))

    def batches(self):
        """The block's points in x order, in batches of consecutive x; the
        mixed measure's T comes from :func:`operators.mixed_measure_T`."""
        if self.fam.weights is not None:
            yield from self._point_batches()
            return
        size = self._batch_len(len(self.funcs))
        for start in range(0, len(self.xs), size):
            a = self.xs[start:start + size]
            self.x_span = (float(a[0]), float(a[-1]))
            yield Batch(self, start, t=ops.mixed_measure_T(a, self.funcs),
                        osc=self.grid_osc)

    def _point_batches(self):
        """Consecutive x grouped while the widest of their node arrays fits
        the budget: every node of a fixed-node family, whose weights come in
        one call per batch, the window of a truncated one, built per x."""
        fam, n, eps = self.fam, self.n, self.tail_eps
        if not fam.truncated:
            v = _rows_at(self.funcs, fam.nodes(n))
            size = self._batch_len(v.shape[1])
            for start in range(0, len(self.xs), size):
                xs = self.xs[start:start + size]
                self.x_span = (float(xs[0]), float(xs[-1]))
                w, _, spans = fam.weights(n, xs, eps)
                yield Batch(self, start, v, w,
                            osc=None if spans is None else _span_osc(v, spans))
            return
        # node values k/n, sized from the last x's window, which an error
        # there names and which that x takes in turn, and widened in steps
        # of 256 nodes as the windows grow
        last = float(self.xs[-1])
        self.x_span = (last, last)
        last_window = fam.weights(n, last, eps)
        size = last_window[0].size + 8
        v = np.empty((len(self.funcs), 0))
        ranges = _PrefixRange(len(self.funcs))
        start, points, widest = 0, [], 0
        for ix, x in enumerate(self.xs):
            self.x_span = (float(self.xs[start]), float(x))
            w, _, span = (last_window if ix == len(self.xs) - 1
                          else fam.weights(n, float(x), eps))
            if points and len(points) + 1 > self._batch_len(max(widest, w.size)):
                yield self._window_batch(start, v, points, widest, ranges)
                start, points, widest = ix, [], 0
                self.x_span = (float(x), float(x))
            points.append((w, span))
            widest = max(widest, w.size)
            if w.size > v.shape[1]:
                size = max(size, w.size) + 256
                v = _rows_at(self.funcs, np.arange(size) / n)
        yield self._window_batch(start, v, points, widest, ranges)

    def _window_batch(self, start: int, v: np.ndarray, points, width: int,
                      ranges: _PrefixRange) -> Batch:
        """A batch of truncated windows ``(w, span)``: each w placed at its
        span of a zero-padded (batch, width) array, with oscillations over
        each span taken from the block's running ``ranges``."""
        self.x_span = (float(self.xs[start]), float(self.xs[start + len(points) - 1]))
        w = np.zeros((len(points), width))
        for b, (wb, (lo, hi)) in enumerate(points):
            w[b, lo:hi] = wb
        return Batch(self, start, v[:, :width], w,
                     osc=ranges.osc(v, [span for _, span in points]))

    def evaluate(self, batch: Batch):
        """(row, lower, upper, extra) for every row over a batch: ``lower`` is
        |T|, or for a lattice row the rhs it must stay above, ``upper`` the
        rhs, (batch, rows, rows) or broadcasting to it, and ``extra`` the
        row's summed slack terms, 0.0 or an array that broadcasts to that
        shape.  A check's allowance is ``allowance(lower, upper, extra)``."""
        shape = batch.lhs.shape
        rhs, slack = {}, {}
        for row in self.rows:
            if row.lattice is None:
                upper = rhs[row.name] = row.rhs(batch)
                lower = batch.lhs
            else:
                upper = rhs[row.lattice[0]]
                lower = np.broadcast_to(rhs[row.lattice[1]], shape)
            extra = 0.0
            for term in row.slack:
                if term not in slack:
                    slack[term] = term(batch)
                extra = extra + slack[term]
            yield row, lower, upper, extra

    def one_shot(self, operator: str, batch: Batch) -> BoundResult:
        """What ``bounds`` prints for corpus rows 0 and 1 at a batch's first
        x: |T| and the gated rows of the family, without lattice rows and
        ``sweep_only`` rows."""
        f, g = self.names
        shape = batch.lhs.shape
        rhs = {row.name: float(np.broadcast_to(row.rhs(batch), shape)[0, 0, 1])
               for row in self.rows
               if row.gated and row.lattice is None and not row.sweep_only(self.fam)}
        return BoundResult(operator=operator, n=self.n, x=float(batch.xs[0]), f=f,
                           g=g, lhs=float(batch.lhs[0, 0, 1]), rhs=rhs)


def evaluate_cell(operator: str, n: int, x: float, L: PointFunctional,
                  f: RealFunction, g: RealFunction, family: str) -> BoundResult:
    """One-shot rows of a positive family for its functional ``L`` at x: the
    sweep's table over a batch of one."""
    block = Block(family, n, [x], (f, g))
    return block.one_shot(operator, Batch(block, 0, _rows_at(block.funcs, L.nodes),
                                          L.weights[None, :]))


# ---------------------------------------------------------------------------
# the bound table


@dataclass(frozen=True)
class Bound:
    """One row of the table: ``families`` names the families it is stated
    for, or tests a family record for what the row reads.  ``rhs`` maps a
    batch to (batch, rows, rows) right-hand sides, or to an array that
    broadcasts to that shape, each ``slack`` term to an extra allowance (0
    where its source is absent).  A ``lattice`` row compares the rhs of two
    earlier rows, (upper, lower), in place of an rhs and |T|.  Rows not
    ``gated`` are recorded only.  ``bounds`` prints neither of these, nor a
    row whose ``sweep_only`` test the family's record passes."""

    name: str
    families: tuple[str, ...] | Callable[[ops.Family], bool]
    rhs: Callable[[Batch], np.ndarray] | None = None
    slack: tuple[Callable[[Batch], object], ...] = ()
    gated: bool = True
    lattice: tuple[str, str] | None = None
    sweep_only: Callable[[ops.Family], bool] = lambda _fam: False

    def covers(self, name: str, fam: ops.Family) -> bool:
        """Whether the row applies to the family ``name`` with record ``fam``."""
        if callable(self.families):
            return self.families(fam)
        return name in self.families


def _positive_point(fam: ops.Family) -> bool:
    return fam.weights is not None and not fam.signed


def _classical_ws(name: str, families: Callable[[ops.Family], bool], env) -> Bound:
    """(1/4) w~(f; s) w~(g; s) with the modulus grid slack, ``env(c)`` giving
    the envelope values at the step s."""
    return Bound(name, families, lambda c: 0.25 * _col(env(c)) * _row(env(c)),
                 (lambda c: modulus_slack(c.block.envelope_step, env(c), env(c)),))


def _lagrange_slack(c: Batch):
    """The norm forms carry the modulus slack times ||L_n|| (1 + ||L_n||)."""
    lam, w2 = c.block.lebesgue, c.block.env_two
    return lam * (1.0 + lam) * modulus_slack(c.block.envelope_step, w2, w2)


def _lagrange_form(name: str, coef) -> Bound:
    """coef(n, ||L_n||) w~(f; 2) w~(g; 2), with the Lagrange modulus slack."""
    return Bound(name, ("lagrange_cheb",),
                 lambda c: coef(c.block.n, c.block.lebesgue)
                 * (_col(c.block.env_two) * _row(c.block.env_two)), (_lagrange_slack,))


def _log_coef(log2_coef: float):
    """(1/2)(1 + (3/pi) ln n + c ln^2 n)."""
    def coef(n: int, _lam: float) -> float:
        ln = math.log(n)
        return 0.5 * (1.0 + (3.0 / math.pi) * ln + log2_coef * ln * ln)
    return coef


#: every right-hand side and slack term, in evaluation order
BOUNDS = (
    Bound("new_osc", lambda fam: fam.weights is not None,
          lambda c: c.pair_coef * c.osc_outer),
    Bound("new_osc_family", lambda fam: fam.coef is not None,
          lambda c: c.family_coef * c.osc_outer),
    Bound("lattice_family_vs_new", lambda fam: fam.coef is not None,
          lattice=("new_osc_family", "new_osc")),
    Bound("new_osc_degree", ("bernstein", "king"),
          lambda c: ops.degree_coefficient(c.block.n) * c.osc_outer),
    # working-grid ranges are not a theorem for the unbounded corpus members
    Bound("new_osc_globalrange", lambda fam: fam.truncated,
          lambda c: c.pair_coef * (_col(c.block.grid_osc) * _row(c.block.grid_osc)),
          gated=False),
    Bound("gruss_quarter", lambda fam: not fam.signed, lambda c: 0.25 * c.osc_outer,
          sweep_only=lambda fam: fam.weights is None),
    Bound("mercer", _positive_point,
          lambda c: 0.5 * np.minimum(_col(c.osc) * _row(c.mean_dev),
                                     _col(c.mean_dev) * _row(c.osc))),
    Bound("lattice_gruss_vs_mercer", _positive_point, lattice=("gruss_quarter", "mercer")),
    _classical_ws("classical_ws", lambda fam: fam.second_moment is not None,
                  lambda c: c.env_moment),
    _classical_ws("classical_ws_uniform", lambda fam: fam.ws_step is not None,
                  lambda c: c.block.env_uniform),
    _lagrange_form("classical_norm", lambda _n, lam: 0.25 * lam * (1.0 + lam)),
    _lagrange_form("classical_log", _log_coef(2.0 / math.pi ** 2)),
    _lagrange_form("classical_log_stated", _log_coef(2.0 / math.pi)),
    Bound("measure_support", ("measure_example",),
          lambda c: _per_x(0.5 * c.xs * (2.0 - c.xs)) * c.osc_outer),
)
