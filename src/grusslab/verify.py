"""Verification suites: bound sweeps, identity cross-checks, sign checks,
equality witnesses, conjecture scans, and deterministic report aggregation.

A sweep cell is one (family, degree, x, f, g) evaluation.  Blocks are keyed by
(family, degree) and run one after another in the canonical block order, so
reports are byte-identical for a fixed :class:`SuiteConfig`.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import bounds as bnd
from . import lagrange as lag
from . import operators as ops
from . import special
# cached_envelope is not called here; it stays bound in this module, which
# external profilers wrap along with the other bindings of the name
from .funcspace import (CORPUS_NAMES, DEFAULT_GRID, DEFAULT_SEED, DEFAULT_XMAX,
                        RealFunction, cached_envelope, check_inside, standard_corpus,
                        uniform_grid)

__all__ = [
    "SuiteConfig",
    "VerificationReport",
    "run_suite",
    "conjecture_scan",
    "sharpness_suite",
    "half_point_holds",
    "equality_holds",
    "one_shot_bounds",
]

#: bound names each family must contribute to the sweep, written out apart
#: from the bound table so that the coverage check does not check the table
#: against itself; lattice_* rows check the dominance orderings between
#: bounds, not |T| itself
FAMILY_BOUNDS = {
    "bernstein": ("new_osc", "new_osc_family", "new_osc_degree", "gruss_quarter",
                  "mercer", "classical_ws", "classical_ws_uniform",
                  "lattice_family_vs_new", "lattice_gruss_vs_mercer"),
    "sdelta": ("new_osc", "new_osc_family", "gruss_quarter", "mercer",
               "classical_ws", "classical_ws_uniform",
               "lattice_family_vs_new", "lattice_gruss_vs_mercer"),
    "king": ("new_osc", "new_osc_family", "new_osc_degree", "gruss_quarter",
             "mercer", "classical_ws",
             "lattice_family_vs_new", "lattice_gruss_vs_mercer"),
    "bbh": ("new_osc", "new_osc_family", "gruss_quarter", "mercer",
            "lattice_family_vs_new", "lattice_gruss_vs_mercer"),
    "two_point": ("new_osc", "gruss_quarter", "mercer",
                  "lattice_gruss_vs_mercer"),
    "szasz": ("new_osc", "new_osc_family", "new_osc_globalrange",
              "gruss_quarter", "mercer",
              "lattice_family_vs_new", "lattice_gruss_vs_mercer"),
    "baskakov": ("new_osc", "new_osc_family", "new_osc_globalrange",
                 "gruss_quarter", "mercer",
                 "lattice_family_vs_new", "lattice_gruss_vs_mercer"),
    "lagrange_cheb": ("new_osc", "classical_norm", "classical_log",
                      "classical_log_stated"),
    "measure_example": ("measure_support", "gruss_quarter"),
}

#: points of the conjecture scan's x grid
CONJECTURE_GRID = 513

#: failing checks a report lists in full; the rest are only counted
FAILURE_SAMPLES = 25


@dataclass(frozen=True)
class SuiteConfig:
    """Every setting of a verification run; each is a ``grusslab verify`` flag,
    and the flag defaults are these field defaults."""

    families: tuple[str, ...] = ops.FAMILIES
    degrees: tuple[int, ...] = (1, 2, 3, 4, 8, 16, 32, 64)
    x_grid: int = 257
    functions: tuple[str, ...] = CORPUS_NAMES
    tail_eps: float = ops.TAIL_EPS
    grid_n: int = DEFAULT_GRID
    x_max: float = DEFAULT_XMAX
    seed: int = DEFAULT_SEED
    conjecture_nmax: int = 64

    def __post_init__(self):
        if not (self.families and self.degrees and self.functions):
            raise ValueError("family, degree and function lists must be nonempty")
        for name in ("tail_eps", "x_max"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        for name, least in (("x_grid", 3), ("grid_n", 2), ("conjecture_nmax", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}")
        if min(self.degrees) < 1:
            raise ValueError("every degree must be at least 1")
        unknown = set(self.families) - set(ops.FAMILY)
        if unknown:
            raise ValueError(f"unknown families: {sorted(unknown)}")
        unknown = set(self.functions) - set(CORPUS_NAMES)
        if unknown:
            raise ValueError(f"unknown corpus members: {sorted(unknown)}")


@dataclass
class VerificationReport:
    schema: int
    config: dict
    environment: dict
    suites: dict
    coverage: dict
    passed: bool

    def to_json(self) -> str:
        payload = {
            "schema": self.schema,
            "config": self.config,
            "environment": self.environment,
            "suites": self.suites,
            "coverage": self.coverage,
            "pass": self.passed,
        }
        return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)


def one_shot_bounds(spec: ops.OperatorSpec, x: float, f: RealFunction,
                    g: RealFunction) -> bnd.BoundResult:
    """|T| and the rows the sweep gates for one operator, point and pair.  x
    must be admissible for every family; two_point and measure_example are
    then evaluated at their parameter a in place of x."""
    op = spec.spec_string()
    fam = ops.FAMILY[spec.family]
    fam.check_point(spec.family, x)
    if fam.one_point:
        x = spec.param
    if fam.signed or fam.weights is None:
        # signed functionals and the mixed measure, which has no point form,
        # take the sweep's own batch at one point
        block = bnd.Block(spec.family, spec.n, [x], (f, g))
        return block.one_shot(op, next(block.batches()))
    return bnd.evaluate_cell(op, spec.n, x, ops.point_functional(spec.family, spec.n, x),
                             f, g, family=spec.family)


# ---------------------------------------------------------------------------
# sweep internals


class _RowMargins:
    """One table row's (batch, rows, rows) margins upper - lower over a
    batch, reduced per x in one array pass: each x's flat C-order argmin and
    its minimum, and for a gated row that can fail the allowance, the failure
    mask and its count per x.  The per-x values are lists, which
    :meth:`_Accum.update` reads without a numpy call.

    A gated row can fail only where a margin is below -BASE_REL_TOL or not
    finite, or where its slack ``extra`` is negative or not finite: otherwise
    every allowance is at least BASE_REL_TOL (:func:`bounds.allowance`).
    Those tests reduce the whole batch with numpy, which carries a NaN
    through, never with Python's min, which can drop one; a row that passes
    them keeps ``allow``, ``bad`` and ``bad_count`` None.
    """

    def __init__(self, row: bnd.Bound, lower: np.ndarray, upper, extra):
        self.bound = row.name
        self.lower = lower
        self.margins = margins = upper - lower
        flat = margins.reshape(len(margins), -1)
        self.size = flat.shape[1]
        # argmin stops at the first NaN and min returns it: both name one cell
        self.argmin = flat.argmin(axis=1).tolist()
        mins = flat.min(axis=1)
        self.min = mins.tolist()
        self.allow = self.bad = self.bad_count = None
        if row.gated and not (mins.min() >= -bnd.BASE_REL_TOL
                              and flat.max() < math.inf and _finite_nonnegative(extra)):
            self.allow = bnd.allowance(lower, upper, extra)
            self.bad = ~((margins + self.allow >= 0.0) & np.isfinite(margins))
            self.bad_count = self.bad.reshape(len(margins), -1).sum(axis=1).tolist()


def _finite_nonnegative(a) -> bool:
    """Whether a, a float or an array, is finite and at least 0 throughout;
    a NaN is neither, and fails every comparison here."""
    if isinstance(a, float):
        return 0.0 <= a < math.inf
    return bool(a.min() >= 0.0 and a.max() < math.inf)


class _Accum:
    """Worst margins, failures, sign statistics and the error, if any, of one
    sweep block."""

    def __init__(self, family: str, n: int):
        self.family = family
        self.n = n
        self.worst: dict[str, dict] = {}
        self.failures: list[dict] = []
        self.failures_total = 0
        self.checks = 0
        self.cells = 0
        # (value, x) of the lowest T(e1, e1), T(e1, e2) and highest T(e1, 1 - e1)
        self.com: tuple[float, float] | None = None
        self.anti: tuple[float, float] | None = None
        self.error: dict | None = None

    def update(self, row: _RowMargins, b: int, x: float,
               names: tuple[str, ...]) -> None:
        """Fold one table row at the batch's b-th point x into the block.

        The row arrives reduced per x (:class:`_RowMargins`); its arrays are
        indexed only for a new worst margin or a failure.  Called once per
        (bound, x), in x order and then table order, so the worst margin
        keeps the earliest x, then f, then g, and the failure samples keep
        that order too.
        """
        self.checks += row.size
        m = row.min[b]
        cur = self.worst.get(row.bound)
        # a non-finite margin (argmin stops at a NaN) fails below; it never
        # stands as the worst margin, which the report must carry as a number
        if math.isfinite(m) and (cur is None or m < cur["margin"]):
            i, j = divmod(row.argmin[b], row.margins.shape[-1])
            lhs = float(row.lower[b, i, j])
            self.worst[row.bound] = {
                "margin": m,
                "operator": self.family,
                "n": self.n,
                "x": float(x),
                "f": names[i],
                "g": names[j],
                "lhs": lhs,
                "rhs": lhs + m,
            }
        if row.bad_count is not None and row.bad_count[b]:
            # a non-finite lhs, rhs or margin fails: it leaves a non-finite margin
            self.failures_total += row.bad_count[b]
            if len(self.failures) < FAILURE_SAMPLES:
                lower, margins, allow = row.lower[b], row.margins[b], row.allow[b]
                for i, j in zip(*np.nonzero(row.bad[b])):
                    if len(self.failures) >= FAILURE_SAMPLES:
                        break
                    self.failures.append({
                        "bound": row.bound, "operator": self.family, "n": self.n,
                        "x": float(x), "f": names[int(i)], "g": names[int(j)],
                        "lhs": _json_number(lower[i, j]),
                        "margin": _json_number(margins[i, j]),
                        "allowance": _json_number(allow[i, j]),
                    })

    def sign_stats(self, xs: np.ndarray, t_mat: np.ndarray, t_anti: np.ndarray,
                   names: tuple[str, ...]) -> None:
        """Fold one batch of T (batch, rows, rows) and T(e1, 1 - e1) (batch,)
        into the block's extrema; ``names`` holds e1."""
        idx = {nm: k for k, nm in enumerate(names)}
        i = idx["e1"]
        cols = [i, idx["e2"]] if "e2" in idx else [i]
        self.com = _extreme(self.com, xs, np.min(t_mat[:, i, cols], axis=1), True)
        self.anti = _extreme(self.anti, xs, t_anti, False)


def _beyond(new: float, cur: float | None, lowest: bool) -> bool:
    """Whether ``new`` replaces ``cur`` as the lowest (or highest) value.  A
    non-finite value replaces any finite one and then stays, so a NaN is
    never dropped the way builtin min, max and < drop it."""
    if cur is None:
        return True
    if not math.isfinite(cur):
        return False
    return not math.isfinite(new) or (new < cur if lowest else new > cur)


def _extreme(cur: tuple[float, float] | None, xs: np.ndarray, vals: np.ndarray,
             lowest: bool) -> tuple[float, float]:
    """Fold values at points xs into ``cur`` = (value, x): the lowest (or
    highest), or the first non-finite one."""
    bad = ~np.isfinite(vals)
    if bad.any():
        k = int(bad.argmax())
    else:
        k = int(vals.argmin() if lowest else vals.argmax())
    new = (float(vals[k]), float(xs[k]))
    return new if _beyond(new[0], None if cur is None else cur[0], lowest) else cur


def _sign_record(cur: tuple[float, dict] | None, stat: tuple[float, float] | None,
                 lowest: bool, family: str, n: int) -> tuple[float, dict] | None:
    """Fold a block's (value, x) sign statistic into the run's (value, witness)."""
    if stat is None or not _beyond(stat[0], None if cur is None else cur[0], lowest):
        return cur
    wit = {"operator": family, "n": n}
    if not math.isfinite(stat[0]):
        wit["x"] = stat[1]  # a non-finite statistic also names its x
    return stat[0], wit


def _json_number(v) -> float | str:
    """A float, or its name ('nan', 'inf', '-inf'), which JSON can carry."""
    v = float(v)
    return v if math.isfinite(v) else str(v)


def _degrees(family: str, cfg: SuiteConfig) -> tuple[int, ...]:
    return (1,) if ops.FAMILY[family].one_point else cfg.degrees


def _x_grid(f: RealFunction, cfg: SuiteConfig) -> np.ndarray:
    """The sweep's points: ``cfg.x_grid`` of them over f's working interval."""
    return np.linspace(*f.interval, cfg.x_grid)


def _sweep_block(family: str, n: int, cfg: SuiteConfig, corpus,
                 names: tuple[str, ...]) -> _Accum:
    """Every row of the bound table over every x of one (family, n) block.

    Each batch of x is evaluated row by row, and each row's margins are
    reduced once over the whole batch (:class:`_RowMargins`).  They are then
    folded into the accumulator per x and row, in that order, so its
    tie-breaks and failure samples do not depend on how the x are batched.
    An exception is kept on the accumulator with the x range of the batch it
    came from.
    """
    acc = _Accum(family, n)
    block = None
    # sign statistics are stated for positive functionals only
    e1_row = (names.index("e1") if "e1" in names and not ops.FAMILY[family].signed
              else None)
    funcs = [corpus[nm] for nm in names]
    try:
        block = bnd.Block(family, n, _x_grid(funcs[0], cfg), funcs,
                          grid_n=cfg.grid_n, tail_eps=cfg.tail_eps)
        for batch in block.batches():
            rows = [_RowMargins(*evaluated) for evaluated in block.evaluate(batch)]
            acc.cells += batch.lhs.size
            for b, x in enumerate(batch.xs.tolist()):
                for row in rows:
                    acc.update(row, b, x, names)
            if e1_row is not None:
                acc.sign_stats(batch.xs, batch.t, batch.anti_t(e1_row), names)
    except Exception as exc:  # recorded, not fatal
        span = None if block is None else block.x_span
        acc.error = {"operator": family, "n": n,
                     "x_range": None if span is None else list(span),
                     "error_type": type(exc).__name__, "message": str(exc)}
    return acc


# ---------------------------------------------------------------------------
# non-sweep suites


def conjecture_scan(n_max: int, grid: int = CONJECTURE_GRID) -> list[dict]:
    """Evidence table for the three shape conjectures about phi_n.

    The convexity and unimodality scans are reported only; the global-minimum
    statement is proven, and each row is gated by :func:`half_point_holds`.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    xs = uniform_grid(0.0, 1.0, grid).nodes
    findings = []
    for n in range(1, n_max + 1):
        phi = _phi_grid(n, xs)
        phi_half = special.phi_bernstein(n, 0.5)
        d1 = np.diff(phi)
        d2 = np.diff(phi, 2)
        signs = np.sign(d1[np.abs(d1) > 1e-15])
        changes = int(np.count_nonzero(np.diff(signs) != 0))
        findings.append({
            "n": n,
            "min_second_difference": float(d2.min()) if d2.size else 0.0,
            "first_difference_sign_changes": changes,
            "min_gap_to_half": float(np.min(phi - phi_half)),
        })
    return findings


def half_point_holds(row: dict) -> bool:
    """The asserted conjecture on one ``conjecture_scan`` row: phi_n stays at
    or above phi_n(1/2), up to rounding.  A NaN gap fails, also where a report
    row carries it by name ("nan")."""
    return float(row["min_gap_to_half"]) >= -1e-12


def _phi_grid(n: int, xs: np.ndarray) -> np.ndarray:
    """Vectorized sum of squared binomial masses over a grid of x values.

    phi_n(x) = phi_n(1 - x), and each value is computed from min(x, 1 - x)
    alone; so on a grid whose mirror 1 - xs is xs reversed, bit for bit, the
    first half is computed and mirrored onto the second with the same bits.
    """
    if np.array_equal(1.0 - xs, xs[::-1]):
        half = _phi_direct(n, xs[:(xs.size + 1) // 2])
        return np.concatenate((half, half[:xs.size // 2][::-1]))
    return _phi_direct(n, xs)


def _phi_direct(n: int, xs: np.ndarray) -> np.ndarray:
    """phi_n at each x of xs, each from min(x, 1 - x)."""
    p = np.minimum(xs, 1.0 - xs)  # phi is invariant under weight reversal
    q = 1.0 - p
    with np.errstate(divide="ignore", invalid="ignore"):
        base = np.where(p > 0.0, p / q, 0.0)
    ks = np.arange(n, dtype=float)
    ratios = base[:, None] * ((n - ks) / (ks + 1.0))[None, :]
    w = np.concatenate([np.ones((xs.size, 1)), np.cumprod(ratios, axis=1)], axis=1)
    w *= (q ** n)[:, None]
    point_mass = p <= 0.0
    w[point_mass] = 0.0
    w[point_mass, 0] = 1.0
    return np.sum(w * w, axis=1)


def _witness(name: str, batch: bnd.Batch, bound: str) -> dict:
    """|T| of a batch's first point and first pair of rows against its
    block's table row ``bound`` there."""
    block = batch.block
    row = next(r for r in block.rows if r.name == bound)
    lhs = float(batch.lhs[0, 0, 1])
    rhs = float(np.broadcast_to(row.rhs(batch), batch.lhs.shape)[0, 0, 1])
    return {"witness": name, "n": block.n, "x": float(batch.xs[0]), "lhs": lhs,
            "rhs": rhs, "gap": abs(lhs - rhs)}


def sharpness_suite() -> list[dict]:
    """Equality witnesses on (e1, e1), each read from the bound table and
    gated by :func:`equality_holds`: classical_ws for Bernstein, new_osc and
    mercer for the two-point functional, new_osc for Lagrange at two nodes
    and for the signed two-point functional (1.5, -0.5) on {0, 1}.  A
    family's witness is the batch of a one-point block; the signed
    functional has no family, so its weights form a batch of their own on
    the block of a signed record."""
    e1 = (standard_corpus((0.0, 1.0))["e1"],) * 2
    e1pm = (standard_corpus((-1.0, 1.0))["e1"],) * 2

    def point(family, n, x, funcs=e1):
        return next(bnd.Block(family, n, [x], funcs).batches())

    out = [_witness("bernstein_classical_identity", point("bernstein", n, x), "classical_ws")
           for n, x in ((1, 0.5), (4, 0.3), (8, 0.9), (16, 0.12))]
    two_point = [point("two_point", 1, a) for a in (0.1, 0.25, 0.5, 0.9)]
    out += [_witness("two_point_oscillation", b, "new_osc") for b in two_point]
    out += [_witness("two_point_mercer", b, "mercer") for b in two_point]
    out.append(_witness("lagrange_pair_product", point("lagrange_cheb", 2, 0.0, e1pm),
                        "new_osc"))
    v = np.stack([f.values(np.array([0.0, 1.0])) for f in e1])
    signed = bnd.Batch(bnd.Block("lagrange_cheb", 1, [-0.5], e1), 0, v,
                       np.array([[1.5, -0.5]]))
    out.append(_witness("signed_two_point", signed, "new_osc"))
    return out


def equality_holds(row: dict) -> bool:
    """Whether one ``sharpness_suite`` witness holds with equality, up to
    rounding.  A NaN gap fails."""
    return row["gap"] <= 1e-10


# ---------------------------------------------------------------------------
# run_suite


def _identity_suite(cfg: SuiteConfig, corpora) -> dict:
    """T two ways at five sample points per exact (family, degree): as a Gram
    matrix ``L(f g) - L(f) L(g)`` over every corpus pair at once, and as the
    pair sum :func:`operators.pairwise_identity`, one call per pair, read
    from the functional's :class:`operators.PairForm`, built once.  The Gram
    matrix is formed here from the form's node values, apart from the sweep's
    :class:`bounds.Batch`, so the cross-check does not share its code; the
    domain check of :func:`operators.chebyshev_T` is kept, once per
    functional and corpus member."""
    names = cfg.functions
    worst = {"tol_ratio": 0.0}
    worst_ratio = 0.0
    checks = 0
    ok = True
    eps = np.finfo(float).eps
    for family in cfg.families:
        fam = ops.FAMILY[family]
        if fam.nodes is None:  # exact functionals only: fixed nodes, no tail
            continue
        corpus = corpora[fam.domain]
        funcs = [corpus[nm] for nm in names]
        xs = _x_grid(funcs[0], cfg)
        sample = xs[:: max(1, (len(xs) - 1) // 4)]
        for n in _degrees(family, cfg):
            for x in sample:
                L = ops.point_functional(family, n, float(x), cfg.tail_eps)
                w = L.weights
                lo, hi = L.nodes.min(), L.nodes.max()
                for f in funcs:
                    check_inside(f, lo, hi)
                form = ops.PairForm(L, funcs)
                fv = form.values
                a = fv @ w
                gram = ((fv * w) @ fv.T - np.outer(a, a)).tolist()
                scale_f = (1.0 + np.max(np.abs(fv), axis=1)).tolist()
                for i, f in enumerate(funcs):
                    for j, g in enumerate(funcs):
                        t1 = gram[i][j]
                        t2 = ops.pairwise_identity(form, f, g)
                        # rounding floor: both routes sum ~size terms of this scale
                        floor = 256.0 * eps * scale_f[i] * scale_f[j]
                        dev = abs(t1 - t2)
                        tol = 1e-10 * max(abs(t1), abs(t2)) + floor
                        checks += 1
                        # dev is non-finite whenever t1 or t2 is; the first
                        # such check fails the suite and stays its witness
                        ratio = dev / tol
                        if _beyond(ratio, worst_ratio, False):
                            worst_ratio = ratio
                            worst = {"tol_ratio": _json_number(worst_ratio),
                                     "deviation": _json_number(dev),
                                     "operator": family, "n": n,
                                     "x": float(x), "f": f.name, "g": g.name,
                                     "chebyshev_T": _json_number(t1),
                                     "pair_sum": _json_number(t2)}
                        if not math.isfinite(dev) or dev > tol:
                            ok = False
    return {"pass": ok, "checks": checks, "worst": worst}


def _environment_stamp() -> dict:
    import scipy  # imported here: only a report reads it
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": sys.platform,
    }


def run_suite(cfg: SuiteConfig | None = None) -> VerificationReport:
    """Run every verification suite and aggregate a deterministic report."""
    cfg = cfg or SuiteConfig()
    corpora = {
        dom: standard_corpus(dom, cfg.seed, cfg.x_max)
        for dom in {ops.FAMILY[f].domain for f in cfg.families}
    }
    names = cfg.functions

    worst_margins: dict[str, dict] = {}
    per_family: dict[str, dict] = {}
    failures: list[dict] = []
    block_errors: list[dict] = []
    failures_total = 0
    cells = checks = 0
    com = anti = None  # (value, witness) of the extreme sign statistics
    fam_seen, bound_seen = set(), set()
    blocks = [(family, n) for family in cfg.families for n in _degrees(family, cfg)]
    for family, n in blocks:
        acc = _sweep_block(family, n, cfg, corpora[ops.FAMILY[family].domain], names)
        if acc.error is not None:
            block_errors.append(acc.error)
            continue
        fam_seen.add(family)
        cells += acc.cells
        checks += acc.checks
        failures_total += acc.failures_total
        failures.extend(acc.failures[: max(0, FAILURE_SAMPLES - len(failures))])
        fam_worst = per_family.setdefault(family, {})
        for bound_name, wrec in sorted(acc.worst.items()):
            bound_seen.add(bound_name)
            cur = worst_margins.get(bound_name)
            if cur is None or wrec["margin"] < cur["margin"]:
                worst_margins[bound_name] = wrec
            curf = fam_worst.get(bound_name)
            if curf is None or wrec["margin"] < curf["margin"]:
                fam_worst[bound_name] = wrec
        com = _sign_record(com, acc.com, True, family, n)
        anti = _sign_record(anti, acc.anti, False, family, n)

    # coverage: every requested family contributed every expected bound
    missing = {}
    for family in cfg.families:
        lost = set(FAMILY_BOUNDS[family]) - set(per_family.get(family, {}))
        if lost:
            missing[family] = sorted(lost)

    sweep_pass = failures_total == 0 and not block_errors

    identity = _identity_suite(cfg, corpora)

    have_e1 = "e1" in names
    com_ok = com is None or (math.isfinite(com[0]) and com[0] >= -1e-12)
    anti_ok = anti is None or (math.isfinite(anti[0]) and anti[0] <= 1e-12)
    monotone = {
        "pass": (not have_e1) or (com_ok and anti_ok),
        "min_comonotone_T": None if com is None else _json_number(com[0]),
        "max_antimonotone_T": None if anti is None else _json_number(anti[0]),
        "comonotone_witness": None if com is None else com[1],
        "antimonotone_witness": None if anti is None else anti[1],
    }

    witnesses = sharpness_suite()
    worst = None
    for w in witnesses:
        if _beyond(w["gap"], None if worst is None else worst["gap"], False):
            worst = w
    sharp = {"pass": equality_holds(worst), "max_abs_gap": _json_number(worst["gap"]),
             "witnesses": [{k: _json_number(v) if isinstance(v, float) else v
                            for k, v in w.items()} for w in witnesses]}

    conj = conjecture_scan(cfg.conjecture_nmax, min(cfg.grid_n, CONJECTURE_GRID))
    conj_pass = all(half_point_holds(f) for f in conj)
    conj = [{k: _json_number(v) if isinstance(v, float) else v for k, v in f.items()}
            for f in conj]

    # the Rivlin rows go with the norm-form rows, which read ||L_n||
    rivlin = ([lag.rivlin_row(n) for n in cfg.degrees]
              if any("classical_norm" in FAMILY_BOUNDS[f] for f in cfg.families) else [])

    suites = {
        "bound_sweep": {
            "pass": sweep_pass,
            "cells": cells,
            "margin_checks": checks,
            "failures": failures_total,
            "failure_samples": failures,
            "block_errors": block_errors,
            "worst_margins": worst_margins,
            "per_family_worst": per_family,
            "note": "bounds in report_only are recorded, not gated",
            "report_only": [b.name for b in bnd.BOUNDS if not b.gated],
            "declared_slack": {
                "base": "1e-9 * max(1, |lhs|, |rhs|)",
                "truncated_families": "none: T and every rhs are taken on the "
                                      "window weights divided by their sum",
                "classical_modulus_grid": "h (w_f + w_g) + 4 h^2, h = envelope "
                                          "grid step",
            },
        },
        "identity_equivalence": identity,
        "monotone_signs": monotone,
        "sharpness": sharp,
        "conjectures": {
            "pass": conj_pass,
            "findings": conj,
            "note": "convexity/unimodality scanned only; the half-point "
                    "minimum is asserted",
        },
        "lagrange_diagnostics": {"rivlin": rivlin},
    }
    passed = bool(sweep_pass and identity["pass"] and monotone["pass"]
                  and sharp["pass"] and conj_pass and not missing)
    return VerificationReport(
        schema=1,
        config=dataclasses.asdict(cfg),
        environment=_environment_stamp(),
        suites=suites,
        coverage={"families": sorted(fam_seen), "bounds": sorted(bound_seen),
                  "missing": missing},
        passed=passed,
    )
