"""Output checks computed apart from the program.

Weights come from `scipy.stats` (binom, poisson, nbinom), from the hat-function
and two-point closed forms, from the Lagrange product formula, or from
Gauss-Legendre quadrature for the mixed measure.  Corpus members are evaluated
from their README formulas; only `randlip`, which is seeded data, is read from
the program's corpus.  Every check returns a list of problems, each starting
with the name of the check that found it, so a tampered output can be shown
to fail the check meant to catch it.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy import stats

from workloads import CORPUS, X_MAX

FAMILIES = ("bernstein", "sdelta", "szasz", "baskakov", "bbh",
            "king", "two_point", "measure_example", "lagrange_cheb")
DEFAULT_DEGREES = (1, 2, 3, 4, 8, 16, 32, 64)
DEFAULT_XGRID = 257
TRUNCATED = ("szasz", "baskakov")
UNIT, RAY, SYM = (0.0, 1.0), (0.0, math.inf), (-1.0, 1.0)
DOMAIN = {"szasz": RAY, "baskakov": RAY, "bbh": RAY, "lagrange_cheb": SYM}

BASE_REL = 1e-9
TAIL_EPS = 1e-12      # the program's default truncation mass
#: upper estimate of the achieved truncation mass; the README declares it
#: >= 1e-12 and says rounding can leave a deficit "of order 1e-11"
TAIL = 1e-11
QUAD_N = 2048         # Simpson panels, the program's default
ENV_GRID = 1001       # envelope grid, the program's default
CLOSED_FORM_TOL = 1e-12


def family_bounds(family: str) -> set[str]:
    """Bound names a sweep of `family` must report, from the README table."""
    positive = family not in ("lagrange_cheb",)
    discrete = family != "measure_example"
    out = set()
    if discrete:
        out.add("new_osc")
    if family in ("bernstein", "sdelta", "szasz", "baskakov", "bbh", "king"):
        out |= {"new_osc_family", "lattice_family_vs_new"}
    if family in ("bernstein", "king"):
        out.add("new_osc_degree")
    if positive:
        out.add("gruss_quarter")
    if positive and discrete:
        out |= {"mercer", "lattice_gruss_vs_mercer"}
    if family in ("bernstein", "sdelta", "king"):
        out.add("classical_ws")
    if family in ("bernstein", "sdelta"):
        out.add("classical_ws_uniform")
    if family == "lagrange_cheb":
        out |= {"classical_norm", "classical_log", "classical_log_stated"}
    if family == "measure_example":
        out.add("measure_support")
    if family in TRUNCATED:
        out.add("new_osc_globalrange")
    return out


def one_shot_bounds(family: str) -> set[str]:
    """Right-hand sides one `bounds` query returns (no lattice or report-only rows)."""
    if family == "measure_example":
        return {"measure_support"}
    return {b for b in family_bounds(family)
            if not b.startswith("lattice_") and b != "new_osc_globalrange"}


class Corpus:
    """The ten corpus members per domain; `randlip` comes from the program."""

    def __init__(self, randlip: dict):
        self._randlip = randlip          # domain -> callable on arrays
        self._ranges: dict = {}

    def values(self, name: str, domain, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        mid = 0.5 if math.isinf(domain[1]) else 0.5 * (domain[0] + domain[1])
        if name in ("e0", "dirichlet"):
            return np.ones_like(xs)
        formulas = {
            "e1": lambda x: x,
            "e2": lambda x: x * x,
            "hat": lambda x: x * (1.0 - x),
            "absmid": lambda x: np.abs(x - mid),
            "sinpi": lambda x: np.sin(np.pi * x),
            "expneg": lambda x: np.exp(-x),
            "halfstep": lambda x: np.floor(2.0 * x) / 2.0,
        }
        if name in formulas:
            return formulas[name](xs)
        if name == "randlip":
            return np.asarray(self._randlip[domain](xs), dtype=float)
        raise ValueError(f"unknown corpus member {name!r}")

    def grid_range(self, name: str, domain) -> float:
        """Range over the working interval on a grid holding every kink and jump."""
        key = (name, domain)
        if key not in self._ranges:
            lo, hi = domain
            hi = X_MAX if math.isinf(hi) else hi
            v = self.values(name, domain, np.linspace(lo, hi, 32 * 128 + 1))
            self._ranges[key] = float(v.max() - v.min())
        return self._ranges[key]


def king_point(n: int, x: float) -> float:
    """Root r in [0, 1] of r/n + (n-1)/n r^2 = x^2."""
    if n == 1:
        return x * x
    a, b = (n - 1.0) / n, 1.0 / n
    return (-b + math.sqrt(b * b + 4.0 * a * x * x)) / (2.0 * a)


def lagrange_weights(n: int, x: float) -> tuple[np.ndarray, np.ndarray]:
    """l_k(x) = prod_{j != k} (x - x_j)/(x_k - x_j) at first-kind Chebyshev nodes."""
    nodes = np.cos((2.0 * np.arange(1, n + 1) - 1.0) * math.pi / (2.0 * n))
    diff = nodes[:, None] - nodes[None, :]
    factors = (x - nodes)[None, :] / np.where(np.eye(n, dtype=bool), 1.0, diff)
    factors[np.eye(n, dtype=bool)] = 1.0
    return nodes, np.prod(factors, axis=1)


def _gauss_legendre_unit(panels: int = 64, order: int = 20):
    t, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(0.0, 1.0, panels + 1)
    half = 0.5 * np.diff(edges)
    xs = (edges[:-1, None] + half[:, None] * (t[None, :] + 1.0)).ravel()
    ws = (half[:, None] * w[None, :]).ravel()
    return xs, ws


_GL_X, _GL_W = _gauss_legendre_unit()


def functional(family: str, n: int, x: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the family's point functional at x, on its support."""
    if family in ("bernstein", "bbh", "king"):
        k = np.arange(n + 1)
        p = {"bernstein": x, "bbh": x / (1.0 + x), "king": king_point(n, x)}[family]
        nodes = k / (n - k + 1.0) if family == "bbh" else k / n
        w = stats.binom.pmf(k, n, p)
    elif family == "sdelta":
        k = np.arange(n + 1)
        nodes, w = k / n, np.clip(1.0 - np.abs(n * x - k), 0.0, None)
    elif family == "szasz":
        lam = n * x
        k = np.arange(int(lam + 40.0 * math.sqrt(lam) + 100.0))
        nodes, w = k / n, stats.poisson.pmf(k, lam)
    elif family == "baskakov":
        mean = n * x
        k = np.arange(int(mean + 40.0 * math.sqrt(mean * (1.0 + x))
                          + 60.0 * (1.0 + x) + 100.0))
        nodes, w = k / n, stats.nbinom.pmf(k, n, 1.0 / (1.0 + x))
    elif family == "two_point":
        nodes, w = np.array([0.0, 1.0]), np.array([1.0 - x, x])
    elif family == "measure_example":
        # x is the mass a of the Lebesgue part; the rest sits at 1/2
        nodes = np.append(_GL_X, 0.5)
        w = np.append(x * _GL_W, 1.0 - x)
    elif family == "lagrange_cheb":
        nodes, w = lagrange_weights(n, x)
    else:
        raise ValueError(f"unknown family {family!r}")
    keep = w != 0.0
    return nodes[keep], w[keep]


class Cell:
    """One (family, n, x, f, g) recomputed: |T| and the quantities around it."""

    def __init__(self, corpus: Corpus, family: str, n: int, x: float,
                 f: str, g: str):
        domain = DOMAIN.get(family, UNIT)
        nodes, w = functional(family, n, x)
        fv = corpus.values(f, domain, nodes)
        gv = corpus.values(g, domain, nodes)
        self.family, self.n, self.w = family, n, w
        self.abs_t = abs(float(w @ ((fv - w @ fv) * (gv - w @ gv))))
        if family == "measure_example":
            # the measure charges all of [0, 1], so ranges are taken there
            self.osc_f = corpus.grid_range(f, domain)
            self.osc_g = corpus.grid_range(g, domain)
        else:
            # truncated families: oscillations over the nodes a 1e-12 tail
            # cut keeps, as the declared slack and the program define them
            cut = (int(np.searchsorted(np.cumsum(w), 1.0 - TAIL_EPS)) + 1
                   if family in TRUNCATED else len(w))
            self.osc_f = float(np.ptp(fv[:cut]))
            self.osc_g = float(np.ptp(gv[:cut]))
        self.range_f = corpus.grid_range(f, domain)
        self.range_g = corpus.grid_range(g, domain)
        aw = np.abs(w)
        scale = math.sqrt(float(aw @ (fv * fv)) * float(aw @ (gv * gv)))
        self.tol = BASE_REL * (1.0 + scale) + self.slack_extra()

    def slack_extra(self) -> float:
        """Declared truncation or quadrature slack (README "Tolerances")."""
        if self.family in TRUNCATED:
            return 3.0 * TAIL * (self.osc_f + 1.0) * (self.osc_g + 1.0)
        if self.family == "measure_example":
            return (8.0 / QUAD_N) * (1.0 + self.osc_f * self.osc_g)
        return 0.0

    def rhs_slack(self, bound: str, lhs: float, rhs: float) -> float:
        s = BASE_REL * max(1.0, abs(lhs), abs(rhs)) + self.slack_extra()
        if bound.startswith("classical_"):
            # sampled moduli: h (w_f + w_g) + 4 h^2, with each modulus at most
            # the member's range; the Lagrange norm forms carry lam (1 + lam),
            # lam <= 1 + (2/pi) ln n
            h = (2.0 if self.family == "lagrange_cheb" else 1.0) / (ENV_GRID - 1)
            extra = h * (self.range_f + self.range_g) + 4.0 * h * h
            if self.family == "lagrange_cheb":
                lam = 1.0 + (2.0 / math.pi) * math.log(self.n)
                extra *= lam * (1.0 + lam)
            s += extra
        return s

    def quarter_bound(self) -> float:
        """The quarter-range Gruss bound; for signed Lagrange weights the
        pair-sum form osc_f osc_g sum_{k<l} |w_k w_l| takes its place."""
        if self.family == "lagrange_cheb":
            a = np.abs(self.w)
            pair = 0.5 * (float(a.sum()) ** 2 - float(a @ a))
            return pair * self.osc_f * self.osc_g
        return 0.25 * self.osc_f * self.osc_g


# ---------------------------------------------------------------------------
# verify


def verify_config(argv: list[str]) -> dict:
    """Families, degrees and x grid a `verify` argv asks for."""
    opts = dict(zip(argv[1::2], argv[2::2]))
    fams = opts.get("--families")
    degs = opts.get("--degrees")
    return {
        "families": tuple(fams.split(",")) if fams else FAMILIES,
        "degrees": tuple(int(d) for d in degs.split(",")) if degs else DEFAULT_DEGREES,
        "xgrid": int(opts.get("--xgrid", DEFAULT_XGRID)),
    }


def block_count(cfg: dict) -> int:
    """Sweep blocks: one per (family, degree), one for each one-point family."""
    return sum(1 if f in ("two_point", "measure_example") else len(cfg["degrees"])
               for f in cfg["families"])


def check_verify(corpus: Corpus, argv: list[str], text: str,
                 first_text: str | None) -> list[str]:
    """Checks on one `verify` report, whatever its exit code.  Witnesses are
    recomputed on the run's first report; later ones must repeat it byte for
    byte."""
    if first_text is not None:
        if text != first_text:
            return ["repeat: report differs from the run's first report"]
        return []
    problems = []
    report = json.loads(text)
    if report.get("pass") is not True:
        problems.append("pass: report pass is not true")
    cfg = verify_config(argv)
    fams = cfg["families"]
    want_bounds = set().union(*(family_bounds(f) for f in fams))
    cov = report["coverage"]
    if sorted(cov["families"]) != sorted(fams):
        problems.append(f"coverage: families {cov['families']} != {sorted(fams)}")
    if set(cov["bounds"]) != want_bounds or len(cov["bounds"]) != len(want_bounds):
        problems.append(f"coverage: bounds {cov['bounds']} != {sorted(want_bounds)}")
    blocks = block_count(cfg)
    cells = blocks * cfg["xgrid"] * len(CORPUS) ** 2
    sweep = report["suites"]["bound_sweep"]
    if sweep["cells"] != cells:
        problems.append(f"cells: {sweep['cells']} != {blocks} blocks x "
                        f"{cfg['xgrid']} x {len(CORPUS) ** 2}")
    witnesses = list(sweep["worst_margins"].items())
    for per in sweep["per_family_worst"].values():
        witnesses.extend(per.items())
    for bound, wit in witnesses:
        problems.extend(check_witness(corpus, bound, wit))
    return problems


def check_witness(corpus: Corpus, bound: str, wit: dict) -> list[str]:
    cell = Cell(corpus, wit["operator"], wit["n"], wit["x"], wit["f"], wit["g"])
    lhs, rhs = wit["lhs"], wit["rhs"]
    tag = f"{bound} {wit['operator']}:{wit['n']} x={wit['x']!r} {wit['f']},{wit['g']}"
    if bound.startswith("lattice_"):
        # lattice rows compare two bounds, so lhs is a bound, not |T|
        if lhs - rhs > cell.rhs_slack(bound, lhs, rhs):
            return [f"lattice: {tag} lhs {lhs!r} above rhs {rhs!r}"]
        return []
    problems = []
    if abs(lhs - cell.abs_t) > cell.tol:
        problems.append(f"witness_lhs: {tag} reported {lhs!r}, recomputed "
                        f"{cell.abs_t!r} (tol {cell.tol:.3g})")
    quarter = cell.quarter_bound()
    if lhs > quarter + cell.tol + BASE_REL * max(1.0, quarter):
        problems.append(f"witness_gruss: {tag} lhs {lhs!r} above {quarter!r}")
    return problems


# ---------------------------------------------------------------------------
# bounds


def check_query(corpus: Corpus, q, text: str) -> list[str]:
    """Checks on one `bounds` query result that exited 0."""
    rec = json.loads(text)
    problems = []
    if (rec["f"], rec["g"], rec["x"]) != (q.f, q.g, q.x) or rec["n"] != q.n:
        problems.append(f"echo: {q} answered {rec['operator']} {rec['f']},"
                        f"{rec['g']} x={rec['x']!r}")
    want = one_shot_bounds(q.family)
    if set(rec["rhs"]) != want:
        problems.append(f"keys: {q} rhs {sorted(rec['rhs'])} != {sorted(want)}")
    cell = Cell(corpus, q.family, q.n, q.x, q.f, q.g)
    lhs = rec["lhs"]
    if abs(lhs - cell.abs_t) > cell.tol:
        problems.append(f"lhs: {q} reported {lhs!r}, recomputed {cell.abs_t!r}")
    for bound, rhs in rec["rhs"].items():
        if rhs < cell.abs_t - cell.rhs_slack(bound, cell.abs_t, rhs):
            problems.append(f"rhs: {q} {bound} {rhs!r} below |T| {cell.abs_t!r}")
    if q.family == "bernstein" and q.f == q.g == "e1":
        exact = q.x * (1.0 - q.x) / q.n
        if abs(lhs - exact) > CLOSED_FORM_TOL:
            problems.append(f"closed_form: {q} T(e1, e1) {lhs!r} != x(1-x)/n "
                            f"{exact!r}")
    return problems
