"""Per-layer trace taken from outside the program.

Module-level functions are wrapped where their callers look them up.  A name
imported with ``from ... import`` is a separate binding, so each binding is
wrapped: `cached_envelope` in funcspace, verify, bounds and lagrange,
`_binomial_weights` in operators and special, `chebyshev_T` in operators,
bounds and lagrange.  Spans (layer, start, end, parent) go to flat arrays in
memory and are written out once, at the end of the run.  Within one layer only
the outermost call is recorded, so recursion and wrapped bindings that call
each other are not counted twice.
"""

from __future__ import annotations

import functools
import json
import time
from array import array

#: layer -> [(module name, attribute)]; an attribute "Class.method" wraps a method
LAYERS = {
    "verify.sweep": [("verify", "_sweep_block")],
    "verify.accum_update": [("verify", "_Accum.update")],
    "verify.identity": [("verify", "_identity_suite")],
    "verify.diagnostics": [("verify", "sharpness_suite"), ("verify", "conjecture_scan"),
                           ("lagrange", "rivlin_gap"), ("lagrange", "hermann_ratio")],
    "operators.weights": [("operators", "_binomial_weights"),
                          ("operators", "_poisson_weights"),
                          ("operators", "_negbin_weights"),
                          ("special", "_binomial_weights")],
    "operators.pair_sum": [("operators", "pairwise_identity")],
    "operators.chebyshev_T": [("operators", "chebyshev_T"), ("bounds", "chebyshev_T"),
                              ("lagrange", "chebyshev_T")],
    "funcspace.envelope": [("funcspace", "cached_envelope"), ("verify", "cached_envelope"),
                           ("bounds", "cached_envelope"), ("lagrange", "cached_envelope")],
    "funcspace.envelope_build": [("funcspace", "envelope_of")],
    "bounds.cell": [("bounds", "evaluate_cell")],
    "special.coef": [("special", name) for name in (
        "phi_bernstein", "central_binom_scaled", "scaled_bessel_i0", "sigma_szasz",
        "theta_baskakov", "psi_bbh", "tau_hat", "king_sumsq", "second_moment")],
    "lagrange.basis": [("lagrange", "basis_weights")],
    "lagrange.lebesgue": [("lagrange", "lebesgue_constant")],
}

#: the op span every layer span descends from
OP = "op"


def _weight_terms(result) -> int:
    w = result[0] if isinstance(result, tuple) else result
    return len(w)


class Tracer:
    """Wraps the program's layers, then records spans and counts per layer."""

    def __init__(self):
        import importlib
        self._mods = {m: importlib.import_module(f"grusslab.{m}")
                      for m in ("verify", "operators", "special", "funcspace",
                                "bounds", "lagrange")}
        self.names = [OP] + list(LAYERS)
        self._id = {name: i for i, name in enumerate(self.names)}
        self._depth = [0] * len(self.names)
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._clears = {"hits": 0, "misses": 0}
        lag = self._mods["lagrange"]
        self._env_cache = self._mods["funcspace"].cached_envelope
        self._lag_caches = (lag.chebyshev_grid, lag.lebesgue_constant)
        self.reset()

    def reset(self) -> None:
        """Forget every span, count and cache statistic so far (the timed
        phase starts here)."""
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.count = [0] * len(self.names)
        self.busy = [0.0] * len(self.names)
        self.weight_terms = 0
        self.identity_checks = 0
        self._cache0 = self._cache_totals()

    # -- span recording --------------------------------------------------

    def _enter(self, layer: int) -> int:
        idx = len(self.start)
        self.name_id.append(layer)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        self._depth[layer] += 1
        return idx

    def _leave(self, layer: int, idx: int) -> None:
        t = time.perf_counter()
        self.end[idx] = t
        self._stack.pop()
        self._depth[layer] -= 1
        self.count[layer] += 1
        self.busy[layer] += t - self.start[idx]

    def span(self, name: str, fn, *args, **kwargs):
        layer = self._id[name]
        if self._depth[layer]:
            return fn(*args, **kwargs)
        idx = self._enter(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            self._leave(layer, idx)

    def _wrap(self, name: str, fn):
        span = self.span

        if name == "operators.weights":
            def wrapper(*args, **kwargs):
                depth = self._depth[self._id[name]]
                out = span(name, fn, *args, **kwargs)
                if not depth:
                    self.weight_terms += _weight_terms(out)
                return out
        elif name == "verify.identity":
            def wrapper(*args, **kwargs):
                out = span(name, fn, *args, **kwargs)
                self.identity_checks += out["checks"]
                return out
        else:
            def wrapper(*args, **kwargs):
                return span(name, fn, *args, **kwargs)
        functools.update_wrapper(wrapper, fn)
        if hasattr(fn, "cache_info"):
            # lru_cache objects: keep cache_info, and count the hits and misses
            # a cache_clear() in the program would otherwise erase
            wrapper.cache_info = fn.cache_info

            def cache_clear(_fn=fn):
                if _fn is self._env_cache:
                    info = _fn.cache_info()
                    self._clears["hits"] += info.hits
                    self._clears["misses"] += info.misses
                _fn.cache_clear()
            wrapper.cache_clear = cache_clear
        return wrapper

    def install(self) -> None:
        for name, sites in LAYERS.items():
            for mod, attr in sites:
                owner = self._mods[mod]
                if "." in attr:
                    cls, attr = attr.split(".")
                    owner = getattr(owner, cls)
                fn = getattr(owner, attr)
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    # -- cache statistics --------------------------------------------------

    def _cache_totals(self) -> tuple[int, int, int, int]:
        env = self._env_cache.cache_info()
        lag = [c.cache_info() for c in self._lag_caches]
        return (env.hits + self._clears["hits"], env.misses + self._clears["misses"],
                sum(i.hits for i in lag), sum(i.misses for i in lag))

    def cache_deltas(self) -> dict:
        now = self._cache_totals()
        d = [b - a for a, b in zip(self._cache0, now)]
        return {"envelope_hits": d[0], "envelope_misses": d[1],
                "lagrange_hits": d[2], "lagrange_misses": d[3]}

    # -- results -------------------------------------------------------------

    def layer(self, name: str) -> tuple[int, float]:
        i = self._id[name]
        return self.count[i], self.busy[i]

    def per_layer(self, ops: int, scipy_import_s: float) -> dict:
        """Per-layer metrics, each per operation of the timed phase."""
        c = self.cache_deltas()

        def ratio(hits, misses):
            return hits / (hits + misses) if hits + misses else 0.0

        def s(name):
            return self.layer(name)[1] / ops

        def n(name):
            return self.layer(name)[0] / ops

        values = {
            "verify.sweep_s": (s("verify.sweep"), "s"),
            "verify.sweep_blocks": (n("verify.sweep"), "count"),
            "verify.accum_updates": (n("verify.accum_update"), "count"),
            "verify.accum_update_s": (s("verify.accum_update"), "s"),
            "operators.weights_s": (s("operators.weights"), "s"),
            "operators.weight_calls": (n("operators.weights"), "count"),
            "operators.weight_terms": (self.weight_terms / ops, "count"),
            "verify.identity_s": (s("verify.identity"), "s"),
            "verify.identity_checks": (self.identity_checks / ops, "count"),
            "operators.pair_sum_s": (s("operators.pair_sum"), "s"),
            "operators.pair_sum_calls": (n("operators.pair_sum"), "count"),
            "operators.chebyshev_T_s": (s("operators.chebyshev_T"), "s"),
            "funcspace.envelope_s": (s("funcspace.envelope"), "s"),
            "funcspace.envelope_builds": (n("funcspace.envelope_build"), "count"),
            "funcspace.envelope_hit_ratio": (
                ratio(c["envelope_hits"], c["envelope_misses"]), "ratio"),
            "bounds.cell_s": (s("bounds.cell"), "s"),
            "special.coef_s": (s("special.coef"), "s"),
            "lagrange.basis_s": (s("lagrange.basis"), "s"),
            "lagrange.lebesgue_s": (s("lagrange.lebesgue"), "s"),
            "lagrange.cache_hit_ratio": (
                ratio(c["lagrange_hits"], c["lagrange_misses"]), "ratio"),
            "verify.diagnostics_s": (s("verify.diagnostics"), "s"),
            "setup.scipy_import_s": (scipy_import_s, "s"),
        }
        return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}

    def write(self, path, extra: dict) -> None:
        """Write every span and the summary as one JSON document."""
        doc = dict(extra)
        doc["layers"] = {name: {"calls": self.count[i], "busy_s": self.busy[i]}
                         for i, name in enumerate(self.names)}
        doc["caches"] = self.cache_deltas()
        doc["spans"] = {"names": self.names, "name_id": self.name_id.tolist(),
                        "parent": self.parent.tolist(), "start": self.start.tolist(),
                        "end": self.end.tolist()}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
