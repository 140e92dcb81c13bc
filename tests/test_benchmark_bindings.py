import importlib
import importlib.util
from pathlib import Path

import numpy as np

LAYERS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PY)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


#: sample arguments of each weight builder the tracer wraps
WEIGHT_ARGS = {
    "_binomial_weights": (8, 0.3),
    "_poisson_weights": (12.0, 1e-12),
    "_negbin_weights": (4, 3.0, 1e-12),
}


def test_every_traced_binding_resolves():
    """Every (module, attribute) the benchmark's tracer wraps, "Class.method"
    included, is a callable on grusslab.<module>; a refactor that moves or
    drops one fails here rather than in a traced benchmark run."""
    layers = _layers()
    missing = []
    for sites in layers.LAYERS.values():
        for mod, attr in sites:
            owner = importlib.import_module(f"grusslab.{mod}")
            for part in attr.split("."):
                owner = getattr(owner, part, None)
            if not callable(owner):
                missing.append(f"{mod}.{attr}")
    assert missing == []


def test_traced_caches_keep_cache_info():
    """The tracer reads cache_info() of the envelope, Chebyshev-grid and
    Lebesgue caches when it starts; a cache that loses it fails a traced run
    at start-up."""
    from grusslab import funcspace, lagrange
    for fn in (funcspace.cached_envelope, lagrange.chebyshev_grid,
               lagrange.lebesgue_constant):
        assert callable(getattr(fn, "cache_info", None)), fn.__name__
        fn.cache_info()


def test_traced_weight_builders_return_what_the_tracer_counts():
    """The tracer counts a weight builder's terms from its result: a tuple
    whose [0] is the 1-d weight array, or that array itself.  Each wrapped
    builder is called once and its result read the tracer's way."""
    layers = _layers()
    for mod, attr in layers.LAYERS["operators.weights"]:
        fn = getattr(importlib.import_module(f"grusslab.{mod}"), attr)
        out = fn(*WEIGHT_ARGS[attr])
        w = out[0] if isinstance(out, tuple) else out
        assert isinstance(w, np.ndarray) and w.ndim == 1 and w.size > 0, (mod, attr)
        assert layers._weight_terms(out) == w.size, (mod, attr)
