import importlib
import importlib.util
from pathlib import Path

LAYERS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def test_every_traced_binding_resolves():
    """Every (module, attribute) the benchmark's tracer wraps, "Class.method"
    included, is a callable on grusslab.<module>; a refactor that moves or
    drops one fails here rather than in a traced benchmark run."""
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PY)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
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
