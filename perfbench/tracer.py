"""Per-layer spans recorded from outside the mockmod package.

``Tracer.install`` replaces every function and method of the traced
layers with a timing wrapper and rebinds each name through which callers
reach it: the defining module's attribute, every ``from .x import f``
binding in the other package modules, the package re-exports, and the
runner of each catalog entry.  ``Tracer.remove`` puts the originals back.

A span records its layer (the module that defines the callee).  Spans
are opened where a call crosses into a layer from another layer (or from
the benchmark), and on every call of the kernels in ``Tracer.KERNELS``
and of the catalog runners; a call inside its own layer passes through
untimed, so its time stays with the enclosing span of the same layer.  A
layer's self time is the time inside its spans minus the time of the
spans they opened.  A ``DomainError`` is counted against a layer when it
leaves the layer through a boundary span.  ``functools.lru_cache``
wrappers keep ``cache_info`` and ``cache_clear`` readable through the
span wrapper.
"""
from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("core", "exactq", "special", "jets", "appell", "rank", "joyce",
          "harness")

# Arithmetic dunders are real work; every other dunder is dataclass
# plumbing (``__init__``, ``__eq__``, ``__post_init__`` validation, ...).
_WRAPPED_DUNDERS = ("__add__", "__sub__", "__mul__", "__neg__", "__matmul__")

# lru-cached functions whose hit ratios the benchmark reports, by layer.
CACHED = {
    "exactq": ("_partition_counts", "rank_table", "bernoulli_number"),
    "rank": ("rank_plus_series", "constant_row_series", "combination_series"),
    "joyce": ("theta_block_series", "_theta_block_derivatives",
              "_joyce_series"),
}


def _is_lru(obj) -> bool:
    return callable(obj) and hasattr(obj, "cache_info") \
        and hasattr(obj, "__wrapped__")


class Tracer:
    """Span statistics accumulated over the traced operations."""

    # Functions timed on every call, not only where a call crosses into
    # their layer, because the benchmark reports their own time.
    KERNELS = ("jets.Jet.__mul__", "jets.zwegers_S_jet",
               "special.eval_qseries", "special.period_integral",
               "exactq.QSeries.__mul__", "exactq.rank_table")

    def __init__(self) -> None:
        # layer -> [boundary calls, self seconds, DomainErrors leaving it]
        self.layers = {layer: [0, 0.0, 0] for layer in LAYERS}
        # function key -> [calls, inclusive seconds, active depth]
        self.functions = defaultdict(lambda: [0, 0.0, 0])
        self.counts = defaultdict(int)         # argument-derived counters
        self._stack: list = []
        self._patches: list = []
        self._nonzero: dict = {}
        self._domain_error = importlib.import_module("mockmod.core").DomainError
        self._hooks = {
            "exactq.QSeries.__mul__": self._count_products,
            "special.eval_qseries": self._count_series_terms,
        }

    # -- argument counters (run before the span clock starts) -------------

    def _count_products(self, args) -> None:
        self.counts["qseries_mul_products"] += \
            len(args[0].coeffs) * len(args[1].coeffs)

    def _count_series_terms(self, args) -> None:
        series = args[0]
        cached = self._nonzero.get(id(series))
        if cached is None or cached[0] is not series:
            cached = (series, sum(1 for c in series.coeffs if c))
            self._nonzero[id(series)] = cached
        self.counts["eval_qseries_stored"] += len(series.coeffs)
        self.counts["eval_qseries_nonzero"] += cached[1]

    # -- wrappers -----------------------------------------------------------

    def _span(self, fn, layer: str, key: str):
        """Wrap ``fn``.  A call from inside its own layer passes straight
        through (it cannot change any layer's self time) unless ``fn`` is a
        kernel the benchmark times by name."""
        hook = self._hooks.get(key)
        always = key in self.KERNELS or key.startswith("check:")
        stats = self.layers[layer]
        own = self.functions[key] if always else None
        stack = self._stack
        domain_error = self._domain_error

        def span(*args, **kwargs):
            crossing = not stack or stack[-1][1] is not stats
            if not (crossing or always):
                return fn(*args, **kwargs)
            if hook is not None:
                hook(args)
            frame = [0.0, stats]
            stack.append(frame)
            if own is not None:
                own[2] += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except domain_error:
                if crossing:
                    stats[2] += 1
                raise
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stats[1] += elapsed - frame[0]
                if crossing:
                    stats[0] += 1
                if own is not None:
                    own[0] += 1
                    own[2] -= 1
                    if not own[2]:
                        own[1] += elapsed

        functools.update_wrapper(span, fn)
        if _is_lru(fn):
            span.cache_info = fn.cache_info
            span.cache_clear = fn.cache_clear
        return span

    def _targets(self) -> tuple[dict, list]:
        """Wrappers keyed by id of the original module-level object, and
        (class, attribute, original, wrapper) for methods."""
        functions: dict = {}
        methods: list = []
        for layer in LAYERS:
            mod = importlib.import_module(f"mockmod.{layer}")
            for name, obj in vars(mod).items():
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    methods += self._class_targets(obj, layer)
                elif (inspect.isfunction(obj) or _is_lru(obj)) \
                        and not inspect.isgeneratorfunction(obj):
                    functions[id(obj)] = (obj, self._span(obj, layer,
                                                          f"{layer}.{name}"))
        harness = importlib.import_module("mockmod.harness")
        catalog = harness.CATALOG
        traced = tuple(dataclasses.replace(
            spec, runner=self._span(spec.runner, "harness",
                                    f"check:{spec.check_id}"))
            for spec in catalog)
        functions[id(catalog)] = (catalog, traced)
        return functions, methods

    def _class_targets(self, cls, layer: str) -> list:
        out = []
        for attr, value in vars(cls).items():
            if attr.startswith("__") and attr not in _WRAPPED_DUNDERS:
                continue
            key = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(value, staticmethod):
                fn = value.__func__
                if not inspect.isgeneratorfunction(fn):
                    out.append((cls, attr, value,
                                staticmethod(self._span(fn, layer, key))))
            elif inspect.isfunction(value) \
                    and not inspect.isgeneratorfunction(value):
                out.append((cls, attr, value, self._span(value, layer, key)))
        return out

    # -- install / remove ---------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        functions, methods = self._targets()
        for cls, attr, original, wrapper in methods:
            setattr(cls, attr, wrapper)
            self._patches.append((cls, attr, original))
        modules = [m for n, m in list(sys.modules.items())
                   if n == "mockmod" or n.startswith("mockmod.")]
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                hit = functions.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])
                    self._patches.append((mod, name, obj))

    def remove(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)
        self._stack.clear()

    # -- cache counters -----------------------------------------------------

    @staticmethod
    def cache_counts() -> dict:
        """layer -> (hits, misses) summed over its reported caches."""
        out = {}
        for layer, names in CACHED.items():
            mod = importlib.import_module(f"mockmod.{layer}")
            hits = misses = 0
            for name in names:
                info = getattr(mod, name).cache_info()
                hits += info.hits
                misses += info.misses
            out[layer] = (hits, misses)
        return out

    def snapshot(self) -> dict:
        return {
            "layers": {k: list(v) for k, v in self.layers.items()},
            "functions": {k: v[:2] for k, v in self.functions.items()},
            "counts": dict(self.counts),
        }
