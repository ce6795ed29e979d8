"""Per-layer tracing for the traced run, kept entirely outside the package.

`Tracer.install` replaces each traced function, in every kmhecke module
that holds it, by a wrapper that counts calls and accumulates inclusive
and self time (inclusive minus the time spent in traced callees).  The
cache counters read the `cache_info()` of the lru_cache tables of
`hecke_bl` and the size of its Weyl-element interner.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute) of every traced function; `coeff_ring.exact_div` is
# the method `LaurentPoly.exact_div`, patched on the class.
TRACED = (
    ("weyl", "multiply"),
    ("weyl", "dominant_representative"),
    ("coeff_ring", "exact_div"),
    ("hecke_bl", "mult_bl"),
    ("completed", "compute_source_region"),
    ("completed", "mult_truncated"),
    ("completed", "e_function_expand"),
    ("completed", "center_test"),
    ("parahoric", "parahoric_product"),
    ("parahoric", "double_coset"),
    ("cli", "main"),
)

CACHE_METRICS = (
    ("hecke_bl.basis_product.hits", "count"),
    ("hecke_bl.basis_product.misses", "count"),
    ("hecke_bl.basis_product.hit_ratio", "ratio"),
    ("hecke_bl.h_times_h.hit_ratio", "ratio"),
    ("hecke_bl.cache_entries", "count"),
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for mod, fn in TRACED:
        units[f"{mod}.{fn}.calls"] = "count"
        units[f"{mod}.{fn}.incl_s"] = "s"
        units[f"{mod}.{fn}.self_s"] = "s"
    units.update(CACHE_METRICS)
    units["cli.import_s"] = "s"
    return units


class Tracer:
    def __init__(self):
        self.stats = {f"{mod}.{fn}": [0, 0.0, 0.0] for mod, fn in TRACED}
        self._stack: list[float] = []

    def _wrap(self, name, fn):
        stats = self.stats[name]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += child
                if stack:
                    stack[-1] += elapsed

        return traced

    def install(self, pkg):
        """Wrap every traced function of a freshly imported package."""
        modules = [
            m for name, m in sys.modules.items()
            if name == pkg.__name__ or name.startswith(pkg.__name__ + ".")
        ]
        for mod, fn in TRACED:
            name = f"{mod}.{fn}"
            if (mod, fn) == ("coeff_ring", "exact_div"):
                cls = pkg.coeff_ring.LaurentPoly
                cls.exact_div = self._wrap(name, cls.exact_div)
                continue
            original = getattr(getattr(pkg, mod), fn)
            wrapper = self._wrap(name, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)

    def snapshot(self) -> dict[str, float]:
        out = {}
        for name, (calls, incl, child) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.incl_s"] = incl
            out[f"{name}.self_s"] = incl - child
        return out


def cache_counters(pkg) -> dict[str, float]:
    hb = pkg.hecke_bl
    bp = hb._basis_product_packed.cache_info()
    hh = hb._h_times_h_packed.cache_info()
    entries = sum(
        value.cache_info().currsize
        for value in vars(hb).values()
        if hasattr(value, "cache_info")
    )
    entries += sum(len(reg.elems) for reg in hb._INTERNERS.values())

    def ratio(info):
        total = info.hits + info.misses
        return info.hits / total if total else 0.0

    return {
        "hecke_bl.basis_product.hits": bp.hits,
        "hecke_bl.basis_product.misses": bp.misses,
        "hecke_bl.basis_product.hit_ratio": ratio(bp),
        "hecke_bl.h_times_h.hit_ratio": ratio(hh),
        "hecke_bl.cache_entries": entries,
    }
