"""Span recorder for the traced run.

The engine has no spans of its own yet, so the traced run wraps the
public functions of its modules from outside.  Each call is a span; a
span's self time is its duration minus the time covered by the spans it
caused.  Spans are folded into per-name totals as they close, so memory
stays flat however many calls a request makes.
"""

from __future__ import annotations

import functools
import sys
import time

# (module under dlschubert, attribute path, span name)
TARGETS = (
    ("poly", "BetaPolynomial.__mul__", "poly.mul"),
    ("poly", "BetaPolynomial.substitute", "poly.substitute"),
    ("poly", "BetaPolynomial.exact_divide_by_difference", "poly.exact_divide"),
    ("poly", "render", "poly.render"),
    ("betapoly", "double_beta_polynomial", "betapoly.double_beta_polynomial"),
    ("betapoly", "divided_difference", "betapoly.divided_difference"),
    ("fgl", "n_times", "fgl.n_times"),
    ("fgl", "fgl_inverse", "fgl.fgl_inverse"),
    ("flagring", "FlagRingElement.__mul__", "flagring.mul"),
    ("flagring", "normal_form", "flagring.normal_form"),
    ("flagring", "schubert_class", "flagring.schubert_class"),
    ("flagring", "schubert_expand", "flagring.schubert_expand"),
    ("dlclass", "dl_class", "dlclass.dl_class"),
    ("dlclass", "is_prime_power", "dlclass.is_prime_power"),
    ("cache", "PolynomialCache.get", "cache.get"),
    ("cache", "PolynomialCache.put", "cache.put"),
    ("cli", "main", "cli.main"),
)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._stack: list[list] = []  # [name, start, seconds covered by children]
        self.spans: dict[str, list] = {}  # name -> [calls, self_s, total_s]
        self.counts: dict[str, int] = {}

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, covered = self._stack.pop()
        duration = self.clock() - start
        stat = self.spans.setdefault(name, [0, 0.0, 0.0])
        stat[0] += 1
        stat[1] += duration - covered
        # inclusive time counts only the outermost of recursive spans
        if all(frame[0] != name for frame in self._stack):
            stat[2] += duration
        if self._stack:
            self._stack[-1][2] += duration

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    def wrap(self, name: str, fn, after=None):
        """fn recorded as span `name`; after(result, args) may add counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.exit()
            if after is not None:
                after(self, out, args)
            return out

        return traced

    def report(self) -> dict:
        return {
            "spans": {k: {"calls": v[0], "self_s": v[1], "total_s": v[2]}
                      for k, v in self.spans.items()},
            "counts": dict(self.counts),
        }


def _family_terms(tracer, out, args):
    tracer.count("betapoly.family.terms", out.num_terms())


def _entry_path(args):
    """Path of the entry a PolynomialCache.get/put call addresses."""
    store, family, w, n = args[:4]
    return store._path(family, w, n)


def _cache_get(tracer, out, args):
    if out is not None:
        tracer.count("cache.get.hits")
    elif _entry_path(args).exists():
        # get() leaves an entry it rejected in place for put() to replace
        tracer.count("cache.discards")


def _cache_put(tracer, out, args):
    tracer.count("cache.bytes_written", _entry_path(args).stat().st_size)


AFTER = {
    "betapoly.divided_difference": _family_terms,
    "cache.get": _cache_get,
    "cache.put": _cache_put,
}


def install(tracer: Tracer) -> list[str]:
    """Wrap every target wherever the engine binds it (aliases such as
    __rmul__, names imported into other modules, and the module global
    through which double_beta_polynomial recurses).  Returns the targets
    that no longer exist, whose metrics then read 0."""
    import dlschubert.cli  # noqa: F401  (loads every engine module)

    modules = [m for name, m in sys.modules.items()
               if name == "dlschubert" or name.startswith("dlschubert.")]
    namespaces = list(modules)
    for m in modules:
        namespaces += [v for v in vars(m).values()
                       if isinstance(v, type) and v.__module__ == m.__name__]
    missing = []
    for modname, path, span in TARGETS:
        obj = sys.modules.get(f"dlschubert.{modname}")
        for part in path.split("."):
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append(f"{modname}.{path}")
            continue
        traced = tracer.wrap(span, obj, AFTER.get(span))
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is obj:
                    setattr(ns, attr, traced)
    return missing
