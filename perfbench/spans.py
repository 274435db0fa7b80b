"""Span tracing of the twoweight package from outside it.

A ``Tracer`` replaces every module-global binding of a traced function
inside the package (the defining module's own name and every
``from .x import f`` copy, aliases included) with a wrapper, and
restores the originals on ``restore()``.  Callers look these names up at
call time, so calls that cross a layer boundary are seen without any
change to the package.  References held elsewhere (dict values, default
arguments, closures captured before ``install()``) are not rebound.

Spanned functions add to a call count and a self time: a span's
duration minus the time covered by its child spans.  Counted functions
and methods only add to a call count.
"""

from __future__ import annotations

import functools
import sys
import time

# Layer boundaries timed as spans, named <module>.<function>.
SPANNED = (
    "harness.cli_main",
    "harness.verify_theorem",
    "harness.generate_pair",
    "harness.format_report",
    "poisson_a2.a2_constants",
    "energy.strong_energy",
    "energy.whitney_energy",
    "energy.functional_energy_context",
    "energy.functional_energy_estimate",
    "energy.halfspace_testing",
    "singular.make_kernel",
    "singular.testing_constants",
    "singular.apply",
    "singular.operator_norm",
    "bfamily.make_family",
    "corona.cz_stopping",
    "corona.energy_stopping",
    "corona.shifted_corona",
    "grid.sharp_cross",
    "grid.bad_probability_mc",
)

# Hot callables that are only counted: <module>.<function> or
# <module>.<Class>.<method>, reported as <module>.<function or method>.
COUNTED = (
    "measure.Measure.in_box",
    "measure.Measure.subset",
    "bfamily.sharp_norm_sq",
)


def metric_name(target: str) -> str:
    """``measure.Measure.in_box`` -> ``measure.in_box``."""
    parts = target.split(".")
    return f"{parts[0]}.{parts[-1]}"


class Tracer:
    """Rebinds traced names in every loaded module of ``package``."""

    def __init__(self, package: str = "twoweight", spanned=SPANNED,
                 counted=COUNTED):
        self.package = package
        self.spanned = tuple(spanned)
        self.counted = tuple(counted)
        self.calls: dict = {}
        self.self_s: dict = {}
        self._stack: list = []     # [start, child seconds] per open span
        self._saved: list = []     # (owner, attribute, original)

    # -- binding ------------------------------------------------------

    def _modules(self):
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == self.package
                                      or name.startswith(self.package + "."))]

    def _resolve(self, target):
        mod, *rest = target.split(".")
        obj = sys.modules[f"{self.package}.{mod}"]
        owner = None
        for attr in rest:
            owner, obj = obj, getattr(obj, attr)
        return owner, rest[-1], obj

    def install(self) -> "Tracer":
        if self._saved:
            raise RuntimeError("tracer already installed")
        try:
            self._install()
        except Exception:
            self.restore()
            raise
        return self

    def _install(self) -> None:
        modules = self._modules()
        for target in self.spanned + self.counted:
            name = metric_name(target)
            owner, attr, fn = self._resolve(target)
            counted_only = target in self.counted
            wrapper = self._counter(name, fn) if counted_only \
                else self._spanner(name, fn)
            if isinstance(owner, type):
                self._rebind(owner, attr, fn, wrapper)
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        self._rebind(mod, key, fn, wrapper)

    def _rebind(self, owner, attr, original, wrapper):
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- recording ----------------------------------------------------

    def _counter(self, name, fn):
        calls = self.calls
        calls.setdefault(name, 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _spanner(self, name, fn):
        self.calls.setdefault(name, 0)
        self.self_s.setdefault(name, 0.0)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            self._stack.append([time.perf_counter(), 0.0])
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(name)
        return spanned

    def _exit(self, name):
        end = time.perf_counter()
        start, child = self._stack.pop()
        duration = end - start
        self.calls[name] += 1
        self.self_s[name] += duration - child
        if self._stack:
            self._stack[-1][1] += duration

    def snapshot(self) -> dict:
        """Current totals: {name: {"calls": n, "self_s": s (spans only)}}."""
        out = {}
        for name, n in self.calls.items():
            out[name] = {"calls": n}
            if name in self.self_s:
                out[name]["self_s"] = self.self_s[name]
        return out
