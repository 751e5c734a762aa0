"""Spans and counters recorded from outside the package.

``Tracer.install`` replaces each traced function with a timing wrapper in
every ``hahn_paths`` namespace (module or class) that holds it, since several
names are imported into more than one module.  ``uninstall`` puts the
originals back.  Spans are kept in memory as
``[name, start, end, parent, op]`` lists and written once by the caller;
functions called too often for a span each are only counted.

A function's self time is its duration minus the time of the traced calls
it makes.  Busy time counts only the outermost of nested calls to the same
function, so recursion is not double counted.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# (metric prefix, module, attribute, class or None, keeps spans)
TARGETS = (
    ("cli.main", "cli", "main", None, True),
    ("render.render_svg", "render", "render_svg", None, True),
    ("process.sample_trajectory", "process", "sample_trajectory", None, True),
    ("process.transition_probability", "process", "transition_probability", None, False),
    ("process.coupling_coefficient_sq", "process", "coupling_coefficient_sq", None, False),
    ("hahn.slice_basis", "hahn", "slice_basis", None, False),
    ("hahn.hahn_q", "hahn", "hahn_q", None, False),
    ("radicals.SignedSqrt.add", "radicals", "__add__", "SignedSqrt", False),
    ("radicals.sqrt_fraction", "radicals", "sqrt_fraction", None, False),
    ("kernels.extended_kernel", "kernels", "extended_kernel", None, True),
    ("kernels.gauged_extended_kernel", "kernels", "gauged_extended_kernel", None, True),
    ("kernels.KernelMatrix.build", "kernels", "build", "KernelMatrix", True),
    ("kernels.KernelMatrix.determinant", "kernels", "determinant", "KernelMatrix", True),
    ("bulk.convergence_probe", "bulk", "convergence_probe", None, True),
    ("bulk.extended_sine_kernel", "bulk", "extended_sine_kernel", None, True),
    ("bulk.particle_hole_duality_residual", "bulk", "particle_hole_duality_residual", None, True),
    ("combinatorics.det_bareiss", "combinatorics", "det_bareiss", None, True),
    ("combinatorics.enumerate_path_families", "combinatorics", "enumerate_path_families",
     None, True),
)


class Stat:
    __slots__ = ("calls", "busy", "self_time", "active", "misses", "build")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.active = 0
        self.misses = 0
        self.build = 0.0


class Tracer:
    def __init__(self):
        self.stats = {name: Stat() for name, *_ in TARGETS}
        self.spans: list[list] = []
        self.op = None
        self._stack: list[list] = [[0.0, None]]  # frames: [child time, span index]
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, keep_spans: bool):
        stat = self.stats[name]
        stack = self._stack
        spans = self.spans
        cache_info = getattr(fn, "cache_info", None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if keep_spans:
                span = [name, 0.0, 0.0, parent[1], self.op]
                spans.append(span)
                frame = [0.0, len(spans) - 1]
            else:
                frame = [0.0, parent[1]]
            stack.append(frame)
            stat.active += 1
            misses = cache_info().misses if cache_info else 0
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                elapsed = end - start
                stack.pop()
                stat.active -= 1
                stat.calls += 1
                stat.self_time += elapsed - frame[0]
                if not stat.active:
                    stat.busy += elapsed
                parent[0] += elapsed
                if keep_spans:
                    span[1], span[2] = start, end
                if cache_info is not None and cache_info().misses != misses:
                    stat.misses += 1
                    stat.build += elapsed

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "hahn_paths" or key.startswith("hahn_paths."))]
        for name, module, attr, owner, keep_spans in TARGETS:
            home = sys.modules.get(f"hahn_paths.{module}")
            if owner is not None:
                home = getattr(home, owner, None)
            original = home.__dict__.get(attr) if home is not None else None
            if original is None:
                continue
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(name, original.__func__, keep_spans))
            else:
                wrapped = self._wrap(name, original, keep_spans)
            holders = [home] if owner is not None else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, key, original))
                        setattr(holder, key, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            holder, key, original = self._patches.pop()
            setattr(holder, key, original)
