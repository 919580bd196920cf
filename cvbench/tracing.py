"""Spans around cvclone's public entry points, recorded from outside.

``Tracer.install()`` rebinds every public function of the traced modules (and
the public methods of their public classes) to a wrapper that records a span,
and restores the originals on exit. Calls between modules go through module
attributes, so they are traced; a function calling another of its own module
by bare name is traced too, since module globals are module attributes.

A span is (id, parent id, job id, name, start, end, work, nested-in-name,
nested-in-module). Spans are kept in memory; ``dump`` writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import math
import time
import types
from collections import defaultdict

MODULES = ("fock", "_kernels", "measurement", "network", "gaussian",
           "checks", "cli")

# Work counts computed from call arguments: name -> (metric suffix, function).
WORK = {
    "fock.apply_network_fock":
        ("states", lambda a: math.prod(a["state"].dims)),
    "_kernels.displacement_columns_batch":
        ("columns", lambda a: len(a["zs"]) * int(a["ncols"])),
    "_kernels.povm_grid_values": ("points", lambda a: len(a["zs"])),
    "_kernels.smear_accumulate":
        ("terms", lambda a: int(a["disp_mats"].shape[0])),
}


def public_entry_points(module) -> list:
    """(owner, attribute, qualified name) for every traced callable.

    Public functions defined in the module, and public methods of its public
    classes. In ``_kernels`` the ``*_numpy`` implementations are left out:
    the traced entry points are the names that dispatch to them.
    """
    short = module.__name__.rsplit(".", 1)[1]
    found = []
    for name, obj in vars(module).items():
        if name.startswith("_") or name.endswith("_numpy"):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if isinstance(obj, types.FunctionType):
            found.append((module, name, f"{short}.{name}"))
        elif inspect.isclass(obj):
            for meth, fn in vars(obj).items():
                if (not meth.startswith("_")
                        and isinstance(fn, types.FunctionType)):
                    found.append((obj, meth, f"{short}.{name}.{meth}"))
    return found


class Tracer:
    """Records nested spans for single-threaded runs."""

    def __init__(self):
        self.spans = []
        self.job = None
        self.enabled = False
        self._stack = []
        self._active_names = defaultdict(int)
        self._active_modules = defaultdict(int)

    def _wrap(self, qualname: str, fn):
        module = qualname.split(".", 1)[0]
        work = WORK.get(qualname)
        signature = inspect.signature(fn) if work else None
        spans, stack = self.spans, self._stack
        names, modules = self._active_names, self._active_modules

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            nested_name = names[qualname] > 0
            nested_module = modules[module] > 0
            stack.append(sid)
            names[qualname] += 1
            modules[module] += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                names[qualname] -= 1
                modules[module] -= 1
                count = 0
                if work:
                    try:
                        count = work[1](signature.bind(*args, **kwargs)
                                        .arguments)
                    except (TypeError, KeyError, AttributeError):
                        count = -1      # the entry point changed shape
                spans[sid] = (sid, parent, self.job, qualname, start, end,
                              count, nested_name, nested_module)
        return traced

    @contextlib.contextmanager
    def install(self):
        """Wrap every traced entry point; restore the originals on exit."""
        saved = []
        try:
            for short in MODULES:
                module = importlib.import_module(f"cvclone.{short}")
                for owner, attr, qualname in public_entry_points(module):
                    original = vars(owner)[attr]
                    saved.append((owner, attr, original))
                    setattr(owner, attr, self._wrap(qualname, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def dump(self, path: str, extra: dict) -> None:
        keys = ("id", "parent", "job", "name", "start", "end", "work",
                "nested_name", "nested_module")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**extra, "span_fields": keys, "spans": self.spans},
                      handle)


def summarize(spans: list, job_filter=None) -> dict:
    """Per-name and per-module totals over the spans of the given jobs.

    ``s`` is inclusive time, counting a span only when no enclosing span has
    the same name (or, for modules, the same module); ``self_s`` subtracts the
    time of direct child spans; ``calls`` counts every span.
    """
    child_time = defaultdict(float)
    kept = [s for s in spans if job_filter is None or job_filter(s[2])]
    for sid, parent, _, _, start, end, *_ in kept:
        if parent >= 0:
            child_time[parent] += end - start
    names = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0,
                                 "work": 0})
    modules = defaultdict(lambda: {"s": 0.0, "calls": 0})
    for sid, _, _, name, start, end, work, nested_name, nested_mod in kept:
        row = names[name]
        row["calls"] += 1
        row["work"] += work
        row["self_s"] += (end - start) - child_time[sid]
        if not nested_name:
            row["s"] += end - start
        mod = modules[name.split(".", 1)[0]]
        mod["calls"] += 1
        if not nested_mod:
            mod["s"] += end - start
    return {"names": dict(names), "modules": dict(modules)}
