"""In-memory span tracing around the calls into tribeta's public functions.

The package binds its collaborators with ``from ... import``, so replacing
a function in its defining module misses every call made through another
module's binding.  `Tracer.install` therefore replaces the function at each
lookup site: every attribute of a ``tribeta`` module, or of a module passed
to `install` (the benchmark's own callers), that is the function object
itself.  Methods are wrapped on their class.

Spans (name, start, end, parent, run id) stay in memory until the run
writes them out.  Self time is a span's duration minus the time its child
spans cover; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    counts: dict = field(default_factory=dict)


def _count_solve_radial(args, kwargs, result):
    return {"calls": 1, "gated_calls": int(bool(kwargs.get("convergence_check")))}


def _count_save_fss(args, kwargs, result):
    fss, path = args[0], args[1]
    return {"lines": len(fss), "bytes": os.path.getsize(path)}


def _count_integral_spectrum(args, kwargs, result):
    eps, fss = args[0], args[2]
    return {"calls": 1, "line_evals": int(np.size(eps)) * len(fss)}


def _count_minimize(args, kwargs, result):
    return {"calls": 1, "iterations": result.n_iterations,
            "converged": int(result.converged)}


def _count_bias_scan(args, kwargs, result):
    return {"excluded": sum(w.n_excluded for w in result.windows)}


def _calls(args, kwargs, result):
    return {"calls": 1}


#: (module, attribute, span name, count function).  Dotted attributes name
#: a method on a class.
TARGETS = (
    ("tribeta.franck_condon.radial", "solve_radial",
     "franck_condon.solve_radial", _count_solve_radial),
    ("tribeta.franck_condon.radial", "solve_initial",
     "franck_condon.solve_initial", _calls),
    ("tribeta.franck_condon.bessel", "spherical_jn_table",
     "franck_condon.spherical_jn_table", _calls),
    ("tribeta.franck_condon.overlaps", "RecoilEngine.__init__",
     "franck_condon.RecoilEngine.init", None),
    ("tribeta.franck_condon.overlaps", "RecoilEngine.overlaps",
     "franck_condon.RecoilEngine.overlaps",
     lambda a, k, r: {"lines_out": len(r)}),
    ("tribeta.fss", "save_fss", "fss.save_fss", _count_save_fss),
    ("tribeta.fss", "from_lines", "fss.from_lines", _calls),
    ("tribeta.fss", "load_fss", "fss.load_fss",
     lambda a, k, r: {"lines": len(r)}),
    ("tribeta.fss", "cumulative_moments", "fss.cumulative_moments", _calls),
    ("tribeta.kernel", "integral_spectrum", "kernel.integral_spectrum",
     _count_integral_spectrum),
    ("tribeta.response", "generate_pseudodata", "response.generate_pseudodata",
     _calls),
    ("tribeta.response", "expected_counts", "response.expected_counts", None),
    ("tribeta.response", "poisson_sample", "response.poisson_sample",
     lambda a, k, r: {"bins": len(r)}),
    ("tribeta.fit", "minimize", "fit.minimize", _count_minimize),
    ("tribeta.bias", "bias_scan", "bias.bias_scan", _count_bias_scan),
    ("tribeta.bias", "build_study_fss", "bias.build_study_fss", None),
    ("tribeta.cli", "main", "cli.main", None),
)


class Tracer:
    """Records spans while installed; `run_id` tags the spans of one pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, func, name, count):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(name, time.perf_counter(), 0.0, parent, tracer.run_id)
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if count is not None:
                span.counts = count(args, kwargs, result)
            return result

        return traced

    def install(self, *callers) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items()) if m is not None
                   and (n == "tribeta" or n.startswith("tribeta."))]
        modules += callers
        for module_name, attr, name, count in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                func = cls.__dict__[meth]
                self._patch(cls, meth, self._wrap(func, name, count))
                continue
            func = getattr(owner, attr)
            wrapped = self._wrap(func, name, count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is func:
                        self._patch(module, key, wrapped)

    def _patch(self, owner, key, new) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, new)

    def uninstall(self) -> None:
        for owner, key, old in reversed(self._patches):
            setattr(owner, key, old)
        self._patches.clear()

    def self_times(self) -> list[float]:
        """Self time of each span: duration minus its children's durations."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def to_records(self) -> list[dict]:
        return [asdict(s) for s in self.spans]
