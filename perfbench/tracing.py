"""Spans around boltzflow's public functions, recorded from outside.

The tracer replaces a public function by a timing wrapper wherever a
boltzflow module holds it (the defining module, the package root and
every module that imported it by name), so calls between modules are
seen too.  Spans stay in memory, with their parent span and a few
counts read off the result, until the run turns them into per-layer
metrics.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

import boltzflow.cli
import boltzflow.forward
import boltzflow.jko
import boltzflow.kac
import boltzflow.kinematics
import boltzflow.metric
import boltzflow.network

# span name -> (defining module, attribute); methods are named Class.method
TRACED = {
    "network.build_network": (boltzflow.network, "build_network"),
    "network.maxent_project": (boltzflow.network, "maxent_project"),
    "forward.solve_forward": (boltzflow.forward, "solve_forward"),
    "forward.dissipation": (boltzflow.forward, "dissipation"),
    "forward.collision_operator": (boltzflow.forward, "collision_operator"),
    "metric.solve_distance": (boltzflow.metric, "solve_distance"),
    "metric.w1_distance": (boltzflow.metric, "w1_distance"),
    "jko.jko_step": (boltzflow.jko, "jko_step"),
    "kac.simulate": (boltzflow.kac, "simulate"),
    "kac.sample_initial": (boltzflow.kac, "sample_initial"),
    "kac.empirical_entropy": (boltzflow.kac, "empirical_entropy"),
    "kac.empirical_moments": (boltzflow.kac, "empirical_moments"),
    "kac.EventLog.to_csv": (boltzflow.kac, "EventLog.to_csv"),
    "kinematics.collide": (boltzflow.kinematics, "collide"),
    "cli.run": (boltzflow.cli, "run"),
}

# counts read off a call's result, kept on its span in place of the result
COUNTS = {
    "forward.solve_forward": lambda traj: {"steps": len(traj.times) - 1},
    "metric.solve_distance": lambda sol: {"iterations": sol.iterations, "kkt": sol.kkt_residual},
    "jko.jko_step": lambda step: {"iterations": step.iterations},
    "kac.simulate": lambda out: {"proposals": out[1].n_events, "accepted": out[1].n_accepted},
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "counts")

    def __init__(self, name, start, parent):
        self.name, self.start, self.end, self.parent, self.counts = name, start, None, parent, {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records one span per call of each function in TRACED while enabled."""

    def __init__(self):
        self.spans: list[Span] = []
        self.children: dict[int, list[Span]] = {}
        self._stack: list[Span] = []
        self.enabled = True

    def _wrap(self, name: str, fn):
        count = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, time.perf_counter(), parent)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                self.spans.append(span)
                if parent is not None:
                    self.children.setdefault(id(parent), []).append(span)
            if count is not None:
                span.counts = count(result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every boltzflow reference to a traced function; undo on exit."""
        undo = []
        for name, (module, attr) in TRACED.items():
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                undo.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "boltzflow":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, key, original))
                        setattr(mod, key, wrapper)
        try:
            yield self
        finally:
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside (the benchmark's own checks) record no spans."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def child_spans(self, span: Span, name: str = None) -> list[Span]:
        kids = self.children.get(id(span), [])
        return kids if name is None else [s for s in kids if s.name == name]

    def self_time(self, span: Span) -> float:
        """Span duration minus the time its direct child spans cover."""
        return span.duration - sum(s.duration for s in self.child_spans(span))
