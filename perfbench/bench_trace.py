"""Spans and counters recorded around calls into the vmpg layers.

The traced run measures each layer from outside: ``install`` replaces the
module attributes each layer actually looks up (``vmpg.solver.line_search``,
``vmpg.consensus.consensus_round``, ``DiagonalMetric.__init__``, ...) with
wrappers that record a span, and puts the originals back on exit.  Objective
and regularizer instances handed to a solve are wrapped the same way through
``wrap_objective`` and ``wrap_regularizer``.  No file of the library changes.

A span is (name, start, end, parent, run id).  Spans are kept in memory in
flat arrays and written out once at the end of the run; per-name totals
(calls, time, self time) are updated as each span closes, so the per-layer
metrics never need the span log itself.  A span's self time is its duration
minus the durations of its direct children; the program is single-threaded,
so children never overlap.
"""

import contextlib
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

import vmpg.cli
import vmpg.consensus
import vmpg.solver
import vmpg.stepsize
from vmpg.core import DiagonalMetric
from vmpg.problems import LeastSquaresObjective, LogisticObjective, QuadraticObjective

# Span logs beyond this many entries are truncated (the per-name totals stay
# complete); a consensus pass opens several million spans.
MAX_LOGGED_SPANS = 1_000_000

# Matvecs per call with the objective's matrix, as the objectives in
# vmpg.problems compute them: QP value x'Qx and gradient Qx + q use Q once;
# LS/logistic value uses A once and the gradient uses A and A' once each.
_MATVECS = {
    QuadraticObjective: ("Q", 1, 1),
    LeastSquaresObjective: ("A", 1, 2),
    LogisticObjective: ("A", 1, 2),
}


class Tracer:
    """In-memory span log plus per-name totals for one traced pass."""

    def __init__(self):
        self.names = []
        self._codes = {}
        self._t0 = time.perf_counter()
        self.log_name = array("H")
        self.log_start = array("d")
        self.log_end = array("d")
        self.log_parent = array("i")
        self.log_run = array("i")
        self.opened = 0
        self.run_id = 0
        self.round_depth = 0
        self._stack = []  # [log index or -1, summed child duration]
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = Counter()

    def _code(self, name):
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def wrap(self, name, fn, new_run=False):
        """Return fn wrapped so that each call records a span called name."""
        code = self._code(name)

        def traced(*args, **kwargs):
            if new_run:
                self.run_id += 1
            index = -1
            if len(self.log_start) < MAX_LOGGED_SPANS:
                index = len(self.log_start)
                self.log_name.append(code)
                self.log_parent.append(self._stack[-1][0] if self._stack else -1)
                self.log_run.append(self.run_id)
                self.log_start.append(0.0)
                self.log_end.append(0.0)
            self.opened += 1
            frame = [index, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - start
                self.calls[name] += 1
                self.total_s[name] += duration
                self.self_s[name] += duration - frame[1]
                if self._stack:
                    self._stack[-1][1] += duration
                if index >= 0:
                    self.log_start[index] = start - self._t0
                    self.log_end[index] = end - self._t0
        return traced

    def layer_self_s(self, layer):
        """Summed self time of every span whose name starts with 'layer.'."""
        prefix = layer + "."
        return sum(t for name, t in self.self_s.items() if name.startswith(prefix))

    def save(self, path):
        """Write the span log (truncated at MAX_LOGGED_SPANS) as an .npz."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.log_name, dtype=np.uint16),
            start_s=np.frombuffer(self.log_start, dtype=np.float64),
            end_s=np.frombuffer(self.log_end, dtype=np.float64),
            parent=np.frombuffer(self.log_parent, dtype=np.int32),
            run=np.frombuffer(self.log_run, dtype=np.int32),
            opened=self.opened,
        )


class _Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, obj, attr, value):
        own = vars(obj)
        self._undo.append((obj, attr, attr in own, own.get(attr)))
        setattr(obj, attr, value)

    def undo(self):
        while self._undo:
            obj, attr, had, old = self._undo.pop()
            if had:
                setattr(obj, attr, old)
            else:  # an instance attribute shadowing a method of its class
                delattr(obj, attr)


def _objective_counter(tracer, f, kind):
    """Count the matvecs and matrix bytes one value/gradient call computes."""
    spec = _MATVECS.get(type(f))
    if spec is None:
        return None
    attr, per_value, per_gradient = spec
    per_call = per_value if kind == "value" else per_gradient
    nbytes = getattr(f, attr).nbytes

    def count():
        tracer.counts["problems.matvecs"] += per_call
        tracer.counts["problems.bytes"] += per_call * nbytes
        if tracer.round_depth:
            tracer.counts["consensus.round_evals"] += 1
    return count


def wrap_objective(tracer, patches, f):
    """Trace f.value and f.gradient on this instance only."""
    for kind in ("value", "gradient"):
        inner = tracer.wrap(f"problems.{kind}", getattr(f, kind))
        count = _objective_counter(tracer, f, kind)

        def call(x, _inner=inner, _count=count):
            if _count is not None:
                _count()
            return _inner(x)
        patches.set(f, kind, call)
    return f


def wrap_regularizer(tracer, patches, g):
    """Trace g.prox and g.value on this instance only."""
    patches.set(g, "prox", tracer.wrap("prox.prox", g.prox))
    patches.set(g, "value", tracer.wrap("prox.value", g.value))
    return g


def _consensus_round(tracer, fn):
    inner = tracer.wrap("consensus.round", fn)

    def call(*args, **kwargs):
        tracer.round_depth += 1
        try:
            return inner(*args, **kwargs)
        finally:
            tracer.round_depth -= 1
    return call


@contextlib.contextmanager
def install(tracer, objectives=(), regularizers=()):
    """Wrap every layer boundary for the duration of the block.

    objectives and regularizers are instances the caller hands to a solve;
    the CLI builds its own, so its builders are wrapped instead.
    """
    patches = _Patches()
    wrap = tracer.wrap

    def factory(cls, wrapper):
        def build(*args, **kwargs):
            return wrapper(tracer, patches, cls(*args, **kwargs))
        return build

    try:
        for module in (vmpg.solver, vmpg.consensus):
            patches.set(module, "line_search", wrap("solver.line_search", module.line_search))
            patches.set(module, "diagonal_bb", wrap("stepsize.diagonal_bb", module.diagonal_bb))
            patches.set(module, "hybrid_bb", wrap("stepsize.hybrid_bb", module.hybrid_bb))
        for module in (vmpg.solver, vmpg.stepsize, vmpg.consensus):
            patches.set(module, "as_vector", wrap("core.validate", module.as_vector))
        patches.set(DiagonalMetric, "__init__",
                    wrap("core.metric_build", DiagonalMetric.__init__))
        patches.set(vmpg.consensus, "consensus_round",
                    _consensus_round(tracer, vmpg.consensus.consensus_round))
        patches.set(vmpg.consensus, "Consensus",
                    factory(vmpg.consensus.Consensus, wrap_regularizer))
        patches.set(vmpg.cli, "solve", wrap("solver.solve", vmpg.cli.solve, new_run=True))
        patches.set(vmpg.cli, "generate_qp", wrap("problems.build", vmpg.cli.generate_qp))
        smooth_part = wrap("problems.build", vmpg.cli.smooth_part)
        patches.set(vmpg.cli, "smooth_part",
                    lambda problem: wrap_objective(tracer, patches, smooth_part(problem)))
        patches.set(vmpg.cli, "Nonnegative",
                    factory(vmpg.cli.Nonnegative, wrap_regularizer))
        for f in objectives:
            wrap_objective(tracer, patches, f)
        for g in regularizers:
            wrap_regularizer(tracer, patches, g)
        yield tracer
    finally:
        patches.undo()
