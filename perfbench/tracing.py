"""Span tracing of the lab's layers, installed from outside the package.

The package is not changed. :func:`install` replaces each layer function
with a wrapper in every layer module namespace that binds it (``harness``,
``crb`` and ``cli`` import functions by name, so wrapping only the
defining module would miss those calls), and wraps the
``GridEvaluator`` methods on the class. Each call records a span: name,
start, end, parent span and trial id. The parent stack is thread-local
because ``harness._map_trials`` runs trials on a thread pool; the trials
it hands to pool threads are parented to its span, so a parent's self
time is the part of its interval that no child covers.
"""

import functools
import itertools
import threading
import time
from collections import defaultdict
from typing import NamedTuple

LAYERS = ("cli", "harness", "ofdm_model", "estimators", "crb")

# Private helpers that mark a layer boundary named in the per-layer
# table; everything else traced is in the module's ``__all__``.
PRIVATE_BOUNDARIES = {
    "cli": ("_run_fig1", "_run_fig2", "_run_crb"),
    "harness": ("_select_crb_backend", "_draw_observation", "_map_trials"),
}

EVALUATOR_METHODS = ("__init__", "proposed_surface", "nguyenle_surface",
                     "search_proposed", "search_nguyenle", "_result")

# Spans that open a trial (fig1/fig2) or a draw loop (crb).
TRIAL_SPANS = ("harness.run_trial", "crb.average_crb")


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    trial: tuple | None
    thread: int
    ok: bool


class Tracer:
    """Collects spans in memory.

    ``capture`` maps a span name to a reducer; the reducer's value of
    each return value is kept in ``captured[name]``, so counters can be
    read from results without holding the results themselves.
    """

    def __init__(self, capture=None):
        self.spans = []
        self.captured = defaultdict(list)
        self._capture = dict(capture or {})
        self._local = threading.local()
        self._ids = itertools.count()

    def _adopt(self, fn, parent_id):
        """Make ``fn``, run on a pool thread, a child of ``parent_id``."""
        local = self._local

        def adopted(*args, **kwargs):
            if getattr(local, "stack", None):
                return fn(*args, **kwargs)
            local.stack = [(parent_id, None)]
            try:
                return fn(*args, **kwargs)
            finally:
                local.stack = []

        return adopted

    def wrap(self, name, fn):
        local = self._local
        spans = self.spans
        reducer = self._capture.get(name)
        opens_trial = name == "harness.run_trial"
        fans_out = name == "harness._map_trials"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent, trial = stack[-1] if stack else (None, None)
            if opens_trial and len(args) >= 3:
                trial = (args[1], args[2])  # run_trial(cfg, snr_db, index)
            span_id = next(self._ids)
            if fans_out and args:
                # _map_trials(fn, n) runs fn on pool threads: parent the
                # trials there to this span, so its self time is the
                # pool's overhead rather than the whole wait.
                args = (self._adopt(args[0], span_id),) + args[1:]
            stack.append((span_id, trial))
            ok = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append(Span(span_id, name, start, end, parent, trial,
                                  threading.get_ident(), ok))
            if reducer is not None:
                self.captured[name].append(reducer(result))
            return result

        return traced


def _targets(module_name, module):
    names = list(getattr(module, "__all__", ()))
    names += PRIVATE_BOUNDARIES.get(module_name, ())
    for attr in names:
        fn = getattr(module, attr, None)
        if callable(fn) and not isinstance(fn, type) \
                and getattr(fn, "__module__", None) == module.__name__:
            yield attr, fn


def install(tracer, modules):
    """Wrap the layer functions of ``modules`` (layer name -> module).

    Every namespace in ``modules`` that binds a wrapped function by name
    gets the same wrapper, so a function reached through ``harness`` or
    ``cli`` is traced the same as through its own module.
    """
    wrappers = {}
    for layer, module in modules.items():
        for attr, fn in _targets(layer, module):
            wrappers[id(fn)] = (fn, tracer.wrap(f"{layer}.{attr}", fn))
    for module in modules.values():
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
    evaluator = getattr(modules.get("estimators"), "GridEvaluator", None)
    if evaluator is not None:
        for method in EVALUATOR_METHODS:
            setattr(evaluator, method, tracer.wrap(
                f"estimators.GridEvaluator.{method}",
                vars(evaluator)[method]))


def self_times(spans):
    """Span id -> self time: duration less the union of its children."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for lo, hi in sorted(children.get(span.id, ())):
            lo = max(lo, cursor)
            hi = min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span.id] = (span.end - span.start) - covered
    return out


def within(spans, ancestors):
    """Ids of spans that have an ancestor whose name is in ``ancestors``."""
    by_id = {span.id: span for span in spans}
    hits = set()
    for span in spans:
        parent = by_id.get(span.parent)
        while parent is not None:
            if parent.name in ancestors:
                hits.add(span.id)
                break
            parent = by_id.get(parent.parent)
    return hits


def summarize(spans, durations_for=()):
    """Per span name: calls, failed calls, total and self seconds.

    Names in ``durations_for`` also keep every call's duration. Also
    counts ``ofdm_model.channel_frequency_response`` calls made inside a
    trial or draw loop, which leaves out the backend probe's calls.
    """
    selfs = self_times(spans)
    names = {}
    for span in spans:
        entry = names.setdefault(span.name, {
            "calls": 0, "failed": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["failed"] += not span.ok
        entry["total_s"] += span.end - span.start
        entry["self_s"] += selfs[span.id]
        if span.name in durations_for:
            entry.setdefault("durations_s", []).append(span.end - span.start)
    in_trials = within(spans, TRIAL_SPANS)
    cfr_in_trials = sum(
        1 for span in spans
        if span.name == "ofdm_model.channel_frequency_response"
        and span.id in in_trials)
    return {"names": names, "cfr_calls_in_trials": cfr_in_trials}
