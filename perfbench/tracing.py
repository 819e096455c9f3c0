"""Spans around the public calderon3d calls, kept in memory.

A :class:`Tracer` lives in one benchmark child process.  It replaces the
public functions in a module namespace (``calderon3d.cli`` for a CLI verb,
the ``calderon3d`` package for the library sweep) with wrappers that record
a span per call: name, start, end, parent id, run id and a few work counts.
The child prints its spans once, when it exits; the parent turns them into
per-layer self times with :func:`self_times`.

Span names are ``<module>.<function>`` so that the first dotted component
is the calderon3d module (the layer) the time belongs to.
"""

from __future__ import annotations

import contextlib
import os
import time
from collections import Counter, defaultdict

import numpy as np


def _measurements(args, out):
    return {"measurements": len(out.values)}


def _file_bytes(position):
    return lambda args, out: {"bytes": os.path.getsize(args[position])}


# public name -> (span name, counts taken from the arguments and the result)
TRACED = {
    "project": ("zernike.project", lambda args, out: {"coeffs": len(out.entries)}),
    "synthesize_xyz": (
        "zernike.synthesize_xyz",
        lambda args, out: {"points": int(np.size(args[1])), "coeffs": len(args[0].entries)},
    ),
    "forward_measure": ("forward.forward_measure", _measurements),
    "oracle_measure": ("forward.oracle_measure", _measurements),
    "add_noise": ("forward.add_noise", _measurements),
    "reconstruct": (
        "recon.reconstruct",
        lambda args, out: {"measurements": len(args[0].values)},
    ),
    "dump_coefficient_field": ("serialize.dump_coefficient_field", _file_bytes(1)),
    "load_coefficient_field": ("serialize.load_coefficient_field", _file_bytes(0)),
    "dump_measurement_set": ("serialize.dump_measurement_set", _file_bytes(1)),
    "load_measurement_set": ("serialize.load_measurement_set", _file_bytes(0)),
    "dump_recon_report": ("serialize.dump_recon_report", _file_bytes(1)),
    "dump_grid_slice": ("serialize.dump_grid_slice", _file_bytes(1)),
}

# calls whose first run in a process fills caches; the warm time comes
# from a later call, or from a probe call replayed after the pipeline
COLD_WARM = ("forward_measure", "reconstruct")

PROBE = "probe"


class Tracer:
    """Records nested spans in one process; ``proc`` keeps ids unique per run."""

    def __init__(self, run_id: str, proc: int):
        self.run_id = run_id
        self.proc = proc
        self.spans: list = []
        self._open: list = []
        self._calls: Counter = Counter()
        self._last_args: dict = {}

    @contextlib.contextmanager
    def span(self, name: str, **counts):
        rec = {
            "id": f"{self.proc}.{len(self.spans)}",
            "parent": self._open[-1]["id"] if self._open else None,
            "run": self.run_id,
            "name": name,
            "start": time.monotonic(),
            "end": None,
            **counts,
        }
        self.spans.append(rec)
        self._open.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.monotonic()
            self._open.pop()

    def _wrap(self, public: str, fn):
        name, describe = TRACED[public]

        def traced(*args, **kwargs):
            self._calls[public] += 1
            self._last_args[public] = (args, kwargs)
            with self.span(name, call=self._calls[public]) as rec:
                out = fn(*args, **kwargs)
            rec.update(describe(args, out))
            return out

        return traced

    def install(self, namespace) -> None:
        """Wrap every traced public function that ``namespace`` exposes."""
        for public in TRACED:
            fn = getattr(namespace, public, None)
            if fn is not None:
                setattr(namespace, public, self._wrap(public, fn))

    def trace_phantoms(self, phantom_cls) -> None:
        """Time every evaluation of a field built by ``phantom_cls.build``."""
        build = phantom_cls.build
        tracer = self

        def traced_build(spec):
            eta = build(spec)

            def traced_eta(x, y, z):
                with tracer.span("phantoms.eval", points=int(np.size(x))):
                    return eta(x, y, z)

            return traced_eta

        phantom_cls.build = traced_build

    def probe_warm(self, namespace) -> None:
        """Replay once each cold/warm call the pipeline made only once.

        The replay runs under a ``probe`` span, which the pipeline time
        excludes; it gives the warm time on the same input.
        """
        for public in COLD_WARM:
            if self._calls[public] == 1:
                args, kwargs = self._last_args.pop(public)
                with self.span(PROBE):
                    getattr(namespace, public)(*args, **kwargs)
        self._last_args.clear()


def _children(spans):
    kids = defaultdict(list)
    for s in spans:
        kids[s["parent"]].append(s)
    return kids


def _duration(span) -> float:
    return span["end"] - span["start"]


def pipeline_spans(spans) -> list:
    """Spans on the timed pipeline: everything not under a probe."""
    by_id = {s["id"]: s for s in spans}

    def in_probe(s):
        while s is not None:
            if s["name"] == PROBE:
                return True
            s = by_id.get(s["parent"])
        return False

    return [s for s in spans if not in_probe(s)]


def self_times(spans) -> dict:
    """Per-module self time: span duration minus its children's durations."""
    kept = pipeline_spans(spans)
    kids = _children(kept)
    out: dict = defaultdict(float)
    for s in kept:
        inner = sum(_duration(c) for c in kids[s["id"]])
        out[s["name"].split(".")[0]] += _duration(s) - inner
    return dict(out)
