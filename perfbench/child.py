"""One benchmark process: a CLI verb or the library sweep.

Run by ``run.py`` as ``python3 perfbench/child.py verb|sweep PAYLOAD_JSON``
with ``PYTHONPATH`` pointing at the checkout's ``src``.  Every process starts
with empty calderon3d caches.  The last line of standard output is one JSON
object with the process's timings, peak RSS, warning count and, when traced,
its spans.

``busy_s`` is the time spent in pipeline calls, warm probes and output checks;
the parent counts the rest of the process's wall time as set-up.
"""

from __future__ import annotations

import json
import math
import resource
import sys
import time
import traceback
import warnings

from tracing import Tracer


def _peak_rss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_verb(payload: dict, tracer: Tracer | None) -> dict:
    """``calderon3d.cli.main(argv)`` for one verb, as the console script runs it."""
    import calderon3d.cli as cli

    argv = payload["argv"]
    if tracer is not None:
        tracer.install(cli)
        tracer.trace_phantoms(cli.PhantomSpec)
    t0 = time.monotonic()
    try:
        if tracer is None:
            rc = cli.main(argv)
        else:
            with tracer.span(f"cli.{argv[0]}"):
                rc = cli.main(argv)
    except Exception:  # a crash is a failed op, reported to the parent
        traceback.print_exc()
        rc = 1
    t1 = time.monotonic()
    if tracer is not None and rc == 0:
        tracer.probe_warm(cli)
    return {"rc": rc, "main_s": t1 - t0, "busy_s": time.monotonic() - t0}


def _relative_error(recovered, reference) -> float:
    num = sum(abs(recovered.get(i.k, i.ell, i.m) - v) ** 2 for i, v in reference.entries.items())
    den = sum(abs(v) ** 2 for v in reference.entries.values())
    return math.sqrt(num / den)


def run_sweep(payload: dict, tracer: Tracer | None) -> dict:
    """The library pipeline of ``sweep_L``: one cold forward map, many warm solves."""
    import numpy as np

    import calderon3d as c3

    if tracer is not None:
        tracer.install(c3)
        tracer.trace_phantoms(c3.PhantomSpec)
    schedule = c3.TruncationSchedule(payload["schedule"])
    eta = c3.PhantomSpec(
        "gaussian", center=payload["center"], sharpness=payload["sharpness"]
    ).build()
    n = payload["resolution"]
    u = np.linspace(-1.0, 1.0, n)
    x, y = np.meshgrid(u, u, indexing="ij")
    inside = x * x + y * y <= 1.0
    x, y = x[inside], y[inside]
    z = np.zeros_like(x)

    calls: list = []
    errors: list = []

    def call(public, *args):
        t0 = time.perf_counter()
        out = getattr(c3, public)(*args)
        calls.append([public, time.perf_counter() - t0])
        return out

    t_begin = time.monotonic()
    try:
        truth = call("project", eta, schedule.K, schedule.caps)
        ms = call("forward_measure", truth, schedule.K, schedule.caps)
        clean = call("reconstruct", ms, schedule)
        for seed in payload["noise_seeds"]:
            noisy = call("add_noise", ms, payload["noise"], seed)
            call("reconstruct", noisy, schedule)
        values = call("synthesize_xyz", clean.field, x, y, z)
    except Exception as exc:  # the op that raised counts as failed; the rest never ran
        traceback.print_exc()
        return {"calls": calls, "attempted": len(calls) + 1, "errors": [repr(exc)],
                "busy_s": time.monotonic() - t_begin}
    if tracer is not None:
        tracer.probe_warm(c3)

    # output checks, outside the timed calls: the noise-free round trip is
    # exact to rounding (criterion 1's bound), and synthesis gives a finite
    # value at every in-ball point of the slice
    round_trip = _relative_error(clean.field, truth)
    if not round_trip <= payload["round_trip_tol"]:
        errors.append(f"reconstruct: round-trip relative error {round_trip:.3e} "
                      f"> {payload['round_trip_tol']}")
    if not (np.shape(values) == x.shape and np.all(np.isfinite(values))):
        errors.append("synthesize_xyz: missing or non-finite values")
    return {"calls": calls, "attempted": len(calls), "errors": errors,
            "round_trip_rel": round_trip, "busy_s": time.monotonic() - t_begin}


def main(argv) -> int:
    mode, payload = argv[0], json.loads(argv[1])
    tracer = Tracer(payload["run"], payload["proc"]) if payload["trace"] else None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = (run_verb if mode == "verb" else run_sweep)(payload, tracer)
    out["divisor_warnings"] = sum(
        w.category.__name__ == "DivisorUnderflowWarning" for w in caught
    )
    out["rss_kib"] = _peak_rss_kib()
    out["spans"] = tracer.spans if tracer is not None else []
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
