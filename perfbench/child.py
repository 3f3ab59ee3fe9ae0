"""Child processes of the benchmark; run.py starts them, one at a time.

    child.py setup   WORKLOAD SEED
        import the engine, build the request list (and, in-process, warm
        up), print the monotonic time at which the first request could
        be issued
    child.py classes WORKLOAD SEED OUT [--trace] [--check]
        one pass of an in-process workload: compute every class in one
        warm process, with a host speed probe before and after each,
        then write timings, probes, digests and spans to OUT
    child.py cli OUT TRACE ARGV...
        one CLI request: with TRACE=1 install the span wrappers, then run
        dlschubert.cli.main(ARGV) and write to OUT when main started and
        ended (and the spans)

The engine is imported from the checkout's src, which run.py puts on
PYTHONPATH.
"""

from __future__ import annotations

import json
import resource
import sys
import time

import checks
import hostspeed
import spans
import workloads


def warm_up(reqs) -> None:
    """Build the family and the Schubert basis of S_n with the class of
    the identity over F_2, so that the first timed request of a pass is
    not the one that pays for them (the basis build is cold-s5's
    subject).  dl_class keeps no result, so a timed request for the same
    class computes it again."""
    from dlschubert import dlclass

    n = reqs[0].n
    dlclass.dl_class(dlclass.DLQuery(tuple(range(1, n + 1)), n, 2, "CK"))


def setup(workload: str, seed: int) -> int:
    reqs = workloads.requests(workload, seed)
    if workload in workloads.IN_PROCESS:
        warm_up(reqs)
    else:
        import dlschubert.cli  # noqa: F401
    print(json.dumps({"ready": time.monotonic()}))
    return 0


def independent_error(req, result) -> str | None:
    from dlschubert import dlclass

    if req.w == tuple(range(1, req.n + 1)):
        err = checks.point_count_error(result.to_json(), req.n, req.q)
        if err:
            return err
    if req.theory == "CH" and req.n == 4:
        if dlclass.chow_class_direct(req.w, req.n, req.q) != result.element:
            return "differs from chow_class_direct"
    return None


def classes(workload: str, seed: int, out: str, trace: bool, check: bool) -> int:
    tracer = spans.Tracer() if trace else None
    missing = spans.install(tracer) if trace else []
    from dlschubert import dlclass

    reqs = workloads.requests(workload, seed)
    warm_up(reqs)
    if trace:  # spans of the warm-up are not part of the pass
        tracer.spans.clear()
        tracer.counts.clear()
    results, seconds, probes, errors = [], [], [], []
    for req in reqs:
        # the probe after one request is the probe before the next
        probes.append(hostspeed.probe())
        t = time.perf_counter()
        try:
            result = dlclass.dl_class(dlclass.DLQuery(req.w, req.n, req.q, req.theory))
            error = None
        except Exception as exc:  # a failed request is reported, not fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        seconds.append(time.perf_counter() - t)
        results.append(result)
        errors.append(error)
    probes.append(hostspeed.probe())
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    layers = dict(tracer.report(), missing=missing) if trace else None

    # outside the timed loop: digests, then the independent routes
    records = []
    around = [(a + b) / 2 for a, b in zip(probes, probes[1:])]
    for req, result, secs, probe_s, error in zip(reqs, results, seconds, around, errors):
        digest = None
        if result is not None:
            digest = checks.digest_result(result.to_json())
            if check:
                error = independent_error(req, result)
        records.append({"key": req.key, "seconds": secs, "probe": probe_s,
                        "digest": digest, "error": error})
    with open(out, "w") as fh:
        json.dump({"wall": sum(seconds), "maxrss_kb": maxrss_kb,
                   "requests": records, "layers": layers}, fh)
    return 0


def cli(out: str, trace: bool, argv: list[str]) -> int:
    tracer = spans.Tracer() if trace else None
    missing = spans.install(tracer) if trace else []
    from dlschubert import cli as engine_cli

    start = time.monotonic()
    try:
        code = engine_cli.main(argv)
    finally:
        end = time.monotonic()
        with open(out, "w") as fh:
            json.dump({"main_start": start, "main_end": end,
                       "layers": dict(tracer.report(), missing=missing) if trace else None}, fh)
    return code


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        return setup(rest[0], int(rest[1]))
    if mode == "classes":
        return classes(rest[0], int(rest[1]), rest[2], "--trace" in rest[3:], "--check" in rest[3:])
    if mode == "cli":
        return cli(rest[0], rest[1] == "1", rest[2:])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
