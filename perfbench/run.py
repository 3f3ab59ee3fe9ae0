#!/usr/bin/env python3
"""Benchmark of the dlschubert engine.

    python3 perfbench/run.py --workload sweep-s4 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

Run it from anywhere inside a checkout; it times the engine in the
checkout's own src (put on PYTHONPATH for every child process).  One
process acts as one closed-loop client: it starts one child at a time
and waits for it.  Before any timing it runs `dlschubert verify all
--n 4` and gives up, printing no numbers, if that fails.

A run measures passes of its workload for about --seconds seconds
(always at least one pass), checks every answer against golden.json and
an independent route, and prints a table followed by one JSON line:
the end-to-end metrics with --trace 0, the per-layer metrics of the
span-wrapped engine with --trace 1.  README.md describes the workloads
and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import hostspeed
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
ENV_CACHE_DIR = "DLSCHUBERT_CACHE_DIR"

RUN_LIMIT_S = 170  # every run must end within 180 s
PREFLIGHT_LIMIT_S = 60
PASS_LIMIT_S = {"sweep-s4": 60, "large-q-s3": 90}  # one in-process pass
REQUEST_LIMIT_S = {"cold-s5": 120, "cli-cache-s5": 20}  # one CLI request
SETUP_PROBES = 5
PROBE_EVERY_S = 0.5  # host speed probes while a child runs
# a request's time is its least over the passes of a run, so every
# workload with more than one request makes at least three passes
MIN_PASSES = {"sweep-s4": 3, "large-q-s3": 3, "cli-cache-s5": 3, "cold-s5": 1}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "request_p50_s": "s",
    "request_tail_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = (
    "flagring.normal_form.calls",
    "flagring.normal_form.self_s",
    "flagring.schubert_class.calls",
    "flagring.schubert_class.self_s",
    "flagring.schubert_expand.self_s",
    "flagring.mul.calls",
    "flagring.mul.self_s",
    "poly.substitute.calls",
    "poly.substitute.self_s",
    "betapoly.divided_difference.calls",
    "betapoly.divided_difference.self_s",
    "poly.mul.self_s",
    "poly.exact_divide.self_s",
    "betapoly.family.terms",
    "fgl.n_times.calls",
    "fgl.n_times.self_s",
    "fgl.fgl_inverse.self_s",
    "dlclass.is_prime_power.self_s",
    "cache.get.calls",
    "cache.get.hits",
    "cache.get.self_s",
    "cache.put.calls",
    "cache.put.self_s",
    "cache.bytes_written",
    "cache.discards",
    "poly.render.self_s",
    "cli.main.self_s",
    "trace.overhead",
)


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name == "cache.bytes_written":
        return "bytes"
    if name == "trace.overhead":
        return "fraction"
    return "count"


# -- child processes -----------------------------------------------------


@dataclass
class Exit:
    code: int | None  # None: killed at its time limit
    seconds: float  # from spawn until reaped
    spawned: float  # time.monotonic() at spawn
    maxrss_kb: int
    probe: float  # mean host speed probe before, during and after the child
    stdout: str
    stderr: str


def run_child(argv: list[str], env: dict, limit: float, stem: Path) -> Exit:
    """Run one child until it exits or `limit` seconds pass, then kill it.

    Output goes to files so that a large answer cannot block the child;
    waiting on a pidfd wakes at the exit itself, without polling delay.
    The host speed is probed before the child starts, every
    PROBE_EVERY_S while it runs, and after it has exited.
    """
    out_path, err_path = stem.with_suffix(".out"), stem.with_suffix(".err")
    probes = [hostspeed.probe()]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        try:
            fd = os.pidfd_open(proc.pid)
            try:
                poller = select.poll()
                poller.register(fd, select.POLLIN)
                end = spawned + limit
                while True:
                    remaining = end - time.monotonic()
                    timed_out = remaining <= 0
                    if timed_out:
                        signal.pidfd_send_signal(fd, signal.SIGKILL)
                        break
                    if poller.poll(min(remaining, PROBE_EVERY_S) * 1000):
                        break
                    probes.append(hostspeed.probe())
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                os.close(fd)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        seconds = time.monotonic() - spawned
    probes.append(hostspeed.probe())
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Exit(None if timed_out else proc.returncode, seconds, spawned, usage.ru_maxrss,
                statistics.mean(probes),
                out_path.read_text(errors="replace"), err_path.read_text(errors="replace"))


def exit_error(ex: Exit) -> str:
    if ex.code is None:
        return f"killed at its time limit after {ex.seconds:.1f} s"
    tail = ex.stderr.strip().splitlines()[-1:] or [""]
    return f"exit code {ex.code} {tail[0]}".strip()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.pop(ENV_CACHE_DIR, None)
    return env


# -- passes --------------------------------------------------------------


@dataclass
class Outcome:
    key: str
    seconds: float | None = None  # as measured
    probe: float | None = None  # host speed probe paired with it
    digest: str | None = None
    error: str | None = None
    startup_s: float = 0.0  # part of `seconds` spent outside cli.main
    spawn_probe: float | None = None  # bare interpreter start paired with it

    @property
    def ok(self) -> bool:
        return self.seconds is not None and not self.error

    @property
    def corrected(self) -> float:
        return hostspeed.corrected(self.seconds, self.probe, self.startup_s, self.spawn_probe)


@dataclass
class Pass:
    wall: float  # raw seconds spent in requests
    maxrss_kb: int
    outcomes: list[Outcome]
    layers: dict | None = None  # spans and counts summed over the pass
    request_layers: list[dict] = field(default_factory=list)  # traced CLI requests


class Run:
    """State of one workload run: its children's environment, scratch
    directory and deadline."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.workload, self.seed, self.work = workload, seed, work
        self.env = child_env()
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.requests = workloads.requests(workload, seed)

    def limit(self, cap: float) -> float:
        return min(cap, self.deadline - time.monotonic())

    def child(self, argv: list[str], cap: float, env: dict | None = None) -> Exit:
        return run_child(argv, env or self.env, self.limit(cap), self.work / "child")

    def spawn_probe(self) -> float:
        """Seconds to start and end a bare interpreter."""
        start = time.monotonic()
        subprocess.run(hostspeed.SPAWN_ARGV, env=self.env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=30)
        return time.monotonic() - start

    def setup_seconds(self) -> float:
        """Interpreter start, engine import, request generation and, for
        in-process workloads, the warm-up; host-corrected as start-up."""
        spawn = self.spawn_probe()
        ex = self.child([sys.executable, str(BENCH / "child.py"), "setup",
                         self.workload, str(self.seed)], PREFLIGHT_LIMIT_S)
        if ex.code != 0:
            raise NoResult(f"setup probe failed: {exit_error(ex)}")
        ready = json.loads(ex.stdout)["ready"] - ex.spawned
        return hostspeed.corrected(ready, ex.probe, ready, spawn)

    def run_pass(self, trace: bool, check: bool) -> Pass:
        if self.workload in workloads.IN_PROCESS:
            return self.class_pass(trace, check)
        return self.cli_pass(trace)

    def class_pass(self, trace: bool, check: bool) -> Pass:
        out = self.work / "pass.json"
        out.unlink(missing_ok=True)
        argv = [sys.executable, str(BENCH / "child.py"), "classes",
                self.workload, str(self.seed), str(out)]
        argv += ["--trace"] * trace + ["--check"] * check
        ex = self.child(argv, PASS_LIMIT_S[self.workload])
        if ex.code != 0:
            return Pass(ex.seconds, ex.maxrss_kb,
                        [Outcome(r.key, error=exit_error(ex)) for r in self.requests])
        data = json.loads(out.read_text())
        outcomes = [Outcome(r["key"], r["seconds"], r["probe"], r["digest"], r["error"])
                    for r in data["requests"]]
        return Pass(data["wall"], data["maxrss_kb"], outcomes, data["layers"])

    def cli_pass(self, trace: bool) -> Pass:
        env = dict(self.env)
        if self.workload == "cli-cache-s5":
            # every pass starts from an empty cache of its own
            env[ENV_CACHE_DIR] = tempfile.mkdtemp(prefix="cache-", dir=self.work)
        report = self.work / "cli.json"
        p = Pass(0.0, 0, [])
        for req in self.requests:
            spawn = self.spawn_probe()
            argv = [sys.executable, str(BENCH / "child.py"), "cli", str(report),
                    "1" if trace else "0", *req.argv]
            ex = self.child(argv, REQUEST_LIMIT_S[self.workload], env)
            p.wall += ex.seconds
            p.maxrss_kb = max(p.maxrss_kb, ex.maxrss_kb)
            if ex.code != 0:
                p.outcomes.append(Outcome(req.key, error=exit_error(ex)))
                continue
            data = json.loads(report.read_text())
            startup = ex.seconds - (data["main_end"] - data["main_start"])
            p.outcomes.append(Outcome(req.key, ex.seconds, ex.probe, checks.digest_text(ex.stdout),
                                      checks.cli_output_error(req, ex.stdout), startup, spawn))
            if trace:
                p.request_layers.append(data["layers"])
        if trace:
            p.layers = merge_layers(p.request_layers)
        return p


def merge_layers(reports: list[dict]) -> dict:
    spans: dict[str, dict] = {}
    counts: dict[str, int] = {}
    for rep in reports:
        for name, st in rep["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            for k in acc:
                acc[k] += st[k]
        for name, c in rep["counts"].items():
            counts[name] = counts.get(name, 0) + c
    missing = sorted({m for rep in reports for m in rep["missing"]})
    return {"spans": spans, "counts": counts, "missing": missing}


def measure(run: Run, seconds: float, trace: bool) -> tuple[list[Pass], list[Pass]]:
    """Passes until `seconds` have gone by and the workload's least
    number of passes is made, without starting one that would end past
    the run's deadline.  A traced run first makes one untraced pass to
    measure the tracing overhead.  Returns (passes whose numbers are
    reported, every pass made)."""
    made = [run.run_pass(trace=False, check=True)] if trace else []
    passes: list[Pass] = []
    start = time.monotonic()
    while True:
        passes.append(run.run_pass(trace=trace, check=not made and not passes))
        elapsed = time.monotonic() - start
        per_pass = elapsed / len(passes)
        if ((len(passes) >= MIN_PASSES[run.workload] and elapsed + per_pass > seconds)
                or time.monotonic() + 1.5 * per_pass > run.deadline
                or any(o.error for o in passes[-1].outcomes)):
            break
    return passes, made + passes


# -- metrics -------------------------------------------------------------


class NoResult(Exception):
    """A run produced no number to report."""


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest order statistic with at least ten samples above it,
    and its percentile.  With ten samples or fewer: the maximum."""
    s = sorted(samples)
    if len(s) <= 10:
        return s[-1], 100.0
    k = len(s) - 11
    return s[k], 100.0 * (k + 1) / len(s)


def failures(outcomes: list[Outcome], golden: dict[str, str]) -> list[str]:
    """One line per failed request: an exception, a nonzero exit, a time
    limit, a failed independent check or a digest that differs from
    golden.json."""
    out = []
    for o in outcomes:
        err = o.error
        if err is None:
            err = checks.golden_error(o.key, o.digest, golden) if o.digest else "no answer"
        if err:
            out.append(f"{o.key}: {err}")
    return out


def request_times(passes: list[Pass], corrected: bool = True) -> list[float]:
    """Each request's median host-corrected (or raw) time over the passes
    that answered it.

    The correction removes most of the host's slowdown; the median over
    a run's passes drops what a single probe gets wrong in either
    direction.  Every pass of a run sends the same requests in the same
    order; a request is matched across passes by its key and its
    occurrence in the pass.
    """
    times: dict[tuple[str, int], list[float]] = {}
    for p in passes:
        seen: dict[str, int] = {}
        for o in p.outcomes:
            ident = (o.key, seen.get(o.key, 0))
            seen[o.key] = ident[1] + 1
            if o.ok:
                times.setdefault(ident, []).append(o.corrected if corrected else o.seconds)
    return [statistics.median(v) for v in times.values()]


def end_to_end(setups: list[float], passes: list[Pass]) -> dict[str, tuple[float, str]]:
    """name -> (value, sample note)"""
    per_request = request_times(passes)
    if not per_request:
        raise NoResult("no request succeeded")
    samples = [o.corrected for p in passes for o in p.outcomes if o.ok]
    value, pct = tail(samples)
    n_req = f"n={len(samples)} requests in {len(passes)} passes"
    return {
        "setup_s": (statistics.median(setups), f"n={len(setups)} setups"),
        "wall_s": (sum(per_request), f"sum over {len(per_request)} requests of the median of "
                   f"{len(passes)} passes; raw {sum(request_times(passes, False)):.4g} s"),
        "request_p50_s": (statistics.median(samples), n_req),
        "request_tail_s": (value, f"p{pct:.1f}, {n_req}"),
        "peak_rss_mb": (statistics.median(p.maxrss_kb for p in passes) / 1024,
                        f"n={len(passes)} passes"),
    }


def corrected_wall(p: Pass) -> float:
    return sum(o.corrected for o in p.outcomes if o.ok)


def per_layer(passes: list[Pass], reference: Pass) -> dict[str, tuple[float, str]]:
    """Counts of the first traced pass (every pass repeats them) and the
    median self time over the traced passes."""
    if any(p.layers is None for p in passes):
        raise NoResult("a traced pass recorded no spans")
    first = passes[0].layers
    note = f"n={len(passes)} traced passes"
    out = {}
    for name in PER_LAYER:
        if name == "trace.overhead":
            value = (statistics.median(corrected_wall(p) for p in passes)
                     / corrected_wall(reference) - 1)
        elif name.endswith(".calls"):
            value = first["spans"].get(name[: -len(".calls")], {}).get("calls", 0)
        elif name.endswith(".self_s"):
            span = name[: -len(".self_s")]
            value = statistics.median(p.layers["spans"].get(span, {}).get("self_s", 0.0)
                                      for p in passes)
        else:
            value = first["counts"].get(name, 0)
        out[name] = (value, note)
    return out


def span_table(p: Pass) -> list[str]:
    rows = sorted(p.layers["spans"].items(), key=lambda kv: -kv[1]["self_s"])
    lines = [f"  {'span':34} {'calls':>9} {'self_s':>10} {'share':>7}"]
    for name, st in rows:
        lines.append(f"  {name:34} {st['calls']:>9} {st['self_s']:>10.4f} "
                     f"{100 * st['self_s'] / p.wall:>6.1f}%")
    counts = ", ".join(f"{k}={v}" for k, v in sorted(p.layers["counts"].items()))
    lines.append(f"  counts: {counts or 'none'}")
    if p.layers["missing"]:
        lines.append(f"  not traced, no longer in the engine: {', '.join(p.layers['missing'])}")
    return lines


def cache_break_even(p: Pass) -> str | None:
    """Median cache.get time of a hit against the median compute time of
    a miss, from the per-request spans of a traced cli-cache-s5 pass."""
    def total(rep, name):
        return rep["spans"].get(name, {}).get("total_s", 0.0)

    hits = [r for r in p.request_layers if r["counts"].get("cache.get.hits")]
    misses = [r for r in p.request_layers if not r["counts"].get("cache.get.hits")]
    if not hits or not misses:
        return None
    get_hit = statistics.median(total(r, "cache.get") for r in hits)
    compute = statistics.median(total(r, "betapoly.double_beta_polynomial") for r in misses)
    miss_cost = statistics.median(total(r, "cache.get") + total(r, "cache.put") for r in misses)
    line = (f"cache break-even: a hit reads in {get_hit:.4f} s (median cache.get), "
            f"a miss computes in {compute:.4f} s (median betapoly) and adds "
            f"{miss_cost:.4f} s of cache.get + cache.put; ")
    if compute <= get_hit:
        return line + "a hit is not cheaper than computing, so the cache never pays"
    return line + (f"the cache pays once hits per miss exceed {miss_cost / (compute - get_hit):.3f} "
                   f"(this workload: {len(hits)} hits, {len(misses)} misses)")


# -- environment ---------------------------------------------------------


def git_state() -> tuple[str, bool | None]:
    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, check=True, timeout=30).stdout.strip()

    try:
        if Path(git("rev-parse", "--show-toplevel")).resolve() != ROOT:
            return "unknown", None
        return git("rev-parse", "HEAD"), bool(git("status", "--porcelain", "--untracked-files=no"))
    except (OSError, subprocess.SubprocessError):
        return "unknown", None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    commit, dirty = git_state()
    return {"commit": commit, "dirty": dirty, "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model()}


# -- driver --------------------------------------------------------------


def preflight(work: Path) -> str | None:
    argv = [sys.executable, "-m", "dlschubert.cli", "verify", "all", "--n", "4"]
    ex = run_child(argv, child_env(), PREFLIGHT_LIMIT_S, work / "preflight")
    if ex.code != 0:
        return exit_error(ex)
    return None


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 work: Path, golden: dict[str, str]) -> tuple[dict, list[str]]:
    """One run: returns the result object and the table lines."""
    load_before = os.getloadavg()
    run = Run(workload, seed, work)
    setups = [run.setup_seconds() for _ in range(SETUP_PROBES)]
    passes, made = measure(run, seconds, trace)
    outcomes = [o for p in made for o in p.outcomes]
    failed = failures(outcomes, golden)
    try:
        if trace:
            metrics = per_layer(passes, made[0])
            names = {n: layer_unit(n) for n in PER_LAYER}
        else:
            metrics = end_to_end(setups, passes)
            names = END_TO_END
    except NoResult as exc:
        raise NoResult("\n".join([f"{workload}: {exc}"] + failed[:20])) from None
    lines = [f"{workload:13} {name:34} {metrics[name][0]:>14.6g} {unit:9} {metrics[name][1]}"
             for name, unit in names.items()]
    lines.append(f"{workload:13} {'failed_frac':34} {len(failed) / len(outcomes):>14.6g} "
                 f"{'1':9} {len(failed)} of {len(outcomes)} requests")
    lines += [f"FAILED {f}" for f in failed[:20]]
    if trace:
        lines.append(f"traced pass of {workload} ({passes[0].wall:.3f} s):")
        lines += span_table(passes[0])
        if workload == "cli-cache-s5":
            lines.append(cache_break_even(passes[0]) or "cache break-even: no hits or no misses")
        repeats = all(p.layers["counts"] == passes[0].layers["counts"] and
                      {k: v["calls"] for k, v in p.layers["spans"].items()} ==
                      {k: v["calls"] for k, v in passes[0].layers["spans"].items()}
                      for p in passes)
        lines.append(f"counts repeat across the {len(passes)} traced passes: {repeats}")
    lines.append(f"load average before {list(load_before)} after {list(os.getloadavg())}")
    result = {
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name][0], "unit": unit} for name, unit in names.items()},
    }
    return result, lines


def parse_args(argv):
    ap = argparse.ArgumentParser(description="Benchmark of the dlschubert engine.")
    ap.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dlschubert" / "__init__.py").is_file():
        print(f"error: no engine source at {SRC / 'dlschubert'}", file=sys.stderr)
        return 2
    golden = checks.load_golden()
    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# env {json.dumps(environment())}", flush=True)
    work = Path(tempfile.mkdtemp(prefix=".run-", dir=BENCH))
    try:
        error = preflight(work)
        if error:
            print(f"error: pre-flight `dlschubert verify all --n 4` failed: {error}", file=sys.stderr)
            return 1
        print("# pre-flight: dlschubert verify all --n 4 passed", flush=True)
        chosen = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for workload in chosen:
            results[workload], lines = run_workload(
                workload, args.seed, args.seconds, bool(args.trace), work, golden)
            print("\n".join(lines), flush=True)
    except NoResult as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
