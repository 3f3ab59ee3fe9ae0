"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_tail_is_highest_order_statistic_with_ten_beyond():
    samples = [float(v) for v in range(48, 0, -1)]
    value, pct = run.tail(samples)
    assert value == 38.0  # 39..48 lie beyond it
    assert pct == pytest.approx(100 * 38 / 48)
    assert run.tail([float(v) for v in range(1, 12)]) == (1.0, pytest.approx(100 / 11))
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_of_nested_and_recursive_spans():
    t = spans.Tracer(clock=FakeClock([0, 1, 2, 4, 5, 10]))
    t.enter("a")  # 0
    t.enter("b")  # 1
    t.enter("a")  # 2, recursive
    t.exit()  # 4: inner a lasted 2
    t.exit()  # 5: b lasted 4, 2 of them in a
    t.exit()  # 10: outer a lasted 10, 4 of them in b
    rep = t.report()["spans"]
    assert rep["a"] == {"calls": 2, "self_s": 6 + 2, "total_s": 10}
    assert rep["b"] == {"calls": 1, "self_s": 2, "total_s": 4}


def test_wrapped_recursion_and_counts():
    ticks = iter(range(100))
    t = spans.Tracer(clock=lambda: next(ticks))

    def fact(k):
        return 1 if k == 0 else k * traced(k - 1)

    traced = t.wrap("fact", fact, after=lambda tr, out, args: tr.count("fact.out", out))
    assert traced(3) == 6
    rep = t.report()
    assert rep["spans"]["fact"]["calls"] == 4
    # spans [0,7] > [1,6] > [2,5] > [3,4]: self times partition the
    # outermost span, whose duration is the inclusive time, counted once
    assert rep["spans"]["fact"]["self_s"] == 7
    assert rep["spans"]["fact"]["total_s"] == 7
    assert rep["counts"]["fact.out"] == 1 + 1 + 2 + 6


def test_install_wraps_every_binding():
    """Aliases (__rmul__), names imported into dlclass and the recursive
    module global are all traced; run in a child so the engine in this
    process stays unwrapped."""
    code = (
        "import json, spans\n"
        "t = spans.Tracer()\n"
        "missing = spans.install(t)\n"
        "from dlschubert import dlclass, betapoly, flagring\n"
        "assert dlclass.normal_form is flagring.normal_form\n"
        "assert flagring.FlagRingElement.__rmul__ is flagring.FlagRingElement.__mul__\n"
        "x = flagring.FlagRingElement.x_gen(3, 1)\n"
        "3 * x\n"
        "betapoly.double_beta_polynomial((1, 2, 3))\n"
        "print(json.dumps({'missing': missing, 'report': t.report()}))\n"
    )
    env = run.child_env()
    env["PYTHONPATH"] += f":{BENCH}"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    data = json.loads(out.stdout)
    assert data["missing"] == []
    s = data["report"]["spans"]
    assert s["flagring.mul"]["calls"] == 1
    # identity of S_3 is three divided differences below the top polynomial
    assert s["betapoly.double_beta_polynomial"]["calls"] == 4
    assert s["betapoly.divided_difference"]["calls"] == 3
    assert data["report"]["counts"]["betapoly.family.terms"] > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_requests_and_fixed_work(workload):
    a = workloads.requests(workload, 7)
    assert a == workloads.requests(workload, 7)
    drawable = {r.key for r in workloads.all_requests(workload)}
    assert {r.key for r in a} <= drawable
    if workload != "cold-s5":
        b = workloads.requests(workload, 8)
        assert a != b
        # another seed reorders the requests (and rotates theories) but
        # draws the same number per w and q
        assert sorted((r.w, r.q) for r in a) == sorted((r.w, r.q) for r in b)


def test_sweep_theories_are_balanced():
    reqs = workloads.requests("sweep-s4", 3)
    assert len(reqs) == 240
    for theory in workloads.THEORIES:
        assert sum(r.theory == theory for r in reqs) == 80


def test_golden_covers_every_drawable_request():
    golden = checks.load_golden()
    keys = {r.key for w in workloads.WORKLOADS for r in workloads.all_requests(w)}
    assert keys == set(golden)


def test_golden_mismatch_counts_as_failure():
    golden = {"k1": "aaa", "k2": "bbb"}
    ok = run.Outcome("k1", 0.1, 1e-3, "aaa")
    wrong = run.Outcome("k2", 0.1, 1e-3, "ccc")
    unknown = run.Outcome("k3", 0.1, 1e-3, "ddd")
    crashed = run.Outcome("k1", error="exit code 1")
    assert run.failures([ok], golden) == []
    failed = run.failures([ok, wrong, unknown, crashed], golden)
    assert len(failed) == 3
    assert failed[0].startswith("k2: output differs")


def test_request_times_match_requests_by_occurrence():
    def outcome(key, secs):
        return run.Outcome(key, secs, 2 * hostspeed.PROBE_REF_S, "d")

    p1 = run.Pass(0, 0, [outcome("a", 1.0), outcome("a", 5.0), outcome("b", 2.0)])
    p2 = run.Pass(0, 0, [outcome("a", 3.0), outcome("a", 4.0), run.Outcome("b", error="x")])
    p3 = run.Pass(0, 0, [outcome("a", 8.0), outcome("a", 9.0), outcome("b", 6.0)])
    # probes read twice the reference time, so corrected times are halved
    assert sorted(run.request_times([p1, p2, p3])) == [1.5, 2.0, 2.5]
    # start-up is scaled by the spawn probe, the rest by the loop probe
    cli = run.Outcome("c", 3.0, 2 * hostspeed.PROBE_REF_S, "d", startup_s=1.0,
                      spawn_probe=hostspeed.SPAWN_REF_S / 2)
    assert cli.corrected == pytest.approx(1.0 + 2.0)
    assert sorted(run.request_times([p1, p2, p3], corrected=False)) == [3.0, 4.0, 5.0]


def test_cli_cache_passes_start_from_empty_private_directories(tmp_path, monkeypatch):
    monkeypatch.setenv(run.ENV_CACHE_DIR, str(tmp_path / "user-cache"))
    seen = []

    def fake_child(argv, env, limit, stem):
        cache = Path(env[run.ENV_CACHE_DIR])
        seen.append((cache, sorted(cache.iterdir())))
        (cache / f"entry{len(seen)}.json").write_text("{}")
        Path(argv[3]).write_text('{"main_start": 1.0, "main_end": 1.05, "layers": null}')
        return run.Exit(0, 0.1, 0.0, 1000, 1e-3, "1\n", "")

    monkeypatch.setattr(run, "run_child", fake_child)
    monkeypatch.setattr(run.Run, "spawn_probe", lambda self: hostspeed.SPAWN_REF_S)
    r = run.Run("cli-cache-s5", 1, tmp_path)
    r.cli_pass(trace=False)
    r.cli_pass(trace=False)
    per_pass = len(r.requests)
    first, second = seen[0][0], seen[per_pass][0]
    assert first != second
    assert seen[0][1] == [] and seen[per_pass][1] == []
    assert {c for c, _ in seen} == {first, second}
    assert first.parent == tmp_path and second.parent == tmp_path
    # other workloads never see a cache directory, not even the user's
    assert run.ENV_CACHE_DIR not in run.child_env()


def test_independent_checks():
    assert checks.graded_degree_error("x1 + y1 + beta*x1*y1", 1) is None
    assert checks.graded_degree_error("-3*beta^2*x1^3*y2 + x1", 2) is not None
    assert checks.graded_degree_error("-3*beta^2*x1^3*y2", 2) is None
    assert checks.graded_degree_error("1", 0) is None
    result = {"expansion": {"terms": [{"w": "[3,2,1]", "coeff": [{"beta": 0, "value": "21"}]}]}}
    assert checks.point_count_error(result, 3, 2) is None
    assert checks.point_count_error(result, 3, 3) is not None


def test_flag_count_matches_engine_oracle():
    sys.path.insert(0, str(run.SRC))
    from dlschubert import flag_count_oracle

    for n in range(1, 6):
        for q in (2, 3, 1031):
            assert checks.flag_count(n, q) == flag_count_oracle(n, q)


def test_benchmark_json_matches_the_metrics_reported():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        n: run.layer_unit(n) for n in run.PER_LAYER}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
