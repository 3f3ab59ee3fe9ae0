import json

import pytest

from dlschubert import betapoly, cli
from dlschubert.cache import ENV_CACHE_DIR, CacheWarning, PolynomialCache
from dlschubert.flagring import SingularTransitionError
from dlschubert.verify import CheckResult


def run_cli(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_betapoly_latex_frozen(capsys):
    code, out, _ = run_cli(
        capsys, "betapoly", "--w", "[2,1]", "--format", "latex"
    )
    assert code == 0
    assert out == "x_{1} + y_{1} + \\beta x_{1} y_{1}\n"


def test_betapoly_identity(capsys):
    code, out, _ = run_cli(capsys, "betapoly", "--w", "[1,2]")
    assert code == 0
    assert out == "1\n"


def test_betapoly_modes(capsys):
    code, out, _ = run_cli(capsys, "betapoly", "--w", "[2,1]", "--single")
    assert (code, out) == (0, "x1\n")
    code, out, _ = run_cli(capsys, "betapoly", "--w", "[2,1]", "--beta", "0")
    assert (code, out) == (0, "x1 + y1\n")
    code, out, _ = run_cli(capsys, "betapoly", "--w", "[2,1]", "--beta", "-1")
    assert (code, out) == (0, "x1 + y1 - x1*y1\n")
    code, out, _ = run_cli(
        capsys, "betapoly", "--w", "[2,1]", "--double", "--beta", "1"
    )
    assert (code, out) == (0, "x1 + y1 + x1*y1\n")


def test_betapoly_json(capsys):
    code, out, _ = run_cli(capsys, "betapoly", "--w", "[2,1]", "--format", "json")
    assert code == 0
    assert json.loads(out) == [
        {"beta": 0, "x": [1], "y": [], "coeff": "1"},
        {"beta": 0, "x": [], "y": [1], "coeff": "1"},
        {"beta": 1, "x": [1], "y": [1], "coeff": "1"},
    ]


def test_betapoly_embeds_with_n(capsys):
    code, out, _ = run_cli(capsys, "betapoly", "--w", "[2,1]", "--n", "3")
    assert code == 0
    assert out == "x1 + y1 + beta*x1*y1\n"


def test_betapoly_single_beta0_matches_pipe_dreams(capsys):
    from dlschubert.poly import render

    code, out, _ = run_cli(
        capsys, "betapoly", "--w", "[2,1,3]", "--n", "3", "--beta", "0", "--single"
    )
    assert code == 0
    assert out == render(betapoly.pipe_dream_oracle((2, 1, 3))) + "\n"


def test_dlclass_identity_point_coefficient_n3(capsys):
    code, out, _ = run_cli(
        capsys,
        "dlclass", "--w", "[1,2,3]", "--q", "2", "--theory", "ch", "--expand",
    )
    assert code == 0
    assert "[3,2,1]: 21" in out


def test_exit_code_parse_errors(capsys):
    code, _, err = run_cli(capsys, "betapoly", "--w", "[2,a]")
    assert code == 2
    assert "error" in err
    code, _, _ = run_cli(capsys, "betapoly", "--w", "[2,1")
    assert code == 2
    code, _, _ = run_cli(capsys, "nonsense")
    assert code == 2
    code, _, _ = run_cli(capsys, "dlclass", "--w", "[2,1]")  # missing --q
    assert code == 2


def test_exit_code_semantic_errors(capsys):
    code, _, err = run_cli(capsys, "betapoly", "--w", "[2,2]")
    assert code == 3
    assert "error" in err
    code, _, _ = run_cli(capsys, "betapoly", "--w", "[2,1,3]", "--n", "2")
    assert code == 3
    code, _, _ = run_cli(capsys, "dlclass", "--w", "[2,1]", "--q", "1")
    assert code == 3
    code, _, _ = run_cli(
        capsys, "dlclass", "--w", "[2,1]", "--q", "6", "--strict"
    )
    assert code == 3


def test_dlclass_longest_is_fundamental(capsys):
    code, out, _ = run_cli(capsys, "dlclass", "--w", "[2,1]", "--q", "5")
    assert (code, out) == (0, "1\n")


def test_dlclass_identity_expanded(capsys):
    code, out, _ = run_cli(
        capsys,
        "dlclass", "--w", "[1,2]", "--q", "5", "--theory", "ch", "--expand",
    )
    assert code == 0
    assert out == "-6*x2\n[2,1]: 6\n"


def test_dlclass_kim_output(capsys):
    code, out, _ = run_cli(
        capsys,
        "dlclass", "--w", "[1,2]", "--q", "2", "--theory", "ch", "--kim",
    )
    assert code == 0
    assert out == "-3*x2\nkim: -3*x2\n"


def test_dlclass_kim_requires_ch(capsys):
    code, _, err = run_cli(
        capsys, "dlclass", "--w", "[1,2]", "--q", "2", "--kim"
    )
    assert code == 3
    assert "Chow" in err


def test_dlclass_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "dlclass", "--w", "[1,2]", "--q", "3", "--theory", "k0",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"element", "expansion", "metadata"}
    assert data["metadata"]["theory"] == "K0"
    assert data["metadata"]["q"] == 3
    assert data["expansion"]["n"] == 2


def test_dlclass_composite_q_warns_without_strict(capsys):
    with pytest.warns(Warning):
        code, out, _ = run_cli(capsys, "dlclass", "--w", "[2,1]", "--q", "6")
    assert code == 0
    assert out == "1\n"


def test_output_is_deterministic(capsys):
    args = ("dlclass", "--w", "[1,2,3]", "--q", "2", "--expand")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second
    assert first.strip()


def test_verify_stability(capsys):
    code, out, _ = run_cli(capsys, "verify", "stability")
    assert code == 0
    assert "PASS stability/S2-in-S3" in out
    assert out.strip().endswith("failures")


def test_verify_json(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "pointcount", "--n", "2", "--q", "2,3", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["failures"] == 0
    assert all(c["passed"] for c in data["checks"])


def test_verify_failure_exit_code(capsys, monkeypatch):
    def fake(names, n=4, qs=()):
        return [CheckResult("rigged", False, "boom")]

    monkeypatch.setattr(cli.verify, "run_suites", fake)
    code, out, _ = run_cli(capsys, "verify", "braid")
    assert code == 1
    assert "FAIL rigged: boom" in out
    assert "summary: 1 checks, 1 failures" in out


@pytest.mark.parametrize(
    "exc",
    [
        SingularTransitionError("transition block is not triangular"),
        RecursionError("maximum recursion depth exceeded"),
        MemoryError(),
    ],
)
def test_computation_failure_exit_code(capsys, monkeypatch, exc):
    def fake(element):
        raise exc

    monkeypatch.setattr(cli.dlclass, "schubert_expand", fake)
    code, out, err = run_cli(capsys, "dlclass", "--w", "[1,2]", "--q", "2")
    assert code == 4
    assert out == ""
    assert err.startswith("error: computation failed")
    assert type(exc).__name__ in err
    assert err.count("\n") == 1


def test_verify_bad_q_list(capsys):
    code, _, _ = run_cli(capsys, "verify", "braid", "--q", "2,x")
    assert code == 2


def test_cache_cold_then_warm(capsys, tmp_path):
    cache_dir = str(tmp_path / "cache")
    args = ("betapoly", "--w", "[3,1,2]", "--cache-dir", cache_dir)
    code, cold, _ = run_cli(capsys, *args)
    assert code == 0
    entry = tmp_path / "cache" / "double-beta_n3_w3-1-2.json"
    assert entry.exists()
    data = json.loads(entry.read_text())
    assert data["version"] == 1
    assert data["w"] == "[3,1,2]"
    assert "checksum" in data
    code, warm, _ = run_cli(capsys, *args)
    assert code == 0
    assert warm == cold


def test_cache_hit_matches_computation(tmp_path):
    store = PolynomialCache(tmp_path)
    w = (3, 1, 2)
    value = betapoly.double_beta_polynomial(w)
    store.put("double-beta", w, 3, value)
    assert store.get("double-beta", w, 3) == value
    assert store.get("double-beta", (2, 1, 3), 3) is None


def test_cache_poisoned_entry_recovers(capsys, tmp_path):
    cache_dir = str(tmp_path)
    args = ("betapoly", "--w", "[2,1]", "--cache-dir", cache_dir)
    _, clean, _ = run_cli(capsys, *args)
    entry = tmp_path / "double-beta_n2_w2-1.json"
    entry.write_text("{ not json")
    with pytest.warns(CacheWarning):
        code, out, _ = run_cli(capsys, *args)
    assert code == 0
    assert out == clean
    # the bad entry was replaced by a valid one
    assert json.loads(entry.read_text())["checksum"]


def test_cache_checksum_mismatch_recovers(capsys, tmp_path):
    cache_dir = str(tmp_path)
    args = ("betapoly", "--w", "[2,1]", "--cache-dir", cache_dir)
    _, clean, _ = run_cli(capsys, *args)
    entry = tmp_path / "double-beta_n2_w2-1.json"
    data = json.loads(entry.read_text())
    data["terms"][0]["coeff"] = "999"
    entry.write_text(json.dumps(data))
    with pytest.warns(CacheWarning):
        code, out, _ = run_cli(capsys, *args)
    assert code == 0
    assert out == clean


def test_cache_version_skew_recovers(capsys, tmp_path):
    cache_dir = str(tmp_path)
    args = ("betapoly", "--w", "[2,1]", "--cache-dir", cache_dir)
    _, clean, _ = run_cli(capsys, *args)
    entry = tmp_path / "double-beta_n2_w2-1.json"
    data = json.loads(entry.read_text())
    data["version"] = 999
    entry.write_text(json.dumps(data))
    with pytest.warns(CacheWarning):
        code, out, _ = run_cli(capsys, *args)
    assert code == 0
    assert out == clean


def test_cache_entry_of_another_permutation_recovers(capsys, tmp_path):
    # checksum-valid, right w field, but the terms of [3,1,2] (degree 2)
    # under the name of [2,1,3] (degree 1)
    _, clean, _ = run_cli(capsys, "betapoly", "--w", "[2,1,3]")
    run_cli(capsys, "betapoly", "--w", "[3,1,2]", "--cache-dir", str(tmp_path))
    data = json.loads((tmp_path / "double-beta_n3_w3-1-2.json").read_text())
    data["w"] = "[2,1,3]"
    entry = tmp_path / "double-beta_n3_w2-1-3.json"
    entry.write_text(json.dumps(data))
    with pytest.warns(CacheWarning, match="not homogeneous"):
        code, out, _ = run_cli(capsys, "betapoly", "--w", "[2,1,3]",
                               "--cache-dir", str(tmp_path))
    assert code == 0
    assert out == clean
    # the bad entry was replaced by the right one
    assert PolynomialCache(tmp_path).get("double-beta", (2, 1, 3), 3) == (
        betapoly.double_beta_polynomial((2, 1, 3))
    )


def test_cache_env_var(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path))
    code, _, _ = run_cli(capsys, "betapoly", "--w", "[2,1,3]")
    assert code == 0
    assert (tmp_path / "double-beta_n3_w2-1-3.json").exists()


def test_dlclass_prewarms_family_cache(capsys, tmp_path):
    code, _, _ = run_cli(
        capsys,
        "dlclass", "--w", "[1,2]", "--q", "2", "--cache-dir", str(tmp_path),
    )
    assert code == 0
    # the family member actually consumed is the one for w.w0
    assert (tmp_path / "double-beta_n2_w2-1.json").exists()


def test_cache_clear(capsys, tmp_path):
    run_cli(capsys, "betapoly", "--w", "[2,1]", "--cache-dir", str(tmp_path))
    code, out, _ = run_cli(capsys, "cache", "clear", "--cache-dir", str(tmp_path))
    assert code == 0
    assert out == "removed 1 cache entries\n"
    assert not list(tmp_path.glob("*.json"))
    code, out, _ = run_cli(capsys, "cache", "clear", "--cache-dir", str(tmp_path))
    assert (code, out) == (0, "removed 0 cache entries\n")


def test_cache_requires_directory(capsys, monkeypatch):
    monkeypatch.delenv(ENV_CACHE_DIR, raising=False)
    code, _, err = run_cli(capsys, "cache", "clear")
    assert code == 3
    assert ENV_CACHE_DIR in err


def test_entry_point_exits(monkeypatch):
    monkeypatch.setattr("sys.argv", ["dlschubert", "betapoly", "--w", "[1,2]"])
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == 0
