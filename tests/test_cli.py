import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dlschubert
from dlschubert import betapoly, cli, dlclass, flagring, perm
from dlschubert.cache import ENV_CACHE_DIR, CacheWarning, PolynomialCache
from dlschubert.flagring import SingularTransitionError
from dlschubert.verify import CheckResult


def run_cli(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_fresh(capsys, *args):
    """run_cli in a process that holds no family member yet, as a new
    process does: a member the process holds never touches the disk
    cache, so a call that must read or write an entry starts here."""
    betapoly.clear_cache()
    return run_cli(capsys, *args)


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


def test_dlclass_kim_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "dlclass", "--w", "[2,1,3]", "--q", "3", "--theory", "ch", "--kim",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    element = dlclass.dl_class_ch((2, 1, 3), 3, 3).element
    assert set(data) == {"element", "expansion", "kim", "metadata"}
    assert data["kim"] == dlclass.kim_transform(element).to_json() != data["element"]


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

    monkeypatch.setattr("dlschubert.verify.run_suites", fake)
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
    def fake(n, slots, beta, d=None):
        raise exc

    monkeypatch.setattr(cli.dlclass, "schubert_expand_slots", fake)
    code, out, err = run_cli(capsys, "dlclass", "--w", "[1,2]", "--q", "2")
    assert code == 4
    assert out == ""
    assert err.startswith("error: computation failed")
    assert type(exc).__name__ in err
    assert err.count("\n") == 1


def test_verify_bad_q_list(capsys):
    code, _, _ = run_cli(capsys, "verify", "braid", "--q", "2,x")
    assert code == 2


def test_verify_empty_q_list(capsys):
    # str.split(",") never returns an empty list: both fail at int("")
    for text in ("", ","):
        code, _, err = run_cli(capsys, "verify", "stability", "--q", text)
        assert code == 2 and "cannot parse q list" in err, (text, err)


def test_cache_cold_then_warm(capsys, tmp_path):
    cache_dir = str(tmp_path / "cache")
    args = ("betapoly", "--w", "[3,1,2]", "--cache-dir", cache_dir)
    code, cold, _ = run_cli_fresh(capsys, *args)
    assert code == 0
    entry = tmp_path / "cache" / "double-beta_n3_w3-1-2.json"
    assert entry.exists()
    data = json.loads(entry.read_text())
    assert data["version"] == 2
    assert data["w"] == "[3,1,2]"
    assert "checksum" in data
    code, warm, _ = run_cli_fresh(capsys, *args)
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
    _, clean, _ = run_cli_fresh(capsys, *args)
    entry = tmp_path / "double-beta_n2_w2-1.json"
    entry.write_text("{ not json")
    with pytest.warns(CacheWarning):
        code, out, _ = run_cli_fresh(capsys, *args)
    assert code == 0
    assert out == clean
    # the bad entry was replaced by a valid one
    assert json.loads(entry.read_text())["checksum"]


def test_cache_checksum_mismatch_recovers(capsys, tmp_path):
    cache_dir = str(tmp_path)
    args = ("betapoly", "--w", "[2,1]", "--cache-dir", cache_dir)
    _, clean, _ = run_cli_fresh(capsys, *args)
    entry = tmp_path / "double-beta_n2_w2-1.json"
    data = json.loads(entry.read_text())
    data["terms"] = data["terms"].replace("1]", "9]", 1)
    entry.write_text(json.dumps(data))
    with pytest.warns(CacheWarning):
        code, out, _ = run_cli_fresh(capsys, *args)
    assert code == 0
    assert out == clean


def test_cache_version_skew_recovers(capsys, tmp_path):
    cache_dir = str(tmp_path)
    args = ("betapoly", "--w", "[2,1]", "--cache-dir", cache_dir)
    _, clean, _ = run_cli_fresh(capsys, *args)
    entry = tmp_path / "double-beta_n2_w2-1.json"
    data = json.loads(entry.read_text())
    data["version"] = 999
    entry.write_text(json.dumps(data))
    with pytest.warns(CacheWarning):
        code, out, _ = run_cli_fresh(capsys, *args)
    assert code == 0
    assert out == clean


def test_cache_entry_of_another_permutation_recovers(capsys, tmp_path):
    # checksum-valid, right w field, but the terms of [3,1,2] (degree 2)
    # under the name of [2,1,3] (degree 1)
    _, clean, _ = run_cli(capsys, "betapoly", "--w", "[2,1,3]")
    run_cli_fresh(capsys, "betapoly", "--w", "[3,1,2]", "--cache-dir", str(tmp_path))
    data = json.loads((tmp_path / "double-beta_n3_w3-1-2.json").read_text())
    data["w"] = "[2,1,3]"
    entry = tmp_path / "double-beta_n3_w2-1-3.json"
    entry.write_text(json.dumps(data))
    with pytest.warns(CacheWarning, match="not homogeneous"):
        code, out, _ = run_cli_fresh(capsys, "betapoly", "--w", "[2,1,3]",
                               "--cache-dir", str(tmp_path))
    assert code == 0
    assert out == clean
    # the bad entry was replaced by the right one
    assert PolynomialCache(tmp_path).get("double-beta", (2, 1, 3), 3) == (
        betapoly.double_beta_polynomial((2, 1, 3))
    )


# a format-1 entry for [2,1], as format 1 stored it
FORMAT_1_ENTRY = (
    '{"checksum":"92f2ba61456aba0c8aa12088cf30845b1ad2b68a3d3df0d2469abbff3c19e58e",'
    '"family":"double-beta","n":2,"terms":[{"beta":0,"coeff":"1","x":[1],"y":[]},'
    '{"beta":0,"coeff":"1","x":[],"y":[1]},{"beta":1,"coeff":"1","x":[1],"y":[1]}],'
    '"version":1,"w":"[2,1]"}'
)


def test_cache_format_1_entry_is_rewritten(capsys, tmp_path):
    _, clean, _ = run_cli(capsys, "betapoly", "--w", "[2,1]")
    entry = tmp_path / "double-beta_n2_w2-1.json"
    entry.write_text(FORMAT_1_ENTRY)
    with pytest.warns(CacheWarning, match="stale or corrupt"):
        code, out, _ = run_cli_fresh(capsys, "betapoly", "--w", "[2,1]",
                                     "--cache-dir", str(tmp_path))
    assert code == 0
    assert out == clean
    data = json.loads(entry.read_text())
    assert data["version"] == 2
    assert isinstance(data["terms"], str)
    assert PolynomialCache(tmp_path).get("double-beta", (2, 1), 2) == (
        betapoly.double_beta_polynomial((2, 1))
    )


def test_cache_undecodable_entry_recovers(capsys, tmp_path):
    _, clean, _ = run_cli(capsys, "betapoly", "--w", "[2,1]")
    (tmp_path / "double-beta_n2_w2-1.json").write_bytes(b"\xff\xfe\x00garbage")
    with pytest.warns(CacheWarning, match="unreadable"):
        code, out, _ = run_cli_fresh(capsys, "betapoly", "--w", "[2,1]",
                                     "--cache-dir", str(tmp_path))
    assert code == 0
    assert out == clean


def test_cache_checksum_covers_every_terms_character(tmp_path):
    w = (3, 1, 2)
    store = PolynomialCache(tmp_path)
    store.put("double-beta", w, 3, betapoly.double_beta_polynomial(w))
    entry = store._path("double-beta", w, 3)
    data = json.loads(entry.read_text())
    terms = data["terms"]
    for i, ch in enumerate(terms):
        data["terms"] = terms[:i] + ("1" if ch == "0" else "0") + terms[i + 1:]
        entry.write_text(json.dumps(data))
        with pytest.warns(CacheWarning, match="stale or corrupt"):
            assert store.get("double-beta", w, 3) is None


@pytest.mark.parametrize("terms", [
    "[[0,[1],[],1.0]]",         # float coefficient
    '[[0,[1],[],"1"]]',         # string coefficient
    "[[true,[1],[],1]]",        # boolean beta exponent
    "[[0,[true],[],1]]",        # boolean x exponent
    "[[0,[1],[0.5],1]]",        # float y exponent
    "[[0,[1],[]]]",             # short row
    "[[0,[1],[],1,1]]",         # long row
    "[[[0],[1],[],1]]",         # list beta exponent
    "[[0,1,[],1]]",             # int in place of an exponent list
    "[[0,[[1]],[],1]]",         # nested exponent list
    "[1]",                      # not a list of rows
    "[[0,[1],[],1]",            # truncated
    "\ud800",                   # lone surrogate
])
def test_cache_malformed_rows_recover(capsys, tmp_path, terms):
    _, clean, _ = run_cli(capsys, "betapoly", "--w", "[2,1]")
    data = json.loads(FORMAT_1_ENTRY)
    data.update(
        version=2, terms=terms,
        checksum=hashlib.sha256(terms.encode("utf-8", "surrogatepass")).hexdigest(),
    )
    entry = tmp_path / "double-beta_n2_w2-1.json"
    entry.write_text(json.dumps(data))
    with pytest.warns(CacheWarning, match="malformed"):
        code, out, _ = run_cli_fresh(capsys, "betapoly", "--w", "[2,1]",
                                     "--cache-dir", str(tmp_path))
    assert code == 0
    assert out == clean
    assert json.loads(entry.read_text())["terms"] == "[[0,[1],[],1],[0,[],[1],1],[1,[1],[1],1]]"


def test_cache_rows_strip_trailing_zero_exponents(tmp_path):
    terms = "[[0,[1,0],[0],1],[0,[],[1,0,0],1],[1,[1],[1],1]]"
    data = json.loads(FORMAT_1_ENTRY)
    data.update(version=2, terms=terms,
                checksum=hashlib.sha256(terms.encode("utf-8")).hexdigest())
    (tmp_path / "double-beta_n2_w2-1.json").write_text(json.dumps(data))
    hit = PolynomialCache(tmp_path).get("double-beta", (2, 1), 2)
    assert hit.terms() == betapoly.double_beta_polynomial((2, 1)).terms()


# the permutations the cli-cache-s5 benchmark workload requests
CACHE_S5_POOL = [
    (2, 1, 5, 3, 4), (2, 5, 3, 1, 4), (3, 1, 5, 4, 2), (4, 5, 2, 1, 3),
    (4, 5, 1, 3, 2), (5, 3, 4, 1, 2), (5, 4, 1, 3, 2), (1, 2, 3, 4, 5),
]


def test_cache_round_trip_keeps_terms_and_order(tmp_path):
    store = PolynomialCache(tmp_path)
    members = [(w, len(w)) for n in (2, 3, 4) for w in perm.all_permutations(n)]
    members += [(w, 5) for w in CACHE_S5_POOL]
    for w, n in members:
        value = betapoly.double_beta_polynomial(w, n)
        store.put("double-beta", w, n, value)
        hit = store.get("double-beta", w, n)
        assert hit == value
        assert list(hit.terms().items()) == list(value.terms().items())


@pytest.mark.parametrize("fmt", ["plain", "latex", "json"])
def test_cache_hit_prints_like_a_miss(capsys, tmp_path, fmt):
    runs = [(w, extra) for w in ("[1,2,3,4]", "[2,1,4,3]", "[4,1,3,2]", "[4,3,2,1]")
            for extra in ((), ("--single",), ("--beta", "-1"))]
    for i, (w, extra) in enumerate(runs):
        args = ("betapoly", "--w", w, "--format", fmt, *extra)
        _, clean, _ = run_cli(capsys, *args)
        cache_dir = str(tmp_path / str(i))
        _, miss, _ = run_cli_fresh(capsys, *args, "--cache-dir", cache_dir)
        _, hit, _ = run_cli_fresh(capsys, *args, "--cache-dir", cache_dir)
        assert clean == miss == hit


def _python(*args):
    """Run python with args in a fresh process that imports this dlschubert."""
    env = dict(os.environ, PYTHONPATH=str(Path(dlschubert.__file__).parents[1]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def _cli_process(*args):
    return _python("-m", "dlschubert.cli", *args)


@pytest.mark.parametrize("args", [
    ("-m", "dlschubert.cli", "betapoly", "--n", "5", "--w", "[5,4,3,2,1]"),
    (str(Path(__file__).parents[1] / "scripts" / "dl_tables.py"),
     "--n", "5", "--q", "2", "--theory", "CK"),
])
def test_a_closed_pipe_ends_quietly(args):
    # each prints about 200 KB, more than a pipe holds, so a reader that
    # closes its end after 100 bytes does so while the writer still writes
    env = dict(os.environ, PYTHONPATH=str(Path(dlschubert.__file__).parents[1]))
    proc = subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env)
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (cli.BROKEN_PIPE, b"")


def test_cli_does_not_import_verify():
    code = "import sys, dlschubert.cli; sys.exit('dlschubert.verify' in sys.modules)"
    assert _python("-c", code).returncode == 0


def test_warning_is_one_stderr_line():
    done = _cli_process("dlclass", "--w", "[1,2]", "--q", "6")
    assert done.returncode == 0
    assert done.stdout == "-7*x2\n"
    assert done.stderr == "warning: q=6 is not a prime power; no Frobenius realizes it\n"


def test_cache_discard_is_one_stderr_line(tmp_path):
    (tmp_path / "double-beta_n2_w2-1.json").write_text(FORMAT_1_ENTRY)
    done = _cli_process("betapoly", "--w", "[2,1]", "--cache-dir", str(tmp_path))
    assert done.returncode == 0
    assert done.stdout == "x1 + y1 + beta*x1*y1\n"
    assert done.stderr == (
        "warning: discarding stale or corrupt cache entry double-beta_n2_w2-1.json\n"
    )


def test_cache_env_var(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path))
    code, _, _ = run_cli_fresh(capsys, "betapoly", "--w", "[2,1,3]")
    assert code == 0
    assert (tmp_path / "double-beta_n3_w2-1-3.json").exists()


def test_dlclass_prewarms_family_cache(capsys, tmp_path):
    code, _, _ = run_cli_fresh(
        capsys,
        "dlclass", "--w", "[2,1,3]", "--q", "2", "--cache-dir", str(tmp_path),
    )
    assert code == 0
    # the family member actually consumed is the one for w.w0
    assert [p.name for p in tmp_path.iterdir()] == ["double-beta_n3_w3-1-2.json"]


@pytest.mark.parametrize("args", [
    ("--w", "[2,1,3]", "--theory", "ch"),
    ("--w", "[1,2,3]", "--theory", "ck"),
])
def test_dlclass_caches_no_member_it_does_not_read(capsys, tmp_path, args):
    # a Chow class and the identity read only the beta^0 chain, so the
    # cache neither stores nor primes a full member for them
    flagring.clear_caches()
    code, _, _ = run_cli(capsys, "dlclass", *args, "--q", "2", "--cache-dir", str(tmp_path))
    assert code == 0
    assert not list(tmp_path.iterdir())
    assert not betapoly._FAMILY


def test_betapoly_request_builds_no_top_product(capsys):
    # the identity's member comes from the Cauchy identity (G_e(x) G_e(y)),
    # not from the chain down from the top product
    flagring.clear_caches()
    code, out, _ = run_cli(capsys, "betapoly", "--n", "4", "--w", "[1,2,3,4]")
    assert (code, out) == (0, "1\n")
    assert (4, perm.longest_element(4)) not in betapoly._FAMILY
    assert betapoly._FAMILY == {(4, (1, 2, 3, 4)): betapoly.BetaPolynomial.one()}


def test_held_member_skips_the_disk(capsys, tmp_path, monkeypatch):
    # a second request for the same member in one process reads no entry
    gets = []
    get = PolynomialCache.get
    monkeypatch.setattr(PolynomialCache, "get", lambda *a: gets.append(a[2:]) or get(*a))
    args = ("betapoly", "--w", "[3,1,4,2]", "--cache-dir", str(tmp_path))
    first = run_cli_fresh(capsys, *args)
    assert gets == [((3, 1, 4, 2), 4)]
    assert run_cli(capsys, *args) == first
    assert gets == [((3, 1, 4, 2), 4)]


@pytest.mark.parametrize("extra", [
    ("--q", "1"),
    ("--q", "6", "--strict"),
    ("--q", "2", "--kim", "--theory", "ck"),
    ("--q", "2", "--kim", "--theory", "k0"),
])
def test_dlclass_refuses_before_computing(capsys, tmp_path, extra):
    # an inadmissible query computes no family member and caches nothing
    betapoly.clear_cache()
    code, out, err = run_cli(
        capsys, "dlclass", "--w", "[2,1,3,4]", *extra, "--cache-dir", str(tmp_path),
    )
    assert (code, out) == (3, "")
    assert err.startswith("error: ")
    assert not list(tmp_path.iterdir())
    assert not betapoly._FAMILY


# all of S_3, the identity of S_4 and two classes with larger members
CACHE_BYTES_WS = sorted(perm.all_permutations(3)) + [
    (1, 2, 3, 4), (2, 1, 3, 4), (4, 1, 3, 2),
]


def test_dlclass_cache_changes_no_byte(capsys, tmp_path):
    # no cache, a cold cache and a warm one print the same bytes; the
    # cold and warm calls start from an empty family, so they write and
    # read the entry
    for i, w in enumerate(CACHE_BYTES_WS):
        for q in ("2", "3"):
            for theory in ("ck", "ch", "k0"):
                args = ("dlclass", "--w", perm.format_permutation(w), "--q", q,
                        "--theory", theory, "--expand", "--format", "json")
                cache_dir = str(tmp_path / f"{i}-{q}-{theory}")
                plain = run_cli(capsys, *args)
                cold = run_cli_fresh(capsys, *args, "--cache-dir", cache_dir)
                warm = run_cli_fresh(capsys, *args, "--cache-dir", cache_dir)
                assert plain[0] == 0
                assert cold == plain and warm == plain, (w, q, theory)


def test_cache_clear(capsys, tmp_path):
    run_cli_fresh(capsys, "betapoly", "--w", "[2,1]", "--cache-dir", str(tmp_path))
    code, out, _ = run_cli(capsys, "cache", "clear", "--cache-dir", str(tmp_path))
    assert code == 0
    assert out == "removed 1 cache entries\n"
    assert not list(tmp_path.glob("*.json"))
    code, out, _ = run_cli(capsys, "cache", "clear", "--cache-dir", str(tmp_path))
    assert (code, out) == (0, "removed 0 cache entries\n")


def test_cache_clear_of_a_missing_directory(capsys, tmp_path):
    missing = tmp_path / "absent"
    code, out, _ = run_cli(capsys, "cache", "clear", "--cache-dir", str(missing))
    assert (code, out) == (0, "removed 0 cache entries\n")
    assert not missing.exists()


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
