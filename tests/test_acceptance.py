"""Acceptance gate: one test per shipping criterion, each printing a
single ACCEPTANCE line.  Criteria with a runtime target assert it.

All checks are exact (integer/polynomial equality); random inputs are
drawn from seeded generators so reruns are identical.
"""

import contextlib
import json
import math
import random
import subprocess
import sys
import time

from dlschubert import cli, perm, poly, verify
from dlschubert.dlclass import (
    chow_class_direct,
    dl_class_ch,
    dl_class_ck,
    dl_class_k0,
    flag_count_oracle,
    k0_class_direct,
    kim_convention,
    kim_transform,
)
from dlschubert.fgl import fgl_add, fgl_inverse, n_times
from dlschubert.flagring import (
    FlagRingElement,
    SchubertExpansion,
    _leads,
    point_coefficient,
    schubert_expand,
    staircase_monomials,
)
from dlschubert.poly import BetaPolynomial

B = BetaPolynomial
F = FlagRingElement


@contextlib.contextmanager
def criterion(num: int, name: str, budget: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None and elapsed >= budget:
        print(f"ACCEPTANCE {num:02d} {name}: FAIL")
        raise AssertionError(f"{name} took {elapsed:.1f}s, budget {budget}s")
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


def _random_nilpotent(n, rng):
    terms = {}
    for mon in staircase_monomials(n):
        if sum(mon) == 0:
            continue
        if rng.random() < 0.5:
            terms[(mon, rng.randrange(0, 3))] = rng.randint(-5, 5)
    return F(n, terms)


def test_01_fgl_inverse_identity():
    with criterion(1, "fgl-inverse-identity", budget=10.0):
        rng = random.Random(101)
        for n in (2, 3, 4):
            for i in range(1, n + 1):
                a = F.x_gen(n, i)
                assert fgl_add(fgl_inverse(a), a).is_zero
            for _ in range(100):
                a = _random_nilpotent(n, rng)
                assert fgl_add(fgl_inverse(a), a).is_zero


def test_02_formal_multiple_closed_form():
    with criterion(2, "formal-multiple-closed-form"):
        x = B.x(1)
        assert n_times(2, x) == 2 * x - B.beta() * x**2
        iterated = B.zero()
        for m in range(1, 9):
            iterated = fgl_add(iterated, x)
            assert n_times(m, x) == iterated
            assert n_times(m, x) == fgl_add(x, n_times(m - 1, x))
        a = F.x_gen(5, 1)
        truncated = F.zero(5)
        for m in range(1, 9):
            truncated = fgl_add(truncated, a)
            assert n_times(m, a) == truncated


def test_03_braid_independence():
    with criterion(3, "braid-independence", budget=60.0):
        results = verify.braid_suite(4)
        assert len(results) == math.factorial(4)
        assert all(r.passed for r in results), [r for r in results if not r.passed]


def test_04_specialization_identities():
    with criterion(4, "specialization-identities"):
        results = verify.specialize_suite(4)
        assert len(results) == 2 * math.factorial(4)
        assert all(r.passed for r in results), [r for r in results if not r.passed]


def test_05_stability():
    with criterion(5, "stability"):
        results = verify.stability_suite()
        assert len(results) == 2
        assert all(r.passed for r in results), [r for r in results if not r.passed]


def test_06_schubert_basis_roundtrip():
    with criterion(6, "schubert-basis-roundtrip"):
        # _leads rejects a lead that is not a unit or is shared, so merely
        # listing n! leads certifies invertibility over ZZ[beta]
        for n in (2, 3, 4):
            assert len(_leads(n)) == math.factorial(n)
        rng = random.Random(606)
        for n, rounds in ((2, 20), (3, 20), (4, 10)):
            perms = list(perm.all_permutations(n))
            for _ in range(rounds):
                coeffs = {}
                for w in perms:
                    scalar = {
                        be: rng.randint(-4, 4)
                        for be in range(3)
                        if rng.random() < 0.4
                    }
                    scalar = {be: c for be, c in scalar.items() if c}
                    if scalar:
                        coeffs[w] = scalar
                exp = SchubertExpansion(n, coeffs)
                assert schubert_expand(exp.reconstruct()).coefficients == coeffs


def test_07_longest_element_class_is_one():
    with criterion(7, "longest-element-class-is-one"):
        for n in (2, 3, 4):
            w0 = perm.longest_element(n)
            for q in (2, 3):
                res = dl_class_ck(w0, n, q)
                assert res.element == F.one(n), (n, q)
                assert res.expansion.coefficients == {perm.identity(n): {0: 1}}


def test_08_rational_point_counts():
    with criterion(8, "rational-point-counts", budget=30.0):
        frozen = {
            (2, 2): 3,
            (2, 3): 4,
            (2, 5): 6,
            (3, 2): 21,
            (3, 3): 52,
            (3, 5): 186,
        }
        for (n, q), count in frozen.items():
            assert flag_count_oracle(n, q) == count
            res = dl_class_ch(perm.identity(n), n, q)
            assert point_coefficient(res.element) == {0: count}, (n, q)


def test_09_theory_specialization_coherence():
    with criterion(9, "theory-specialization-coherence"):
        q = 2
        for w in perm.all_permutations(3):
            ck = dl_class_ck(w, 3, q)
            ch = dl_class_ch(w, 3, q)
            k0 = dl_class_k0(w, 3, q)
            assert ch.element == ck.element.specialize_beta(0), w
            assert k0.element == ck.element.specialize_beta(1), w
            # independent routes through the classical polynomials
            assert ch.element == chow_class_direct(w, 3, q), w
            assert k0.element == k0_class_direct(w, 3, q), w


def test_10_variable_reversal_convention():
    with criterion(10, "variable-reversal-convention"):
        rng = random.Random(1010)
        for n in (2, 3):
            for _ in range(25):
                a = _random_nilpotent(n, rng) + F.from_int(n, rng.randint(-3, 3))
                assert kim_transform(kim_transform(a)) == a
        ch = dl_class_ch((1, 2), 2, 2)
        assert kim_convention(ch) == ch.element


def test_11_cli_contract():
    with criterion(11, "cli-contract"):
        rng = random.Random(1111)
        for _ in range(100):
            terms = {}
            for _ in range(rng.randrange(0, 7)):
                xe = tuple(rng.randint(0, 3) for _ in range(rng.randint(0, 3)))
                ye = tuple(rng.randint(0, 3) for _ in range(rng.randint(0, 2)))
                key = (xe, ye, rng.randint(0, 2))
                terms[key] = rng.randint(-(10**12), 10**12)
            p = sum(
                (B.term(c, x=xe, y=ye, beta=be) for (xe, ye, be), c in terms.items()),
                B.zero(),
            )
            blob = json.dumps(poly.to_json_terms(p))
            assert poly.from_json_terms(json.loads(blob)) == p

        cmd = [
            sys.executable, "-m", "dlschubert.cli",
            "dlclass", "--w", "[1,2,3]", "--q", "2", "--expand",
            "--format", "json",
        ]
        first = subprocess.run(cmd, capture_output=True)
        second = subprocess.run(cmd, capture_output=True)
        assert first.returncode == second.returncode == 0
        assert first.stdout and first.stdout == second.stdout

        def code_of(*args):
            return subprocess.run(
                [sys.executable, "-m", "dlschubert.cli", *args],
                capture_output=True,
            ).returncode

        assert code_of("betapoly", "--w", "[2,1]") == 0
        assert code_of("betapoly", "--w", "[2,a]") == 2
        assert code_of("betapoly", "--w", "[2,2]") == 3
        assert code_of("dlclass", "--w", "[2,1]", "--q", "6", "--strict") == 3
        # exit 1 is reserved for verification failures
        original = verify.run_suites
        try:
            verify.run_suites = lambda names, n=4, qs=(): [
                verify.CheckResult("rigged", False, "forced failure")
            ]
            assert cli.main(["verify", "braid"]) == 1
        finally:
            verify.run_suites = original
        assert cli.main(["verify", "stability"]) == 0
