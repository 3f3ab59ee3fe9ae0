"""Self-contained verification suites behind the CLI `verify` command.

Each suite returns a list of CheckResult; a check compares the engine
against an independent route (pipe dream enumeration, closed-form
counting, iterated group-law sums, alternative reduced words).

The Schubert coefficients of every CH class are non-negative, and that
is a theorem, not an observation: by the Chow closed form (the Cauchy
identity at beta = 0, where F_q(S_u) = q^l(u) S_u)

    CH(w) = sum over v.u = w.w0, l(u) + l(v) = l(w.w0), of q^l(u) S_u S_(w0 v^-1 w0),

a sum of products of two Schubert classes with positive weights, and
Schubert structure constants are >= 0.  So a negative coefficient
would be an engine fault.  pointcount_suite still probes for one, and
reports it as a warning that never fails a check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import betapoly, dlclass, fgl, perm
from .flagring import FlagRingElement, staircase_monomials
from .poly import BetaPolynomial

DEFAULT_QS = (2, 3, 5)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""
    warnings: list[str] = field(default_factory=list)


def braid_suite(n: int = 4) -> list[CheckResult]:
    """Every reduced word of w0.w must drive the top polynomial down to
    the same beta-polynomial for w."""
    out = []
    w0 = perm.longest_element(n)
    for w in perm.all_permutations(n):
        expected = betapoly.double_beta_polynomial(w, n)
        ok = True
        detail = ""
        for word in sorted(perm.all_reduced_words(perm.compose(w0, w))):
            acc = betapoly.double_beta_polynomial(w0, n)
            for i in word:
                acc = betapoly.divided_difference(i, acc)
            if acc != expected:
                ok = False
                detail = f"word {word} disagrees"
                break
        out.append(CheckResult(f"braid/n{n}/w={perm.format_permutation(w)}", ok, detail))
    return out


def specialize_suite(n: int = 4) -> list[CheckResult]:
    """beta = 0, y = 0 must reproduce the pipe-dream enumeration, and
    every beta-polynomial must be graded homogeneous of degree
    length(w) with lowest x,y-degree equal to length(w)."""
    out = []
    for w in perm.all_permutations(n):
        h = betapoly.double_beta_polynomial(w, n)
        single = h.specialize_beta(0).negate_y().set_y_zero()
        oracle = betapoly.pipe_dream_oracle(w)
        out.append(
            CheckResult(
                f"specialize/n{n}/w={perm.format_permutation(w)}",
                single == oracle,
                "" if single == oracle else "pipe dream oracle disagrees",
            )
        )
        lw = perm.length(w)
        graded_ok = h.graded_degree() == lw and h.min_xy_degree() == lw
        out.append(
            CheckResult(
                f"grading/n{n}/w={perm.format_permutation(w)}",
                graded_ok,
                "" if graded_ok else f"graded degree {h.graded_degree()}, "
                f"lowest {h.min_xy_degree()}, expected {lw}",
            )
        )
    return out


def fgl_suite(n: int = 4, rng_seed: int = 20240811) -> list[CheckResult]:
    out = []
    rng = random.Random(rng_seed)
    for m in range(2, n + 1):
        gens = [FlagRingElement.x_gen(m, i) for i in range(1, m + 1)]
        mons = [
            mon for mon in staircase_monomials(m) if sum(mon) > 0
        ]
        elements = list(gens)
        for mon in mons:
            elements.append(FlagRingElement(m, {(mon, 0): 1}))
        for _ in range(20):
            terms = {}
            for mon in mons:
                if rng.random() < 0.5:
                    terms[(mon, rng.randrange(0, 3))] = rng.randint(-5, 5)
            elements.append(FlagRingElement(m, terms))
        bad = None
        for a in elements:
            if not fgl.fgl_add(fgl.fgl_inverse(a), a).is_zero:
                bad = a
                break
        out.append(
            CheckResult(
                f"fgl/inverse-identity/n{m}",
                bad is None,
                "" if bad is None else f"failed on {bad!r}",
            )
        )
    x = BetaPolynomial.x(1)
    ok = True
    detail = ""
    for m in range(1, 9):
        iterated = BetaPolynomial.zero()
        for _ in range(m):
            iterated = fgl.fgl_add(iterated, x)
        if fgl.n_times(m, x) != iterated:
            ok, detail = False, f"m={m} closed form disagrees with iteration"
            break
    out.append(CheckResult("fgl/multiplication-closed-form", ok, detail))
    return out


def coefficient_survey(n: int, q: int) -> dict:
    """The Schubert expansions of the Chow classes of all X(w), w in
    S_n, at q: the number of classes, their average support, every
    negative coefficient as (w, v, c), and the largest |c| as
    (|c|, w, v).

    By the Chow closed form (module docstring) every coefficient is
    >= 0, so "negatives" is a check of the engine: it is empty unless
    the engine is wrong."""
    negatives = []
    biggest = (0, None, None)
    support = 0
    classes = 0
    for w in perm.all_permutations(n):
        coeffs = dlclass.dl_class_ch(w, n, q).expansion.coefficients
        classes += 1
        support += len(coeffs)
        for v, scalar in coeffs.items():
            c = scalar.get(0, 0)
            if c < 0:
                negatives.append((w, v, c))
            if abs(c) > biggest[0]:
                biggest = (abs(c), w, v)
    return {
        "classes": classes,
        "avg_support": support / classes,
        "negatives": negatives,
        "biggest": biggest,
    }


def pointcount_suite(ns=(2, 3), qs=DEFAULT_QS) -> list[CheckResult]:
    """Chow class of the identity must be the number of rational flags,
    the q-factorial, times the point, with no other term."""
    out = []
    for n in ns:
        for q in qs:
            res = dlclass.dl_class_ch(perm.identity(n), n, q)
            got = dict(res.expansion.coefficients)
            got_val = got.pop(perm.longest_element(n), {}).get(0, 0)
            want = dlclass.flag_count_oracle(n, q)
            if got:
                v = min(got)
                detail = f"stray term {got[v].get(0, 0)} at {perm.format_permutation(v)}"
            else:
                detail = "" if got_val == want else f"expected {want}, got {got_val}"
            # CH coefficients are >= 0 by the Chow closed form (module
            # docstring), so a negative one is an engine fault; the probe
            # logs it as a warning and the check stays the point count
            warn = [
                f"negative coefficient at {perm.format_permutation(v)} "
                f"in the class of {perm.format_permutation(w)}"
                for w, v, _ in coefficient_survey(n, q)["negatives"]
            ]
            out.append(CheckResult(f"pointcount/n{n}/q{q}", not detail, detail, warnings=warn))
    return out


def stability_suite() -> list[CheckResult]:
    """Embedding w with fixed points must not change its polynomial."""
    out = []
    for small, big in ((2, 3), (3, 4)):
        ok = True
        detail = ""
        for w in perm.all_permutations(small):
            a = betapoly.double_beta_polynomial(w, small)
            b = betapoly.double_beta_polynomial(perm.embed(w, big), big)
            if a != b:
                ok, detail = False, f"w={perm.format_permutation(w)}"
                break
        out.append(CheckResult(f"stability/S{small}-in-S{big}", ok, detail))
    return out


SUITES = {
    "braid": lambda n, qs: braid_suite(min(n, 4)),
    "specialize": lambda n, qs: specialize_suite(min(n, 4)),
    "fgl": lambda n, qs: fgl_suite(min(n, 4)),
    "pointcount": lambda n, qs: pointcount_suite(range(2, min(n, 3) + 1), qs),
    "stability": lambda n, qs: stability_suite(),
}


def run_suites(names, n: int = 4, qs=DEFAULT_QS) -> list[CheckResult]:
    if "all" in names:
        names = list(SUITES)
    results = []
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; pick from {sorted(SUITES)} or 'all'")
        results.extend(SUITES[name](n, tuple(qs)))
    return results
