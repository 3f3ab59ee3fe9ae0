import concurrent.futures
import random

import hypothesis as h
import hypothesis.strategies as st
import pytest

from dlschubert import betapoly, perm
from dlschubert.betapoly import (
    beta0_polynomial,
    clear_cache,
    divided_difference,
    double_beta_polynomial,
    double_grothendieck,
    double_schubert,
    k_pipe_dream_oracle,
    pipe_dream_oracle,
    prime_cache,
    reduced_pipe_dreams,
    top_beta_polynomial,
)
from dlschubert.poly import BetaPolynomial

B = BetaPolynomial


def small_polys():
    mono = st.tuples(
        st.lists(st.integers(0, 2), max_size=3).map(tuple),
        st.lists(st.integers(0, 2), max_size=2).map(tuple),
        st.integers(0, 1),
    )
    return st.dictionaries(mono, st.integers(-4, 4), max_size=4).map(
        lambda d: sum(
            (B.term(c, x=xe, y=ye, beta=be) for (xe, ye, be), c in d.items()),
            B.zero(),
        )
    )


def test_top_polynomial_frozen():
    lin = B.x(1) + B.y(1) + B.beta() * B.x(1) * B.y(1)
    assert top_beta_polynomial(2) == lin

    def f(i, j):
        return B.x(i) + B.y(j) + B.beta() * B.x(i) * B.y(j)

    assert top_beta_polynomial(3) == f(1, 1) * f(1, 2) * f(2, 1)
    assert top_beta_polynomial(4) == (
        f(1, 1) * f(1, 2) * f(1, 3) * f(2, 1) * f(2, 2) * f(3, 1)
    )
    assert top_beta_polynomial(1) == B.one()


def test_divided_difference_frozen():
    assert divided_difference(1, B.x(1)) == B.one()
    assert divided_difference(1, B.x(1) ** 2) == (
        B.x(1) + B.x(2) + B.beta() * B.x(1) * B.x(2)
    )
    # on constants the operator multiplies by -beta
    assert divided_difference(1, B.const(5)) == -5 * B.beta()
    assert divided_difference(2, B.x(1)) == -B.beta() * B.x(1)


@h.given(small_polys(), st.integers(1, 3))
def test_divided_difference_quadratic_relation(p, i):
    once = divided_difference(i, p)
    assert divided_difference(i, once) == -B.beta() * once


@h.given(small_polys())
def test_divided_difference_braid_relation(p):
    lhs = divided_difference(1, divided_difference(2, divided_difference(1, p)))
    rhs = divided_difference(2, divided_difference(1, divided_difference(2, p)))
    assert lhs == rhs


@h.given(small_polys(), st.integers(1, 3))
def test_divided_difference_commuting_relation(p, i):
    j = i + 2
    lhs = divided_difference(i, divided_difference(j, p))
    assert lhs == divided_difference(j, divided_difference(i, p))


def test_family_frozen_small():
    assert double_beta_polynomial((1, 2)) == B.one()
    assert double_beta_polynomial((2, 1)) == top_beta_polynomial(2)
    assert double_beta_polynomial((1, 2, 3)) == B.one()
    # S_3, w = s_1: phi_2 then phi_1 applied to the top polynomial
    s1 = double_beta_polynomial((2, 1, 3))
    expected = (
        B.x(1)
        + B.y(1)
        + B.beta() * B.x(1) * B.y(1)
    )
    assert s1 == expected


def test_identity_polynomial_is_one():
    for n in (2, 3, 4):
        assert double_beta_polynomial(perm.identity(n)) == B.one()


def test_specializations_frozen():
    assert double_schubert((2, 1)) == B.x(1) - B.y(1)
    assert double_grothendieck((2, 1)) == B.x(1) + B.y(1) - B.x(1) * B.y(1)


def test_grading():
    for n in (2, 3, 4):
        for w in perm.all_permutations(n):
            p = double_beta_polynomial(w)
            assert p.graded_degree() == perm.length(w), w
            assert p.min_xy_degree() == (perm.length(w) if not p.is_zero else 0)


def test_symmetry_under_inverse():
    # swapping the two alphabets gives the polynomial of the inverse
    def swap_alphabets(p):
        nx = p.max_x_index()
        ny = p.max_y_index()
        return p.substitute(
            {i: B.y(i) for i in range(1, nx + 1)},
            {j: B.x(j) for j in range(1, ny + 1)},
        )

    for n in (3, 4):
        for w in perm.all_permutations(n):
            assert swap_alphabets(double_beta_polynomial(w)) == double_beta_polynomial(
                perm.inverse(w)
            ), w


def test_stability_under_embedding():
    for n in (2, 3):
        for w in perm.all_permutations(n):
            assert double_beta_polynomial(w, n + 1) == double_beta_polynomial(w, n), w


def test_all_reduced_word_chains_agree():
    # recompute each family member along every reduced word of w0*w and
    # compare with the recursive definition
    for n in (2, 3):
        top = top_beta_polynomial(n)
        w0 = perm.longest_element(n)
        for w in perm.all_permutations(n):
            expected = double_beta_polynomial(w, n)
            for word in perm.all_reduced_words(perm.compose(w0, w)):
                p = top
                for i in word:
                    p = divided_difference(i, p)
                assert p == expected, (w, word)


def test_pipe_dreams_frozen():
    assert reduced_pipe_dreams((1, 2, 3)) == [frozenset()]
    assert pipe_dream_oracle((2, 1)) == B.x(1)
    assert pipe_dream_oracle((3, 1, 2)) == B.x(1) ** 2
    assert pipe_dream_oracle((2, 3, 1)) == B.x(1) * B.x(2)
    assert pipe_dream_oracle((1, 3, 2)) == B.x(1) + B.x(2)
    assert pipe_dream_oracle((3, 2, 1)) == B.x(1) ** 2 * B.x(2)
    assert len(reduced_pipe_dreams((1, 3, 2))) == 2


def test_grothendieck_low_degree_part():
    # the lowest x,y-degree slice of the beta = -1 polynomial is the
    # beta = 0 polynomial itself
    for w in perm.all_permutations(3):
        g = double_grothendieck(w)
        lw = perm.length(w)
        assert g.xy_degree_component(lw) == double_schubert(w).negate_y(), w


def test_single_schubert_matches_pipe_dreams():
    for n in (2, 3, 4):
        for w in perm.all_permutations(n):
            assert double_schubert(w).set_y_zero() == pipe_dream_oracle(w), w


def test_resolve_validation():
    with pytest.raises(ValueError):
        double_beta_polynomial((1, 3))
    with pytest.raises(ValueError):
        double_beta_polynomial((2, 1, 3), 2)
    # larger ambient group embeds with fixed points
    assert double_beta_polynomial((2, 1), 3) == double_beta_polynomial((2, 1, 3))


def test_cache_priming_and_clearing():
    clear_cache()
    sentinel = B.const(777)
    prime_cache((2, 1), 2, sentinel)
    assert double_beta_polynomial((2, 1)) == sentinel
    clear_cache()
    assert double_beta_polynomial((2, 1)) == top_beta_polynomial(2)
    clear_cache()


def test_concurrent_computation_is_consistent():
    clear_cache()
    perms = list(perm.all_permutations(4))
    serial = {w: double_beta_polynomial(w) for w in perms}
    clear_cache()
    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        futures = {
            w: pool.submit(double_beta_polynomial, w) for w in perms * 3
        }
        results = {w: f.result() for w, f in futures.items()}
    for w in perms:
        assert results[w] == serial[w], w


# -- termwise kernels against the generic route ----------------------


def phi_reference(i, p):
    """phi_i by the defining formula: the numerator
    (1 + beta x_{i+1}) p - (1 + beta x_i) s_i p, divided exactly by
    x_i - x_{i+1}."""
    b = B.beta()
    numerator = (1 + b * B.x(i + 1)) * p - (1 + b * B.x(i)) * p.swap_x(i)
    return numerator.exact_divide_by_difference(i)


def test_divided_difference_matches_reference_on_family_chains():
    # every step double_beta_polynomial takes down from w0, S_2..S_5
    for n in (2, 3, 4, 5):
        for w in perm.all_permutations(n):
            if w == perm.longest_element(n):
                continue
            i = perm.right_ascents(w)[0]
            parent = double_beta_polynomial(perm.times_s(w, i), n)
            step = divided_difference(i, parent)
            assert step == phi_reference(i, parent), (w, i)
            assert step == double_beta_polynomial(w, n), (w, i)


def test_beta0_chain_is_the_beta0_part_of_the_family():
    # the top product at beta = 0 and d_i along the family's ascents give
    # the beta^0 part of every member, S_1..S_5
    clear_cache()
    for n in (1, 2, 3, 4, 5):
        for v in sorted(perm.all_permutations(n)):
            got = beta0_polynomial(v, n).terms()
            full = double_beta_polynomial(v, n).terms()
            expected = {m: c for m, c in full.items() if m[2] == 0}
            stray = next((m for m in sorted(got.keys() | expected.keys())
                          if got.get(m) != expected.get(m)), None)
            assert stray is None, (v, stray, got.get(stray), expected.get(stray))
    clear_cache()
    assert not betapoly._BETA0


@h.given(small_polys(), st.integers(1, 5))
def test_divided_difference_matches_reference(p, i):
    # small_polys lives in x1..x3, so i = 3, 4, 5 reach past the support
    assert divided_difference(i, p) == phi_reference(i, p)


@h.given(st.integers(-10**20, 10**20), st.integers(1, 5))
def test_divided_difference_on_constants(c, i):
    assert divided_difference(i, B.const(c)) == -c * B.beta()


def test_top_polynomial_matches_generic_product():
    for n in (1, 2, 3, 4, 5):
        expected = B.one()
        for i in range(1, n):
            for j in range(1, n - i + 1):
                expected = expected * (B.x(i) + B.y(j) + B.beta() * B.x(i) * B.y(j))
        assert top_beta_polynomial(n) == expected, n


# -- K-theoretic pipe dreams -----------------------------------------


def test_k_pipe_dream_oracle_frozen():
    assert k_pipe_dream_oracle((1, 2)) == B.one()
    assert k_pipe_dream_oracle((2, 1)) == B.x(1) + B.y(1) + B.beta() * B.x(1) * B.y(1)
    # s_2 in S_3: the reduced dreams {(1,2)}, {(2,1)} and the
    # non-reduced {(1,2), (2,1)} with one power of beta
    f12 = B.x(1) + B.y(2) + B.beta() * B.x(1) * B.y(2)
    f21 = B.x(2) + B.y(1) + B.beta() * B.x(2) * B.y(1)
    assert k_pipe_dream_oracle((1, 3, 2)) == f12 + f21 + B.beta() * f12 * f21


def test_k_pipe_dream_oracle_matches_family():
    for n in (2, 3, 4):
        for w in perm.all_permutations(n):
            assert k_pipe_dream_oracle(w) == double_beta_polynomial(w), w
    sample = random.Random(4).sample(list(perm.all_permutations(5)), 6)
    for w in sample + [perm.identity(5), perm.longest_element(5)]:
        assert k_pipe_dream_oracle(w) == double_beta_polynomial(w), w
