import doctest
import itertools

import hypothesis as h
import hypothesis.strategies as st
import pytest

from dlschubert import perm


def perms(max_n=5):
    return st.integers(2, max_n).flatmap(
        lambda n: st.permutations(list(range(1, n + 1))).map(tuple)
    )


def test_doctests():
    failures, _ = doctest.testmod(perm)
    assert failures == 0


def test_check_permutation_rejects():
    with pytest.raises(ValueError):
        perm.check_permutation((1, 3))
    with pytest.raises(ValueError):
        perm.check_permutation((2, 2))
    assert perm.check_permutation([2, 1]) == (2, 1)


def test_basics_frozen():
    assert perm.identity(3) == (1, 2, 3)
    assert perm.longest_element(4) == (4, 3, 2, 1)
    assert perm.length((3, 1, 2)) == 2
    assert perm.length(perm.longest_element(4)) == 6
    assert perm.length(perm.identity(5)) == 0


@h.given(perms())
def test_inverse_laws(w):
    n = len(w)
    assert perm.compose(w, perm.inverse(w)) == perm.identity(n)
    assert perm.compose(perm.inverse(w), w) == perm.identity(n)
    assert perm.length(w) == perm.length(perm.inverse(w))


@h.given(perms(4), perms(4))
def test_compose_lengths_and_assoc(w, v):
    if len(w) != len(v):
        return
    n = len(w)
    u = perm.longest_element(n)
    assert perm.compose(perm.compose(w, v), u) == perm.compose(w, perm.compose(v, u))
    # length is subadditive under composition
    assert perm.length(perm.compose(w, v)) <= perm.length(w) + perm.length(v)


def test_compose_size_mismatch():
    with pytest.raises(ValueError):
        perm.compose((2, 1), (1, 2, 3))


@h.given(perms())
def test_adjacent_transpositions(w):
    n = len(w)
    for i in range(1, n):
        r = perm.times_s(w, i)
        assert abs(perm.length(r) - perm.length(w)) == 1
        assert (perm.length(r) < perm.length(w)) == perm.has_right_descent(w, i)
        l = perm.s_times(i, w)
        assert abs(perm.length(l) - perm.length(w)) == 1
        assert (perm.length(l) < perm.length(w)) == perm.has_left_descent(w, i)


def test_longest_element_maximal():
    for n in (2, 3, 4):
        w0 = perm.longest_element(n)
        assert perm.length(w0) == n * (n - 1) // 2
        assert perm.compose(w0, w0) == perm.identity(n)


def test_reduced_word_frozen():
    assert perm.reduced_word((3, 2, 1)) == (1, 2, 1)
    assert perm.reduced_word((1, 2, 3)) == ()
    assert perm.all_reduced_words((3, 2, 1)) == {(1, 2, 1), (2, 1, 2)}


def test_reduced_words_exhaustive():
    # every word evaluates back to w with exactly length(w) letters, and
    # the canonical word is the lex-least of the full enumeration
    for n in (2, 3, 4):
        for w in perm.all_permutations(n):
            words = perm.all_reduced_words(w)
            assert perm.reduced_word(w) == min(words)
            for word in words:
                assert len(word) == perm.length(w)
                assert perm.word_to_permutation(word, n) == w


def test_reduced_word_count_longest_s4():
    # number of reduced words of the longest element of S4 (standard
    # tableaux of the staircase shape (3,2,1))
    assert len(perm.all_reduced_words(perm.longest_element(4))) == 16


def _bruhat_subword_oracle(v, w):
    """v <= w iff v is a product of some subword of one fixed reduced
    word of w (the subword property of Coxeter groups)."""
    word = perm.reduced_word(w)
    n = len(w)
    seen = set()
    for r in range(len(word) + 1):
        for combo in itertools.combinations(word, r):
            seen.add(perm.word_to_permutation(combo, n))
    return v in seen


def test_bruhat_against_subword_oracle():
    for n in (2, 3, 4):
        for v in perm.all_permutations(n):
            for w in perm.all_permutations(n):
                assert perm.bruhat_leq(v, w) == _bruhat_subword_oracle(v, w), (v, w)


def test_bruhat_frozen_pair():
    assert perm.bruhat_leq((2, 1, 3), (3, 2, 1))
    assert not perm.bruhat_leq((3, 2, 1), (2, 1, 3))


@h.given(perms())
def test_bruhat_extremes(w):
    n = len(w)
    assert perm.bruhat_leq(perm.identity(n), w)
    assert perm.bruhat_leq(w, perm.longest_element(n))


def test_rank_function_frozen():
    assert perm.rank_function((3, 1, 2), 2, 1) == 1
    w = (3, 1, 2)
    for j in range(1, 4):
        for i in range(1, 4):
            direct = sum(1 for l in range(1, j + 1) if w[l - 1] <= i)
            assert perm.rank_function(w, j, i) == direct
    with pytest.raises(ValueError):
        perm.rank_function(w, 0, 1)
    with pytest.raises(ValueError):
        perm.rank_function(w, 1, 4)


def test_rank_function_identity_and_corner():
    for n in (2, 3, 4):
        e = perm.identity(n)
        for j in range(1, n + 1):
            for i in range(1, n + 1):
                assert perm.rank_function(e, j, i) == min(i, j)
        for w in perm.all_permutations(n):
            assert perm.rank_function(w, n, n) == n


def test_rank_matrix_determines_permutation():
    for n in (3, 4, 5):
        seen = {}
        for w in perm.all_permutations(n):
            mat = tuple(
                perm.rank_function(w, j, i)
                for j in range(1, n + 1)
                for i in range(1, n + 1)
            )
            assert mat not in seen, (w, seen.get(mat))
            seen[mat] = w


def test_longest_element_rejects_zero():
    with pytest.raises(ValueError):
        perm.longest_element(0)


def test_convention_translate():
    w0 = perm.longest_element(3)
    assert perm.convention_translate(w0, "omega", "x") == perm.identity(3)
    for w in perm.all_permutations(4):
        w0 = perm.longest_element(4)
        assert perm.convention_translate(w, "omega", "y") == perm.compose(
            w0, perm.compose(w, w0)
        )
        for src in perm.LABELINGS:
            for dst in perm.LABELINGS:
                there = perm.convention_translate(w, src, dst)
                assert perm.convention_translate(there, dst, src) == w
    with pytest.raises(ValueError):
        perm.convention_translate((1, 2), "omega", "z")


def test_parse_format_roundtrip():
    assert perm.parse_permutation("[3, 1, 2]") == (3, 1, 2)
    assert perm.parse_permutation("3,1,2") == (3, 1, 2)
    assert perm.format_permutation((3, 1, 2)) == "[3,1,2]"
    for w in perm.all_permutations(4):
        assert perm.parse_permutation(perm.format_permutation(w)) == w
    for bad in ("[3,1", "3,1]", "", "[]", "[a,b]", "[1,,2]"):
        with pytest.raises(ValueError):
            perm.parse_permutation(bad)


def test_parse_errors_tell_syntax_from_content():
    # malformed text and a well-formed non-permutation raise different
    # exceptions (the CLI exits with 2 and 3 on them)
    for bad in ("[3,1", "3,1]", "", "[]", "[ ]", "[a,b]", "[1,,2]", "[[1,2]", "[1,2]]"):
        with pytest.raises(perm.PermutationSyntaxError):
            perm.parse_permutation(bad)
    for wrong in ("[1,1]", "[0,1]", "[2,3]"):
        with pytest.raises(ValueError) as info:
            perm.parse_permutation(wrong)
        assert not isinstance(info.value, perm.PermutationSyntaxError)


def test_embed():
    assert perm.embed((2, 1), 4) == (2, 1, 3, 4)
    with pytest.raises(ValueError):
        perm.embed((2, 1, 3), 2)


def test_demazure_product_on_reduced_and_stuttered_words():
    for w in perm.all_permutations(4):
        for word in perm.all_reduced_words(w):
            assert perm.demazure_product(word, 4) == w
            # repeating any letter in place leaves the 0-Hecke product as is
            for k in range(len(word)):
                stutter = word[:k + 1] + word[k:]
                assert perm.demazure_product(stutter, 4) == w, (w, stutter)
