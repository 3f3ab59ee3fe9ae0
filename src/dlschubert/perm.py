"""Permutations of {1, ..., n} in one-line notation.

A permutation w is the tuple ``(w(1), ..., w(n))``.  Composition is
``compose(w, v)(i) = w(v(i))``, so ``times_s(w, i)`` (right
multiplication by the adjacent transposition s_i) swaps the entries in
positions i and i+1, while ``s_times(i, w)`` (left multiplication)
swaps the values i and i+1.

``length(w)`` is the inversion count.  Under the codimension indexing
used by the geometry modules it equals the codimension of the Schubert
variety Omega_w; the three classical labelling conventions are related
by Omega_w = X_{w.w0} = Y_{w0.w.w0}.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator

Permutation = tuple[int, ...]

LABELINGS = ("omega", "x", "y")


def check_permutation(word: Iterable[int]) -> Permutation:
    """Validate one-line notation and return it as a tuple.

    >>> check_permutation([2, 1, 3])
    (2, 1, 3)
    >>> check_permutation([2, 2])
    Traceback (most recent call last):
    ...
    ValueError: not a permutation of 1..2: (2, 2)
    """
    w = tuple(word)
    if sorted(w) != list(range(1, len(w) + 1)):
        raise ValueError(f"not a permutation of 1..{len(w)}: {w}")
    return w


def identity(n: int) -> Permutation:
    return tuple(range(1, n + 1))


def longest_element(n: int) -> Permutation:
    """One-line notation (n, n-1, ..., 1).

    >>> longest_element(3)
    (3, 2, 1)
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return tuple(range(n, 0, -1))


def all_permutations(n: int) -> Iterator[Permutation]:
    return itertools.permutations(range(1, n + 1))


def length(w: Permutation) -> int:
    """Number of inversions.

    >>> length((3, 1, 2))
    2
    """
    return sum(
        1 for a in range(len(w)) for b in range(a + 1, len(w)) if w[a] > w[b]
    )


def compose(w: Permutation, v: Permutation) -> Permutation:
    """(w.v)(i) = w(v(i)).

    >>> compose((2, 1, 3), (1, 3, 2))
    (2, 3, 1)
    """
    if len(w) != len(v):
        raise ValueError(f"size mismatch: {len(w)} vs {len(v)}")
    return tuple(w[v[i] - 1] for i in range(len(w)))


def inverse(w: Permutation) -> Permutation:
    """
    >>> inverse((3, 1, 2))
    (2, 3, 1)
    """
    out = [0] * len(w)
    for i, wi in enumerate(w, start=1):
        out[wi - 1] = i
    return tuple(out)


def times_s(w: Permutation, i: int) -> Permutation:
    """Right multiplication w.s_i: swap positions i, i+1 (1-based)."""
    if not 1 <= i < len(w):
        raise ValueError(f"s_{i} undefined for n={len(w)}")
    out = list(w)
    out[i - 1], out[i] = out[i], out[i - 1]
    return tuple(out)


def s_times(i: int, w: Permutation) -> Permutation:
    """Left multiplication s_i.w: swap the values i, i+1."""
    if not 1 <= i < len(w):
        raise ValueError(f"s_{i} undefined for n={len(w)}")
    swap = {i: i + 1, i + 1: i}
    return tuple(swap.get(v, v) for v in w)


def has_right_descent(w: Permutation, i: int) -> bool:
    """True iff length(w.s_i) < length(w), i.e. w(i) > w(i+1)."""
    return w[i - 1] > w[i]


def has_left_descent(w: Permutation, i: int) -> bool:
    """True iff length(s_i.w) < length(w), i.e. i+1 occurs before i."""
    return w.index(i + 1) < w.index(i)


def right_ascents(w: Permutation) -> list[int]:
    return [i for i in range(1, len(w)) if not has_right_descent(w, i)]


def reduced_word(w: Permutation) -> tuple[int, ...]:
    """Lexicographically smallest reduced word for w.

    Greedy: the first letter of the lex-least word is the smallest left
    descent, and the tail is the lex-least word of the remainder.

    >>> reduced_word((3, 2, 1))
    (1, 2, 1)
    >>> reduced_word((1, 2, 3))
    ()
    """
    word = []
    cur = w
    while True:
        for i in range(1, len(cur)):
            if has_left_descent(cur, i):
                word.append(i)
                cur = s_times(i, cur)
                break
        else:
            return tuple(word)


def all_reduced_words(w: Permutation) -> set[tuple[int, ...]]:
    """Every reduced word of w (first letters range over left descents).

    >>> sorted(all_reduced_words((3, 2, 1)))
    [(1, 2, 1), (2, 1, 2)]
    """
    memo: dict[Permutation, set[tuple[int, ...]]] = {}

    def rec(v: Permutation) -> set[tuple[int, ...]]:
        got = memo.get(v)
        if got is not None:
            return got
        words: set[tuple[int, ...]] = set()
        descents = [i for i in range(1, len(v)) if has_left_descent(v, i)]
        if not descents:
            words.add(())
        for i in descents:
            for tail in rec(s_times(i, v)):
                words.add((i,) + tail)
        memo[v] = words
        return words

    return rec(w)


def word_to_permutation(word: Iterable[int], n: int) -> Permutation:
    """Product s_{a1} s_{a2} ... s_{al} read left to right."""
    p = identity(n)
    for a in word:
        p = times_s(p, a)
    return p


def demazure_product(word: Iterable[int], n: int) -> Permutation:
    """0-Hecke (Demazure) product of s_{a1} ... s_{al}, read left to
    right: each letter multiplies on the right only if it lengthens.
    Equals word_to_permutation on reduced words.

    >>> demazure_product([1, 1], 2)
    (2, 1)
    >>> demazure_product([1, 2, 1, 2], 3)
    (3, 2, 1)
    """
    p = identity(n)
    for a in word:
        if not has_right_descent(p, a):
            p = times_s(p, a)
    return p


def rank_function(w: Permutation, j: int, i: int) -> int:
    """r_w(j, i) = #{l <= j : w(l) <= i}.

    >>> rank_function((3, 1, 2), 2, 1)
    1
    """
    n = len(w)
    if not (1 <= j <= n and 1 <= i <= n):
        raise ValueError(f"rank_function arguments out of range for n={n}")
    return sum(1 for l in range(1, j + 1) if w[l - 1] <= i)


def _rank_matrix(w: Permutation) -> list[list[int]]:
    n = len(w)
    mat = [[0] * (n + 1) for _ in range(n + 1)]
    for j in range(1, n + 1):
        row = mat[j]
        prev = mat[j - 1]
        for i in range(1, n + 1):
            row[i] = prev[i] + (1 if w[j - 1] <= i else 0)
    return mat


def bruhat_leq(v: Permutation, w: Permutation) -> bool:
    """Bruhat order via the rank criterion:
    v <= w iff r_v(j, i) >= r_w(j, i) for all i, j.

    >>> bruhat_leq((2, 1, 3), (3, 2, 1))
    True
    >>> bruhat_leq((3, 2, 1), (2, 1, 3))
    False
    """
    if len(v) != len(w):
        raise ValueError(f"size mismatch: {len(v)} vs {len(w)}")
    rv = _rank_matrix(v)
    rw = _rank_matrix(w)
    n = len(v)
    for j in range(1, n + 1):
        for i in range(1, n + 1):
            if rv[j][i] < rw[j][i]:
                return False
    return True


def convention_translate(w: Permutation, src: str, dst: str) -> Permutation:
    """Relabel the same Schubert variety between the Omega/X/Y conventions.

    Omega_w = X_{w.w0} = Y_{w0.w.w0}, so e.g. translating w0 from the
    Omega convention to X gives the identity.

    >>> convention_translate((3, 2, 1), "omega", "x")
    (1, 2, 3)
    """
    s, d = src.lower(), dst.lower()
    if s not in LABELINGS or d not in LABELINGS:
        raise ValueError(f"unknown convention: {src!r} or {dst!r}")
    n = len(w)
    w0 = longest_element(n)
    if s == "omega":
        omega = w
    elif s == "x":
        omega = compose(w, w0)
    else:
        omega = compose(w0, compose(w, w0))
    if d == "omega":
        return omega
    if d == "x":
        return compose(omega, w0)
    return compose(w0, compose(omega, w0))


def embed(w: Permutation, n: int) -> Permutation:
    """Extend w by fixed points up to S_n."""
    if n < len(w):
        raise ValueError(f"cannot embed S_{len(w)} into S_{n}")
    return tuple(w) + tuple(range(len(w) + 1, n + 1))


class PermutationSyntaxError(ValueError):
    """The text is not a bracketed, comma separated list of integers."""


def parse_permutation(text: str) -> Permutation:
    """Parse "[3,1,2]" (brackets optional, whitespace ignored).

    Malformed text raises PermutationSyntaxError; a well-formed list
    that is not a permutation raises ValueError from check_permutation.

    >>> parse_permutation("[3, 1, 2]")
    (3, 1, 2)
    """
    s = text.strip()
    if s.startswith("[") != s.endswith("]"):
        raise PermutationSyntaxError(f"unbalanced brackets in permutation: {text!r}")
    if s.startswith("["):
        s = s[1:-1]
    parts = [p.strip() for p in s.split(",")] if s else []
    if not parts or any(not p for p in parts):
        raise PermutationSyntaxError(f"cannot parse permutation: {text!r}")
    try:
        word = [int(p) for p in parts]
    except ValueError:
        raise PermutationSyntaxError(f"cannot parse permutation: {text!r}") from None
    return check_permutation(word)


def format_permutation(w: Permutation) -> str:
    """
    >>> format_permutation((3, 1, 2))
    '[3,1,2]'
    """
    return "[" + ",".join(map(str, w)) + "]"
