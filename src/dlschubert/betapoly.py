"""Double beta-polynomials via divided differences.

The family is generated from the top polynomial

    prod_{i+j <= n} (x_i + y_j + beta*x_i*y_j)

by the operators

    phi_i f = ((1 + beta*x_{i+1}) f - (1 + beta*x_i) (s_i f)) / (x_i - x_{i+1})

applied along descents: the polynomial of w.s_i is phi_i applied to the
polynomial of w whenever length(w.s_i) < length(w).  The operators
satisfy the braid relations, so the result does not depend on the
chosen reduced path down from the longest element.

The engine never forms that numerator.  Since s_i(x_{i+1} f) = x_i s_i f,

    phi_i f = d_i f + beta * d_i(x_{i+1} f),   d_i f = (f - s_i f) / (x_i - x_{i+1}),

and the ordinary divided difference d_i has a closed form on each
monomial: with lo = min(a, b), hi = max(a, b),

    d_i(x_i^a x_{i+1}^b) = sign * sum_{k=0}^{hi-lo-1} x_i^(lo+k) x_{i+1}^(hi-1-k),

where sign is +1 if a > b and -1 if a < b (and d_i is 0 if a = b).  So
phi_i runs term by term, each term emitting its output monomials into
one dict; likewise the top product is built by folding in one factor at
a time, three monomials per term.

One member alone is cheaper by the Cauchy identity for double
Grothendieck polynomials (Fomin and Kirillov, "Grothendieck polynomials
and the Yang-Baxter equation", 1994).  With v * u the Demazure product
and G_u(x) = D_u(x, 0), it reads in this engine's sign convention

    D_w(x, y) = sum over v * u = w of beta^(l(u) + l(v) - l(w)) G_u(x) G_(v^-1)(y).

single_beta_polynomial builds the G's with the same phi_i kernel, down
from x^delta (one term) in a memo of its own, cauchy_pairs finds the
factorizations, and cauchy_polynomial sums the products.  The
factorizations come from a recursion that strips the first right
descent of u (cauchy_pairs), run on permutation indices: a table per
n (_table), built on first use, holds each permutation's one-line
tuple, length, right descents and the index of each p.s_i, and the
walk of each w is memoized (_walk), so a Deligne-Lusztig class walks
its pairs once in every theory.  The walks of all of S_6 take 0.24 s
and its table 2.4 ms, against 1.05 s for the same recursion on
one-line tuples (2-core Xeon, Python 3.11).
By the identity an S_6 member takes 0.01-1.0 s and 17-60 MB, against 0.8-1.6 s
and 68-194 MB down the chain, and n = 7 members of length 8 and 9, out
of the chain's reach, take 2-3 s and about 125 MB.  Near the top the
chain wins: w0 is the top product itself and a member of length
l(w0) - 1 one phi_i step below it (at n = 6, 0.5 s and 0.75 s, against
2.7 s and 1.0 s by the identity).

So the `betapoly` command (cli._family_polynomial) takes the identity
below length l(w0) - 1 and the chain above, and installs the member
with prime_cache.  double_beta_polynomial keeps the chain, and so do
its in-process callers (verify, the scripts, the test oracles): a table
shares the chain's intermediate members (all of S_5 takes 0.37 s by
the chain, 0.51 s by the identity), the chain is the identity's test
oracle, and perfbench/test_perfbench.py pins its recursion.  No
Deligne-Lusztig class reads a member: dlclass sums the same Cauchy
terms inside the quotient ring, from the same walk alone.  At n = 6 the
top product has 187,945 terms.

Specializations (classical families):
  * beta = 0 and y -> -y gives the double Schubert polynomial of w;
  * beta = -1 gives the double Grothendieck polynomial of w.

Note the sign convention: this engine's parameter is the negative of
the connective-K-theory parameter, i.e. geometric class formulas
consume ``double_beta_polynomial(...).flip_beta_sign()``.  Flipping
here keeps the generating product and the operator weights sign-free.

Every value is graded homogeneous of degree length(w) under
deg x = deg y = 1, deg beta = -1.
"""

from __future__ import annotations

import functools
import itertools

from . import perm
from .perm import Permutation
from .poly import BetaPolynomial, Monomial, _strip


def _bump(exp: tuple[int, ...], i: int) -> tuple[int, ...]:
    """exp with its i-th (1-based) entry raised by one; stays stripped."""
    if len(exp) >= i:
        return exp[:i - 1] + (exp[i - 1] + 1,) + exp[i:]
    return exp + (0,) * (i - 1 - len(exp)) + (1,)


def top_beta_polynomial(n: int) -> BetaPolynomial:
    """Polynomial of the longest element of S_n:
    prod over i + j <= n of (x_i + y_j + beta x_i y_j).

    Each factor is folded into the running term dict: a term gives
    exactly three monomials.  Every coefficient is positive, so nothing
    cancels.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    terms: dict[Monomial, int] = {((), (), 0): 1}
    for i in range(1, n):
        for j in range(1, n - i + 1):
            out: dict[Monomial, int] = {}
            get = out.get
            xbumped: dict[tuple[int, ...], tuple[int, ...]] = {}
            ybumped: dict[tuple[int, ...], tuple[int, ...]] = {}
            for (xe, ye, be), c in terms.items():
                xs = xbumped.get(xe) or xbumped.setdefault(xe, _bump(xe, i))
                ys = ybumped.get(ye) or ybumped.setdefault(ye, _bump(ye, j))
                for m in ((xs, ye, be), (xe, ys, be), (xs, ys, be + 1)):
                    out[m] = get(m, 0) + c
            terms = out
    return BetaPolynomial(terms)


def _phi_images(xe: tuple[int, ...], i: int) -> list[tuple[tuple[int, ...], int, int]]:
    """phi_i of the monomial x^xe as (x exponents, added beta exponent,
    sign) triples: d_i x^xe, then beta d_i(x_{i+1} x^xe), by the closed
    form of d_i in the module docstring."""
    if len(xe) > i:
        a, b = xe[i - 1], xe[i]
        head, tail = xe[:i - 1], xe[i + 1:]
    else:
        a, b = (xe[i - 1] if len(xe) == i else 0), 0
        head, tail = xe[:i - 1] + (0,) * (i - 1 - len(xe)), ()
    out = []
    for u, v, k in ((a, b, 0), (a, b + 1, 1)):
        lo, hi, s = (v, u, 1) if u > v else (u, v, -1)
        for e in range(lo, hi):
            f = lo + hi - 1 - e
            if tail:
                x = head + (e, f) + tail
            elif f:
                x = head + (e, f)
            elif e:
                x = head + (e,)
            else:
                x = _strip(head)
            out.append((x, k, s))
    return out


def divided_difference(i: int, p: BetaPolynomial) -> BetaPolynomial:
    """phi_i p = d_i p + beta d_i(x_{i+1} p); lowers graded degree by
    one.  Constants map to -beta times themselves.

    Termwise: phi_i is linear over y and beta, so each term emits the
    images of its x-monomial (computed once per distinct monomial)
    straight into one dict.
    """
    if i < 1:
        raise ValueError("variable indices are 1-based")
    images: dict[tuple[int, ...], list] = {}
    out: dict[Monomial, int] = {}
    get = out.get
    for (xe, ye, be), c in p.terms().items():
        emitted = images.get(xe)
        if emitted is None:
            emitted = images[xe] = _phi_images(xe, i)
        for x, k, s in emitted:
            m = (x, ye, be + k)
            out[m] = get(m, 0) + s * c
    return BetaPolynomial(out)


# per-process family cache, write-once: values are immutable and an
# entry is never replaced, so of two concurrent computations one wins;
# _SINGLE holds the single polynomials G_w(x) the same way
_FAMILY: dict[tuple[int, Permutation], BetaPolynomial] = {}
_SINGLE: dict[tuple[int, Permutation], BetaPolynomial] = {}


def _resolve(w, n: int | None) -> tuple[Permutation, int]:
    w = perm.check_permutation(w)
    if n is None:
        n = len(w)
    if n < len(w):
        raise ValueError(f"w has {len(w)} entries but n={n}")
    return perm.embed(w, n), n


def double_beta_polynomial(w, n: int | None = None) -> BetaPolynomial:
    """The double beta-polynomial of w in S_n (n defaults to len(w);
    larger n embeds w with fixed points, which by stability yields the
    same polynomial)."""
    w, n = _resolve(w, n)
    cached = _FAMILY.get((n, w))
    if cached is not None:
        return cached
    if w == perm.longest_element(n):
        value = top_beta_polynomial(n)
    else:
        i = perm.right_ascents(w)[0]
        value = divided_difference(i, double_beta_polynomial(perm.times_s(w, i), n))
    return _FAMILY.setdefault((n, w), value)


def single_beta_polynomial(w, n: int | None = None) -> BetaPolynomial:
    """G_w(x) = double_beta_polynomial(w, n) at y = 0, without the y
    alphabet: x^delta = x_1^(n-1) ... x_(n-1) (the top product at y = 0),
    then phi_i along the ascents that double_beta_polynomial takes,
    memoized in _SINGLE."""
    w, n = _resolve(w, n)
    return _chain(_SINGLE, w, n, lambda: BetaPolynomial({(tuple(range(n - 1, 0, -1)), (), 0): 1}))


def _chain(memo, w: Permutation, n: int, top) -> BetaPolynomial:
    """The polynomial of w in S_n down a chain like the family's: top() at
    the longest element, then divided_difference(i, .) along the first
    right ascent i of each member, every member memoized in
    memo[(n, w)]."""
    cached = memo.get((n, w))
    if cached is not None:
        return cached
    if w == perm.longest_element(n):
        value = top()
    else:
        i = perm.right_ascents(w)[0]
        value = divided_difference(i, _chain(memo, perm.times_s(w, i), n, top))
    return memo.setdefault((n, w), value)


@functools.lru_cache(maxsize=None)
def _table(n: int) -> tuple[tuple[Permutation, ...], tuple[int, ...], dict[Permutation, int],
                            tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """S_n on integers: (perms, lengths, index, descents, steps), where
    perms[p] is the permutation of index p in lexicographic order,
    lengths[p] = l(perms[p]), index the inverse of perms, descents[p]
    the right descents of perms[p] as a bit set (bit i for s_(i+1)) and
    steps[p][i] the index of perms[p].s_(i+1).

    The index of a permutation is the number its Lehmer code spells in
    the factorial base, and its length is the sum of those digits, so
    the lengths are built digit by digit, the most significant last.
    """
    perms = tuple(itertools.permutations(range(1, n + 1)))
    index = {p: k for k, p in enumerate(perms)}
    lengths = [0]
    for m in range(2, n + 1):
        lengths = [d + rest for d in range(m) for rest in lengths]
    descents = tuple(sum(1 << i for i in range(n - 1) if p[i] > p[i + 1]) for p in perms)
    steps = tuple(tuple(index[p[:i] + (p[i + 1], p[i]) + p[i + 2:]] for i in range(n - 1))
                  for p in perms)
    return perms, tuple(lengths), index, descents, steps


@functools.lru_cache(maxsize=None)
def _walk(w: Permutation) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """cauchy_pairs(w) by the indices of _table(len(w)): ((u, (v, ..)),
    ..) with u ascending, memoized per w."""
    n = len(w)
    _, _, index, descents, steps = _table(n)
    size = len(steps)
    memo: dict[int, tuple[int, ...]] = {}

    def below(u: int, x: int) -> tuple[int, ...]:
        got = memo.get(u * size + x)
        if got is None:
            low = descents[u] & -descents[u]  # the first right descent of u
            if not low:
                got = (x,)
            elif descents[x] & low:
                i = low.bit_length() - 1
                u1 = steps[u][i]
                got = below(u1, x) + below(u1, steps[x][i])
            else:
                got = ()
            memo[u * size + x] = got
        return got

    # a reduced word of w, read off by stepping down its right descents
    x = top = index[w]
    word = []
    while descents[x]:
        i = (descents[x] & -descents[x]).bit_length() - 1
        word.append(i)
        x = steps[x][i]
    # [e, w] is the set of Demazure products of subwords of a reduced word
    interval = {x}
    for i in reversed(word):
        interval |= {u if descents[u] >> i & 1 else steps[u][i] for u in interval}
    return tuple((u, vs) for u in sorted(interval) if (vs := below(u, top)))


def cauchy_pairs(w: Permutation) -> dict[Permutation, tuple[Permutation, ...]]:
    """{u: (v, ...)} over the pairs with v * u = w (Demazure product),
    keys ascending.

    With R(u, x) = {v : v * u = x}: R(e, x) = {x}, and for a right
    descent i of u, R(u, x) is R(u.s_i, x) + R(u.s_i, x.s_i) if i is a
    right descent of x and empty otherwise, memoized in (u, x); no
    Demazure product of two words is formed.  u runs over the Bruhat
    interval [e, w], where R(u, w) may be empty (no v has
    v * s_1 = s_1.s_2 in S_3).  The recursion runs on the integer
    indices of _table, in the memo _walk that dlclass reads as well.
    """
    perms = _table(len(w))[0]
    return {perms[u]: tuple(perms[v] for v in vs) for u, vs in _walk(tuple(w))}


def cauchy_polynomial(w, n: int | None = None) -> BetaPolynomial:
    """double_beta_polynomial(w, n) by the Cauchy identity of the module
    docstring: the sum over cauchy_pairs(w) of
    beta^(l(u) + l(v) - l(w)) G_u(x) G_(v^-1)(y), with
    G = single_beta_polynomial and x renamed to y on the right.  Stores
    nothing in _FAMILY; the G's go to _SINGLE.  Each product joins an
    x-only and a y-only monomial, so no exponent tuples are added.
    """
    w, n = _resolve(w, n)
    perms, lengths = _table(n)[:2]
    lw = perm.length(w)
    out: dict[Monomial, int] = {}
    get = out.get
    for u, vs in _walk(w):
        # the y side of u: sum over its v of beta^k G_(v^-1)(y)
        side: dict[tuple[tuple[int, ...], int], int] = {}
        shift = lengths[u] - lw
        for v in vs:
            k = shift + lengths[v]
            g = single_beta_polynomial(perm.inverse(perms[v]), n)
            for (ye, _, be), c in g.terms().items():
                key = (ye, be + k)
                side[key] = side.get(key, 0) + c
        rows = list(side.items())
        for (xe, _, bx), cx in single_beta_polynomial(perms[u], n).terms().items():
            for (ye, by), cy in rows:
                m = (xe, ye, bx + by)
                out[m] = get(m, 0) + cx * cy
    return BetaPolynomial(out)


def clear_cache() -> None:
    """Empty the family, the single polynomials, the Cauchy walks and
    the permutation tables."""
    _FAMILY.clear()
    _SINGLE.clear()
    _walk.cache_clear()
    _table.cache_clear()


def prime_cache(w, n: int | None, value: BetaPolynomial) -> None:
    """Install a precomputed family member, write-once.

    value must be what double_beta_polynomial(w, n) would compute, such
    as cauchy_polynomial(w, n) or a disk entry that passed
    PolynomialCache.get (its terms may come in another order); a member
    already in the family is kept, so every memo built from one is a
    function of (w, n) alone."""
    w, n = _resolve(w, n)
    _FAMILY.setdefault((n, w), value)


def double_schubert(w, n: int | None = None) -> BetaPolynomial:
    """Double Schubert polynomial: beta = 0 with y negated."""
    return double_beta_polynomial(w, n).specialize_beta(0).negate_y()


def double_grothendieck(w, n: int | None = None) -> BetaPolynomial:
    """Double Grothendieck polynomial: beta = -1."""
    return double_beta_polynomial(w, n).specialize_beta(-1)


# -- pipe dream oracle ---------------------------------------------------


def _staircase_cells(n: int) -> list[tuple[int, int]]:
    """Cells (i, j) with i + j <= n in reading order: rows top to
    bottom, each row right to left.  Cell (i, j) reads as s_{i+j-1}."""
    return [(i, j) for i in range(1, n) for j in range(n - i, 0, -1)]


def reduced_pipe_dreams(w) -> list[frozenset[tuple[int, int]]]:
    """All reduced pipe dreams (RC-graphs) of w: cross sets D inside the
    staircase {(i, j) : i + j <= n} such that reading s_{i+j-1} along
    rows top to bottom, right to left, gives a reduced word for w."""
    w = perm.check_permutation(w)
    n = len(w)
    cells = _staircase_cells(n)
    lw = perm.length(w)
    dreams = []
    for combo in itertools.combinations(range(len(cells)), lw):
        word = [cells[k][0] + cells[k][1] - 1 for k in combo]
        if perm.word_to_permutation(word, n) == w:
            # the word has length(w) letters, so hitting w means reduced
            dreams.append(frozenset(cells[k] for k in combo))
    return dreams


def pipe_dream_oracle(w) -> BetaPolynomial:
    """Single Schubert polynomial of w by direct enumeration of reduced
    pipe dreams: sum over dreams of prod x_i^(crosses in row i).

    Independent of the divided-difference recursion; intended as a test
    oracle for n <= 5.
    """
    w = perm.check_permutation(w)
    acc = BetaPolynomial.zero()
    for dream in reduced_pipe_dreams(w):
        exps: dict[int, int] = {}
        for (i, _) in dream:
            exps[i] = exps.get(i, 0) + 1
        mono = BetaPolynomial.one()
        for i, e in exps.items():
            mono = mono * BetaPolynomial.x(i) ** e
        acc = acc + mono
    return acc


def k_pipe_dream_oracle(w) -> BetaPolynomial:
    """Double beta-polynomial of w by the K-theoretic pipe-dream formula
    (Knutson-Miller, "Groebner geometry of Schubert polynomials", 2005):
    the sum, over all (not only reduced) subsets D of the staircase whose
    reading word (the order of reduced_pipe_dreams) has Demazure product
    w, of beta^(|D| - length(w)) * prod_{(i, j) in D} (x_i + y_j + beta x_i y_j).

    Shares no code with the divided-difference kernel and sees both the
    beta terms and the y alphabet; a test oracle for n <= 5 (it visits
    all 2^(n(n-1)/2) subsets).
    """
    w = perm.check_permutation(w)
    n = len(w)
    cells = _staircase_cells(n)
    lw = perm.length(w)
    b = BetaPolynomial.beta()
    acc = BetaPolynomial.zero()
    for size in range(lw, len(cells) + 1):
        for dream in itertools.combinations(cells, size):
            word = [i + j - 1 for (i, j) in dream]
            if perm.demazure_product(word, n) != w:
                continue
            term = b ** (size - lw)
            for (i, j) in dream:
                xi, yj = BetaPolynomial.x(i), BetaPolynomial.y(j)
                term = term * (xi + yj + b * xi * yj)
            acc = acc + term
    return acc
