"""Formal group law of connective K-theory.

First Chern classes of line bundles add by
``a (+) b = a + b - beta*a*b``; beta = 0 degenerates to the additive
law (Chow groups), beta = 1 to the multiplicative law (K-theory, with
c1(L) read as 1 - [dual of L]).

The operations are generic over BetaPolynomial and FlagRingElement.
The formal inverse is a geometric series in beta, so it exists only
where the argument is nilpotent: it is restricted to quotient-ring
elements with no constant term.
"""

from __future__ import annotations

import functools
from math import comb

from .flagring import FlagRingElement

# a truncated power series in one variable t: ((t_degree, beta_exp, coeff), ..)
Series = tuple[tuple[int, int, int], ...]


def fgl_add(a, b):
    """a + b - beta*a*b (the class of a tensor product of line bundles)."""
    return a + b - a.ring_beta() * (a * b)


def fgl_inverse(a: FlagRingElement) -> FlagRingElement:
    """Formal inverse: -a * sum_k beta^k a^k, truncated by nilpotency.

    Only quotient-ring elements with vanishing constant term are
    accepted; there the series stops because a^(k+1) has x-degree > k.
    """
    if not isinstance(a, FlagRingElement):
        raise TypeError(
            "formal inverse needs a nilpotent argument; "
            "pass a FlagRingElement with no constant term"
        )
    if a.constant_scalar():
        raise ValueError("formal inverse requires a zero constant term")
    cap = a.n * (a.n - 1) // 2 + 1
    beta = FlagRingElement.beta(a.n)
    acc = FlagRingElement.zero(a.n)
    power = a
    beta_pow = FlagRingElement.one(a.n)
    for _ in range(cap):
        if power.is_zero:
            break
        acc = acc + beta_pow * power
        power = power * a
        beta_pow = beta_pow * beta
    assert power.is_zero, "nilpotency cap exceeded"
    return -acc


def n_times(m: int, a):
    """m-fold formal sum of a with itself:
    sum_{i=1..m} C(m, i) * a^i * (-beta)^(i-1).

    Equals fgl_add iterated m times; the closed form follows by
    induction from (m+1).a = a (+) m.a.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    acc = a.ring_zero()
    if m == 0:
        return acc
    beta = a.ring_beta()
    a_pow = a.ring_one()
    mb_pow = a.ring_one()  # (-beta)^(i-1)
    for i in range(1, m + 1):
        a_pow = a_pow * a
        if not a_pow:  # a is nilpotent: every later term vanishes too
            break
        if i > 1:
            mb_pow = mb_pow * (-beta)
        acc = acc + comb(m, i) * (a_pow * mb_pow)
    return acc


# -- a univariate series in a nilpotent variable t with t^n = 0 ----------
#
# Each generator x_i of the quotient ring satisfies x_i^n = 0, so the
# image [q]x_i of the Frobenius substitution x_i -> [q]x_i is this series
# truncated at t^n; dlclass._frobenius_images multiplies by it one
# generator at a time.  It is memoized, and flagring.clear_caches()
# empties it.


@functools.lru_cache(maxsize=None)
def n_times_series(m: int, n: int) -> Series:
    """[m]t = sum_{i=1..min(m, n-1)} C(m, i) (-beta)^(i-1) t^i mod t^n;
    the closed form of n_times, with O(n) work whatever m is."""
    if m < 0:
        raise ValueError("m must be >= 0")
    return tuple(
        (i, i - 1, (-1) ** (i - 1) * comb(m, i)) for i in range(1, min(m, n - 1) + 1)
    )
