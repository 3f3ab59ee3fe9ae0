import random
from math import comb

import pytest

from dlschubert.fgl import (
    fgl_add,
    fgl_inverse,
    n_times,
    n_times_series,
)
from dlschubert.flagring import FlagRingElement, staircase_monomials
from dlschubert.poly import BetaPolynomial

B = BetaPolynomial
F = FlagRingElement


def test_fgl_add_frozen():
    x, y, beta = B.x(1), B.y(1), B.beta()
    assert fgl_add(x, y) == x + y - beta * x * y
    assert fgl_add(x, B.zero()) == x
    assert fgl_add(B.zero(), y) == y


def test_fgl_add_commutative_associative():
    a, b, c = B.x(1), B.x(2), B.y(1)
    assert fgl_add(a, b) == fgl_add(b, a)
    assert fgl_add(fgl_add(a, b), c) == fgl_add(a, fgl_add(b, c))
    rng = random.Random(42)
    n = 3
    mons = [m for m in staircase_monomials(n) if any(m)]
    for _ in range(10):
        xs = []
        for _ in range(3):
            terms = {
                (m, rng.randrange(0, 2)): rng.randint(-3, 3) for m in mons
            }
            xs.append(F(n, terms))
        a, b, c = xs
        assert fgl_add(a, b) == fgl_add(b, a)
        assert fgl_add(fgl_add(a, b), c) == fgl_add(a, fgl_add(b, c))


def test_n_times_respects_substitution():
    x = B.x(1)
    a = F.x_gen(3, 1)
    for m in range(0, 6):
        assert n_times(m, x).substitute({1: a}, {}) == n_times(m, a)


def test_n_times_frozen():
    x, beta = B.x(1), B.beta()
    assert n_times(0, x) == B.zero()
    assert n_times(1, x) == x
    assert n_times(2, x) == 2 * x - beta * x**2
    assert n_times(3, x) == 3 * x - 3 * beta * x**2 + beta**2 * x**3
    with pytest.raises(ValueError):
        n_times(-1, x)


def test_n_times_matches_iterated_add():
    x = B.x(1)
    acc = B.zero()
    for m in range(1, 9):
        acc = fgl_add(acc, x)
        assert n_times(m, x) == acc


def test_n_times_in_quotient():
    n = 3
    xb = F.x_gen(n, 1)
    acc = F.zero(n)
    for m in range(1, 6):
        acc = fgl_add(acc, xb)
        assert n_times(m, xb) == acc


def test_inverse_type_and_value_guards():
    with pytest.raises(TypeError):
        fgl_inverse(B.x(1))
    with pytest.raises(ValueError):
        fgl_inverse(F.one(2))
    with pytest.raises(ValueError):
        fgl_inverse(F.x_gen(2, 1) + F.from_int(2, 3))


def test_inverse_of_zero_and_beta_zero_part():
    for n in (2, 3):
        assert fgl_inverse(F.zero(n)).is_zero
    a = F.x_gen(3, 2)
    assert fgl_inverse(a).beta_component(0) == -a


def test_inverse_frozen_n2():
    # in the n=2 quotient x1 = -x2 and x2^2 = 0, so the series stops at
    # the linear term
    xb2 = F.x_gen(2, 2)
    assert fgl_inverse(xb2) == -xb2
    assert fgl_add(xb2, fgl_inverse(xb2)).is_zero


def test_inverse_identity_generators():
    for n in (2, 3, 4):
        for i in range(1, n + 1):
            a = F.x_gen(n, i)
            assert fgl_add(a, fgl_inverse(a)).is_zero
            assert fgl_add(fgl_inverse(a), a).is_zero


def test_inverse_identity_staircase_monomials():
    n = 3
    for exps in staircase_monomials(n):
        if not any(exps):
            continue
        a = F.one(n)
        for i, e in enumerate(exps, start=1):
            a = a * F.x_gen(n, i) ** e
        if a.is_zero:
            continue
        assert fgl_add(a, fgl_inverse(a)).is_zero


def test_inverse_identity_random_elements():
    rng = random.Random(20240811)
    n = 4
    basis = staircase_monomials(n)
    for _ in range(25):
        a = F.zero(n)
        for exps in basis:
            if not any(exps):
                continue
            c = rng.randint(-2, 2)
            if not c:
                continue
            m = F.from_int(n, c)
            for i, e in enumerate(exps, start=1):
                m = m * F.x_gen(n, i) ** e
            a = a + m
        assert fgl_add(a, fgl_inverse(a)).is_zero


def test_inverse_is_involution():
    n = 3
    for i in range(1, n + 1):
        a = F.x_gen(n, i)
        assert fgl_inverse(fgl_inverse(a)) == a


def test_n_times_stops_at_nilpotency():
    # x_i^4 = 0 at n = 3, so the closed form stops after three terms
    # however large the multiple is
    m = 10**9 + 7
    n = 3
    beta = F.beta(n)
    for i in range(1, n + 1):
        a = F.x_gen(n, i)
        closed = sum(
            (comb(m, k) * (a**k * (-beta) ** (k - 1)) for k in range(1, 4)), F.zero(n)
        )
        assert n_times(m, a) == closed


def _series_poly(series):
    return sum((B.term(c, x=(d,), beta=be) for d, be, c in series), B.zero())


def _truncate(p, n):
    return B({m: c for m, c in p.terms().items() if sum(m[0]) < n})


def test_n_times_series_is_truncated_n_times():
    t = B.x(1)
    for n in range(1, 7):
        for m in range(0, 13):
            assert _series_poly(n_times_series(m, n)) == _truncate(n_times(m, t), n)
    with pytest.raises(ValueError):
        n_times_series(-1, 3)


def _inverse_series(n):
    """The formal inverse -sum_{k=0..n-2} beta^k t^(k+1) mod t^n, as
    ((t degree, beta exponent, coeff), ..)."""
    return tuple((k + 1, k, -1) for k in range(n - 1))


def test_inverse_series_inverts_mod_t_n():
    t = B.x(1)
    for n in range(1, 7):
        inv = _series_poly(_inverse_series(n))
        assert _truncate(fgl_add(t, inv), n).is_zero
        # the series fgl_inverse sums for a generator of the quotient ring
        a = F.x_gen(n, n)
        assert inv.substitute({1: a}, {}) == fgl_inverse(a)
