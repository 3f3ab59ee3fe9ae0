import json

import hypothesis as h
import hypothesis.strategies as st
import pytest

from dlschubert.poly import (
    BetaPolynomial,
    ExactDivisionError,
    from_json_terms,
    render,
    sorted_terms,
    to_json_terms,
)

B = BetaPolynomial


def small_polys():
    mono = st.tuples(
        st.lists(st.integers(0, 3), max_size=3).map(tuple),
        st.lists(st.integers(0, 2), max_size=2).map(tuple),
        st.integers(0, 2),
    )
    return st.dictionaries(mono, st.integers(-9, 9), max_size=5).map(
        lambda d: sum(
            (B.term(c, x=xe, y=ye, beta=be) for (xe, ye, be), c in d.items()),
            B.zero(),
        )
    )


@h.given(small_polys(), small_polys(), small_polys())
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + B.zero() == p
    assert p * B.one() == p
    assert p - p == B.zero()
    assert p * B.zero() == B.zero()


@h.given(small_polys())
def test_int_coercion(p):
    assert p + 0 == p
    assert 1 * p == p
    assert p - 3 == p - B.const(3)
    assert 2 + p == B.const(2) + p
    assert p * 2 == p + p


@h.given(small_polys(), st.integers(0, 4))
def test_pow(p, e):
    expected = B.one()
    for _ in range(e):
        expected = expected * p
    assert p**e == expected


def test_pow_negative():
    with pytest.raises(ValueError):
        B.x(1) ** -1


def test_constructors_and_inspection():
    p = B.x(1) + B.y(2) * B.beta() - 3
    assert p.coefficient(x=(1,)) == 1
    assert p.coefficient(y=(0, 1), beta=1) == 1
    assert p.constant_term() == -3
    assert p.max_x_index() == 1
    assert p.max_y_index() == 2
    assert p.num_terms() == 3
    assert not p.is_zero
    assert B.zero().is_zero
    with pytest.raises(ValueError):
        B.x(0)
    with pytest.raises(ValueError):
        B.y(-1)
    with pytest.raises(ValueError):
        B.term(1, beta=-1)


def test_grading():
    p = B.x(1) + B.beta() * B.x(1) * B.y(1)
    assert p.graded_degree() == 1
    assert (B.x(1) + B.y(1) ** 2).graded_degree() is None
    assert B.zero().graded_degree() == 0
    assert p.xy_degree_component(2) == B.beta() * B.x(1) * B.y(1)
    assert p.min_xy_degree() == 1


def test_binomial_product_frozen():
    assert (B.x(1) + B.y(1)) * (B.x(1) - B.y(1)) == B.x(1) ** 2 - B.y(1) ** 2


def _graded_slice(p):
    """Nonzero homogeneous part of p at the degree of its first term."""
    terms = p.terms()
    (xe, ye, be) = next(iter(terms))
    d = sum(xe) + sum(ye) - be
    return B(
        {m: c for m, c in terms.items() if sum(m[0]) + sum(m[1]) - m[2] == d}
    )


@h.given(small_polys(), small_polys())
def test_graded_degree_additive(p, q):
    h.assume(not p.is_zero and not q.is_zero)
    ph, qh = _graded_slice(p), _graded_slice(q)
    prod = ph * qh
    assert not prod.is_zero  # ZZ[x,y,beta] has no zero divisors
    assert prod.graded_degree() == ph.graded_degree() + qh.graded_degree()


def test_swap_x():
    p = B.x(1) ** 2 * B.x(2) + B.x(3)
    assert p.swap_x(1) == B.x(2) ** 2 * B.x(1) + B.x(3)
    assert p.swap_x(2) == B.x(1) ** 2 * B.x(3) + B.x(2)
    # involution, and symmetric input is fixed
    assert p.swap_x(1).swap_x(1) == p
    sym = B.x(1) * B.x(2) + B.x(1) + B.x(2)
    assert sym.swap_x(1) == sym


def test_y_operations():
    p = B.x(1) + B.y(1) - B.y(2) ** 2
    assert p.negate_y() == B.x(1) - B.y(1) - B.y(2) ** 2
    assert p.negate_y().negate_y() == p
    assert p.set_y_zero() == B.x(1)


def test_specialize_beta():
    p = B.one() + B.beta() * B.x(1) + B.beta() ** 2 * B.x(2)
    assert p.specialize_beta(0) == B.one()
    assert p.specialize_beta(-1) == B.one() - B.x(1) + B.x(2)
    assert p.specialize_beta(2) == B.one() + 2 * B.x(1) + 4 * B.x(2)


@h.given(small_polys())
def test_flip_beta_sign_involution(p):
    assert p.flip_beta_sign().flip_beta_sign() == p
    assert p.flip_beta_sign().specialize_beta(1) == p.specialize_beta(-1)


@h.given(small_polys(), small_polys())
def test_substitute_is_homomorphism(p, q):
    xmap = {1: B.y(1), 2: B.x(1) + B.beta(), 3: B.const(2)}
    ymap = {1: B.x(2), 2: B.zero()}
    assert (p + q).substitute(xmap, ymap) == p.substitute(xmap, ymap) + q.substitute(
        xmap, ymap
    )
    assert (p * q).substitute(xmap, ymap) == p.substitute(xmap, ymap) * q.substitute(
        xmap, ymap
    )


def test_substitute_identity_and_errors():
    p = B.x(1) * B.y(1) + B.beta()
    idm = p.substitute({1: B.x(1)}, {1: B.y(1)})
    assert idm == p
    with pytest.raises(ValueError, match="unmapped variable x1"):
        p.substitute({}, {1: B.y(1)})
    with pytest.raises(ValueError, match="unmapped variable y1"):
        p.substitute({1: B.x(1)}, {})


def test_exact_divide_frozen():
    # ((1 + beta x2) x1 - (1 + beta x1) x2) / (x1 - x2) == 1
    num = (B.one() + B.beta() * B.x(2)) * B.x(1) - (B.one() + B.beta() * B.x(1)) * B.x(2)
    assert num.exact_divide_by_difference(1) == B.one()
    # (x1^2 - x2^2) / (x1 - x2) == x1 + x2
    assert (B.x(1) ** 2 - B.x(2) ** 2).exact_divide_by_difference(1) == B.x(1) + B.x(2)


@h.given(small_polys(), st.integers(1, 3))
def test_exact_divide_roundtrip(p, i):
    prod = p * (B.x(i) - B.x(i + 1))
    if prod.is_zero:
        return
    assert prod.exact_divide_by_difference(i) == p


def test_exact_divide_rejects():
    with pytest.raises(ExactDivisionError):
        B.x(1).exact_divide_by_difference(1)
    with pytest.raises(ExactDivisionError):
        (B.x(1) + B.x(2)).exact_divide_by_difference(1)
    with pytest.raises(ValueError):
        B.x(1).exact_divide_by_difference(0)


def test_render_frozen():
    p = B.x(1) + B.y(1) + B.beta() * B.x(1) * B.y(1)
    assert render(p, "latex") == r"x_{1} + y_{1} + \beta x_{1} y_{1}"
    assert render(p) == "x1 + y1 + beta*x1*y1"
    assert render(B.zero()) == "0"
    assert render(B.one()) == "1"
    assert render(B.const(-1)) == "-1"
    assert render(-B.x(2) ** 3) == "-x2^3"
    assert render(B.const(2) - B.x(1)) == "2 - x1"
    with pytest.raises(ValueError):
        render(p, "html")


def test_canonical_order():
    p = B.y(1) + B.x(1) + B.beta() * B.x(1) * B.y(1) + B.x(2)
    entries = sorted_terms(p)
    assert [e[:3] for e in entries] == [
        ((1,), (), 0),
        ((0, 1), (), 0),
        ((), (1,), 0),
        ((1,), (1,), 1),
    ]


def _sorted_terms_by_padded_key(p):
    """The canonical order by its definition: degree, then the negated
    zero-padded x and y exponents, then the beta exponent, ascending."""
    nx, ny = p.max_x_index(), p.max_y_index()

    def key(item):
        (xe, ye, be), _ = item
        return (
            sum(xe) + sum(ye),
            tuple(-e for e in xe + (0,) * (nx - len(xe))),
            tuple(-e for e in ye + (0,) * (ny - len(ye))),
            be,
        )

    return [(xe, ye, be, c) for (xe, ye, be), c in sorted(p.terms().items(), key=key)]


@h.given(small_polys())
def test_sorted_terms_matches_padded_key(p):
    assert sorted_terms(p) == _sorted_terms_by_padded_key(p)


@h.given(small_polys())
def test_json_roundtrip(p):
    blob = json.dumps(to_json_terms(p))
    assert from_json_terms(json.loads(blob)) == p


def test_json_big_integers():
    c = 10**40 + 7
    p = B.term(c, x=(2,), beta=1)
    terms = to_json_terms(p)
    assert terms == [{"beta": 1, "x": [2], "y": [], "coeff": str(c)}]
    assert from_json_terms(terms) == p


def test_hash_disabled():
    with pytest.raises(TypeError):
        hash(B.one())
