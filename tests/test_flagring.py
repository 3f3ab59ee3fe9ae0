import itertools
import json
import math
import random

import hypothesis as h
import hypothesis.strategies as st
import pytest

from dlschubert import betapoly, clear_caches, dlclass, fgl, flagring, perm
from dlschubert.flagring import (
    FlagRingElement,
    SchubertExpansion,
    SingularTransitionError,
    _leads,
    _reduce_exps,
    is_staircase,
    normal_form,
    point_coefficient,
    schubert_class,
    schubert_expand,
    staircase_monomials,
)
from dlschubert.poly import BetaPolynomial

B = BetaPolynomial
F = FlagRingElement


def elementary_symmetric(k, n):
    acc = B.zero()
    for combo in itertools.combinations(range(1, n + 1), k):
        term = B.one()
        for i in combo:
            term = term * B.x(i)
        acc = acc + term
    return acc


def random_element(n, rng, beta_max=2, coeff=3):
    a = F.zero(n)
    for exps in staircase_monomials(n):
        for be in range(beta_max + 1):
            c = rng.randint(-coeff, coeff)
            if c:
                a = a + F(n, {(exps, be): c})
    return a


def test_staircase_monomials_count():
    for n in range(1, 7):
        mons = staircase_monomials(n)
        assert len(mons) == math.factorial(n)
        assert len(set(mons)) == len(mons)
        for m in mons:
            assert is_staircase(m)
            assert len(m) == n
    assert is_staircase((0, 1, 2))
    assert not is_staircase((1, 0, 0))
    assert not is_staircase((0, 2, 0))


def test_relations_vanish():
    # the defining ideal: every elementary symmetric polynomial maps to 0
    for n in range(2, 6):
        for k in range(1, n + 1):
            assert normal_form(elementary_symmetric(k, n), n).is_zero, (n, k)


def test_normal_form_frozen():
    assert normal_form(B.x(1), 2) == -F.x_gen(2, 2)
    assert normal_form(B.x(2) ** 2, 2).is_zero
    nf = normal_form(B.x(1) ** 2 * B.x(2), 3)
    assert nf == -(F.x_gen(3, 2) * F.x_gen(3, 3) ** 2)
    # a staircase monomial is already in normal form
    assert normal_form(B.x(2) * B.x(3) ** 2, 3) == F(3, {((0, 1, 2), 0): 1})


def test_normal_form_rejects():
    with pytest.raises(ValueError):
        normal_form(B.y(1), 2)
    with pytest.raises(ValueError):
        normal_form(B.x(3), 2)
    # a beta exponent has no bound: sums key it beside the staircase index
    big = F.from_scalar(2, {1 << 16: 1})
    assert normal_form(B.term(1, beta=1 << 16), 2) == big
    assert F.from_scalar(2, {1 << 15: 1}) * F.from_scalar(2, {1 << 15: 1}) == big


def test_element_arithmetic_at_n12(monkeypatch):
    # the 12! staircase monomials of n = 12 cannot be listed, so decoding
    # a slot must not list them; in the ring x1 = -e_1(x2..x12) and
    # x1^3 = -e_3(x2..x12), whose terms times x12^2 stay on the staircase
    listed = flagring.staircase_monomials

    def small_only(n):
        assert n < 12, "staircase_monomials(12) listed"
        return listed(n)

    monkeypatch.setattr(flagring, "staircase_monomials", small_only)
    n = 12

    def term(*indices):  # x_(k+1) for each k of indices, times beta^0
        exps = [0] * n
        for k in indices:
            exps[k] += 1
        return (tuple(exps), 0)

    assert F.x_gen(n, 1) == F(n, {term(k): -1 for k in range(1, n)})
    assert F.x_gen(n, 1) * F.x_gen(n, n) == F(n, {term(k, n - 1): -1 for k in range(1, n)})
    triples = itertools.combinations(range(1, n), 3)
    cubes = {term(a, b, c, n - 1, n - 1): -1 for a, b, c in triples}
    assert len(cubes) == 165
    assert normal_form(B.term(1, x=(3,) + (0,) * (n - 2) + (2,)), n) == F(n, cubes)


def test_normal_form_is_ring_map():
    rng = random.Random(7)
    n = 3

    def rand_poly():
        p = B.zero()
        for _ in range(5):
            xe = tuple(rng.randint(0, 2) for _ in range(n))
            p = p + B.term(rng.randint(-3, 3), x=xe, beta=rng.randint(0, 1))
        return p

    for _ in range(20):
        p, q = rand_poly(), rand_poly()
        assert normal_form(p + q, n) == normal_form(p, n) + normal_form(q, n)
        assert normal_form(p * q, n) == normal_form(p, n) * normal_form(q, n)
        # multiples of the ideal generators die
        for k in range(1, n + 1):
            assert normal_form(p * elementary_symmetric(k, n), n).is_zero
    assert normal_form(B.one(), n) == F.one(n)


def test_normal_form_idempotent():
    rng = random.Random(13)
    for n in (2, 3):
        for _ in range(10):
            a = random_element(n, rng)
            assert normal_form(a.to_polynomial(), n) == a


def test_top_degree_truncation():
    # the quotient vanishes above total degree n(n-1)/2
    n = 3
    top = F(n, {((0, 1, 2), 0): 1})
    for i in range(1, n + 1):
        assert (top * F.x_gen(n, i)).is_zero
    assert (F.x_gen(2, 2) * F.x_gen(2, 2)).is_zero


def test_multiplication_preserves_grading():
    # relations are graded, so products of graded elements stay graded
    n = 3
    a = F.x_gen(n, 1) * F.x_gen(n, 2)
    assert a.to_polynomial().graded_degree() == 2
    b = F.x_gen(n, 3) + F.beta(n) * F.x_gen(n, 3) ** 2
    assert b.to_polynomial().graded_degree() == 1
    prod = F.x_gen(n, 2) * b
    assert not prod.is_zero
    assert prod.to_polynomial().graded_degree() == 2


def staircase_elements(n, count):
    """count random elements of the ring on n generators."""
    term = st.tuples(st.sampled_from(staircase_monomials(n)), st.integers(0, 2))
    element = st.dictionaries(term, st.integers(-9, 9), max_size=5).map(
        lambda d: F(n, d)
    )
    return st.tuples(*[element] * count)


def same_ring_elements(count):
    return st.integers(1, 4).flatmap(lambda n: staircase_elements(n, count))


@h.given(same_ring_elements(3))
def test_element_ring_axioms(elements):
    p, q, r = elements
    n = p.n
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + F.zero(n) == p
    assert p * F.one(n) == p
    assert p - p == F.zero(n)
    assert p * F.zero(n) == F.zero(n)
    assert -(p - q) == q - p


@h.given(same_ring_elements(1))
def test_element_int_coercion(elements):
    (a,) = elements
    three = F.from_int(a.n, 3)
    assert 3 + a == three + a
    assert a + 3 == a + three
    assert a - 3 == a - three
    assert 3 - a == three - a
    assert a * 2 == a + a
    assert 1 * a == a
    assert (a == 3) == (a.terms() == {((0,) * a.n, 0): 3})
    assert three == 3
    assert (three + a - a) == 3


@h.given(same_ring_elements(1), st.integers(0, 4))
def test_element_pow(elements, e):
    (a,) = elements
    expected = F.one(a.n)
    for _ in range(e):
        expected = expected * a
    assert a**e == expected
    assert a**0 == F.one(a.n) == 1
    with pytest.raises(ValueError):
        a ** -1


@h.given(same_ring_elements(1), st.integers(-3, 3))
def test_element_specialize_beta_cancels(elements, value):
    (a,) = elements
    # a and its specialization agree at beta = value, so their
    # difference specializes to zero with no zero terms left behind
    diff = (a - a.specialize_beta(value)).specialize_beta(value)
    assert diff.is_zero and diff.terms() == {}
    assert a.specialize_beta(value) == a.specialize_beta(value).specialize_beta(0)
    m = staircase_monomials(a.n)[-1]
    cancel = F(a.n, {(m, 1): 2, (m, 0): -4})
    assert cancel.specialize_beta(2).terms() == {}


def test_ring_size_mismatch():
    with pytest.raises(ValueError):
        F.one(2) + F.one(3)
    with pytest.raises(ValueError):
        F.one(2) - F.one(3)
    with pytest.raises(ValueError):
        F.x_gen(3, 1) * F.x_gen(2, 1)
    assert F.one(2) != F.one(3)
    assert not F.zero(2) == F.zero(3)
    with pytest.raises(ValueError):
        F.x_gen(2, 3)


def test_element_accessors():
    a = F.x_gen(2, 2) + 2 * F.beta(2) - 5
    assert a.coefficient((0, 1)) == 1
    assert a.coefficient((0, 0), 1) == 2
    assert a.constant_scalar() == {0: -5, 1: 2}
    assert a.beta_component(1) == 2 * F.beta(2)
    assert a.max_x_degree() == 1
    assert a.specialize_beta(3) == F.x_gen(2, 2) + 1
    assert (a - a).is_zero
    assert F.from_scalar(2, {0: -5, 1: 2}) == 2 * F.beta(2) - 5
    assert a.to_polynomial() == B.x(2) + 2 * B.beta() - 5


def test_render_frozen():
    assert F.x_gen(2, 1).render() == "-x2"
    assert F.zero(3).render() == "0"
    assert (F.one(2) + F.beta(2)).render() == "1 + beta"


def test_schubert_class_frozen():
    assert schubert_class((1, 2), 2) == F.one(2)
    assert schubert_class((2, 1), 2) == -F.x_gen(2, 2)
    # the longest element gives the point class x1^(n-1) x2^(n-2) ...
    for n in range(1, 7):
        expt = tuple(range(n - 1, -1, -1))
        point = normal_form(
            B.term(1, x=expt), n
        )
        assert schubert_class(perm.longest_element(n), n) == point


def _free_route(w, n):
    """Schubert class by reducing the free double beta polynomial."""
    h = betapoly.double_beta_polynomial(w, n)
    return normal_form(h.flip_beta_sign().set_y_zero(), n)


def test_schubert_class_matches_free_route():
    for n in range(2, 6):
        for w in perm.all_permutations(n):
            assert schubert_class(w, n) == _free_route(w, n), w
    for w, n in (((2, 1), 4), ((1, 3, 2), 5), ((2, 3, 1), 4)):
        assert schubert_class(w, n) == _free_route(w, n), (w, n)
        assert schubert_class(w, n) == schubert_class(perm.embed(w, n), n)


def _divided_difference_route(w, n, memo):
    """Schubert class by the route through the free ring: the class of
    w.s_i as a polynomial, beta-sign-flipped divided difference phi_i,
    normal form; memoized in memo."""
    if w not in memo:
        if w == perm.longest_element(n):
            memo[w] = normal_form(B.term(1, x=range(n - 1, -1, -1)), n)
        else:
            i = perm.right_ascents(w)[0]
            above = _divided_difference_route(perm.times_s(w, i), n, memo)
            rep = above.to_polynomial().flip_beta_sign()
            memo[w] = normal_form(betapoly.divided_difference(i, rep).flip_beta_sign(), n)
    return memo[w]


def test_schubert_class_matches_divided_difference_route():
    memo = {}
    for w in perm.all_permutations(6):
        assert schubert_class(w, 6) == _divided_difference_route(w, 6, memo), w


def _reduce_reference(n, exps, memo):
    """Rewriting loop that memoizes only the monomials it is called on
    (in memo); kept as an independent check of _reduce_exps."""
    got = memo.get(exps)
    if got is not None:
        return got
    out = {}
    pending = {exps: 1}
    while pending:
        m, c = pending.popitem()
        hit = memo.get(m)
        if hit is not None:
            for sm, sc in hit.items():
                nc = out.get(sm, 0) + c * sc
                if nc:
                    out[sm] = nc
                else:
                    out.pop(sm, None)
            continue
        viol = next((k for k, e in enumerate(m) if e > k), None)
        if viol is None:
            nc = out.get(m, 0) + c
            if nc:
                out[m] = nc
            else:
                out.pop(m, None)
            continue
        v = viol + 1
        # x_v^v = -(h_v(x_v, .., x_n) - x_v^v): one child per other
        # degree-v monomial in x_v, .., x_n
        for ks in itertools.combinations_with_replacement(range(viol, n), v):
            if ks == (viol,) * v:
                continue
            child = list(m)
            child[viol] -= v
            for k in ks:
                child[k] += 1
            nm = tuple(child)
            nc = pending.get(nm, 0) - c
            if nc:
                pending[nm] = nc
            else:
                pending.pop(nm, None)
    memo[exps] = out
    return out


def _reduced(n, exps):
    """_reduce_exps(n, exps), a tuple of distinct nonzero slots at beta
    exponent 0, decoded as {staircase exps: coeff}."""
    reduced = _reduce_exps(n, exps)
    assert isinstance(reduced, tuple) and len(dict(reduced)) == len(reduced)
    terms = F.from_slots(n, dict(reduced))._terms
    assert len(terms) == len(reduced) and all(be == 0 for _, be in terms)
    return {m: c for (m, _), c in terms.items()}


def test_reduce_matches_reference_rewriting():
    clear_caches()  # start _reduce_exps from an empty memo
    for n in range(1, 5):
        top = n * (n - 1) // 2
        memo = {}
        # a rewrite step lowers the exponent tuple lexicographically, so in
        # ascending order the reference finds every rewritten monomial memoized
        for m in itertools.product(range(top + 3), repeat=n):
            if sum(m) <= top + 2:
                assert _reduced(n, m) == _reduce_reference(n, m, memo), m
    # above the top degree n(n-1)/2 every monomial vanishes at once
    assert _reduce_exps(5, (7, 0, 0, 0, 0)) == ()
    assert _reduce_exps(4, (8, 0, 0, 0)) == ()


def test_code_width_follows_n():
    # exponents reach the top degree n(n-1)/2, 36 at n = 9 and 66 at
    # n = 12, which no fixed 5-bit or 6-bit field of a code holds: reduce
    # every x_(n-1)^a x_n^b up to that degree, in ascending order, so
    # that the reference finds every rewritten monomial memoized
    for n in (9, 12):
        top, memo = n * (n - 1) // 2, {}
        for a, b in itertools.product(range(top + 1), repeat=2):
            if a + b <= top:
                m = (0,) * (n - 2) + (a, b)
                assert _reduced(n, m) == _reduce_reference(n, m, memo), m


def test_top_degree_monomials_are_signed_points():
    # Bernstein-Gelfand-Gelfand: in the top degree n(n-1)/2, x^e with
    # every e_i < n is sign(e) x_2 x_3^2 .. x_n^(n-1) if e is a
    # permutation of 0..n-1, and 0 otherwise
    for n in range(1, 7):
        top = n * (n - 1) // 2
        staircase = tuple(range(n))
        for e in itertools.product(range(n), repeat=n):
            if sum(e) != top:
                continue
            if len(set(e)) < n:
                assert _reduced(n, e) == {}, e
            else:
                sign = (-1) ** perm.length(tuple(i + 1 for i in e))
                assert _reduced(n, e) == {staircase: sign}, e


def test_clear_caches():
    u, v = (2, 1, 3), (1, 3, 2)
    product = schubert_expand(schubert_class(u, 3) * schubert_class(v, 3))
    family = betapoly.double_beta_polynomial((2, 3, 1), 3)
    cauchy = betapoly.cauchy_polynomial((2, 3, 1), 3)
    series = fgl.n_times_series(5, 3), fgl.inverse_series(3)
    element = dlclass._ck_element((2, 1, 3), 3, 5)
    cls = schubert_class((1, 2, 3), 3)
    assert dlclass._IMAGES and dlclass._pair_form.cache_info().currsize
    assert dlclass._slots(3)
    assert flagring._phi_row.cache_info().currsize
    assert betapoly._SINGLE
    assert flagring._BASIS and flagring._indices(3) and flagring._keys(3)
    clear_caches()
    assert not flagring._REDUCE_MEMO
    assert not flagring._BASIS
    assert not betapoly._FAMILY
    assert not betapoly._SINGLE
    assert not dlclass._IMAGES
    for cached in (
        schubert_class,
        _leads,
        flagring._staircase,
        flagring._indices,
        flagring._degrees,
        flagring._keys,
        flagring._coding,
        flagring._h_offsets,
        flagring._phi_row,
        flagring._class_row,
        fgl.n_times_series,
        fgl.inverse_series,
        dlclass._slots,
        dlclass._layouts,
        dlclass._pair_form,
        dlclass._fold,
    ):
        assert cached.cache_info().currsize == 0
    assert (fgl.n_times_series(5, 3), fgl.inverse_series(3)) == series
    assert schubert_class((1, 2, 3), 3) == cls
    again = schubert_expand(schubert_class(u, 3) * schubert_class(v, 3))
    assert again.coefficients == product.coefficients
    assert betapoly.double_beta_polynomial((2, 3, 1), 3) == family == cauchy
    assert dlclass._ck_element((2, 1, 3), 3, 5) == element


def test_schubert_classes_have_unit_leading_term():
    # beta-degree-0 part of a class is the single Schubert polynomial
    from dlschubert.betapoly import pipe_dream_oracle

    for n in (2, 3):
        for w in perm.all_permutations(n):
            cls = schubert_class(w, n)
            assert cls.beta_component(0) == normal_form(pipe_dream_oracle(w), n)


def test_transition_block_sizes():
    leads = _leads(4)
    sizes = [sum(1 for m, _, _ in leads if sum(m) == l) for l in range(7)]
    assert sizes == [1, 3, 5, 6, 5, 3, 1]
    for m, w, sign in leads:
        assert sum(m) == perm.length(w) and sign in (1, -1)
        assert schubert_class(w, 4).coefficient(m) == sign


def test_leads_refuse_a_basis_without_unit_leads(monkeypatch):
    real = flagring._class_row

    def scaled(w, n):
        row = real(w, n)
        return tuple(2 * v if k % 2 else v for k, v in enumerate(row)) if w == (1, 3, 2) else row

    def shared(w, n):
        # (2, 1, 3) and (1, 3, 2) both have length 1; give the second
        # the class of the first
        return real((2, 1, 3) if w == (1, 3, 2) else w, n)

    for fake in (scaled, shared):
        # the real rows recurse through the fake, so none may be kept
        real.cache_clear()
        _leads.cache_clear()
        monkeypatch.setattr(flagring, "_class_row", fake)
        try:
            with pytest.raises(SingularTransitionError):
                _leads(3)
        finally:
            monkeypatch.undo()
            real.cache_clear()
            _leads.cache_clear()
    assert len(_leads(3)) == 6


def test_expand_rejects_terms_off_the_staircase():
    with pytest.raises(SingularTransitionError):
        schubert_expand(FlagRingElement(3, {((0, 0, 3), 0): 1}))


def test_expansion_order_is_length_then_permutation():
    for w in perm.all_permutations(4):
        coeffs = list(dlclass.dl_class_ck(w, 4, 3).expansion.coefficients)
        assert coeffs == sorted(coeffs, key=lambda v: (perm.length(v), v)), w


def test_s6_basis_smoke():
    leads = _leads(6)
    assert len(leads) == math.factorial(6)
    sizes = [sum(1 for m, _, _ in leads if sum(m) == l) for l in range(16)]
    assert max(sizes) == 101
    for w in perm.all_permutations(6):
        assert schubert_expand(schubert_class(w, 6)).coefficients == {w: {0: 1}}, w


def test_leads_are_the_inversion_codes():
    # the lead of w is x^c with c_k = #{j < k : w_j > w_k}, with sign
    # (-1)^length(w); the S_6 basis is the one test_s6_basis_smoke builds
    for n in range(1, 7):
        expected = set()
        for w in perm.all_permutations(n):
            code = tuple(sum(w[j] > w[k] for j in range(k)) for k in range(n))
            expected.add((code, w, (-1) ** perm.length(w)))
        assert set(_leads(n)) == expected, n


def test_basis_rows_are_index_pairs_with_a_beta0_prefix():
    # a class is homogeneous of degree length(w), so its row at beta = 1
    # is (index, coeff) pairs, and its beta^0 part, the prefix that an
    # expansion at beta = 0 reads, is exactly its terms of that degree
    for n in range(1, 6):
        _leads(n)
        leads, rows = flagring._BASIS[n]
        degrees = flagring._degrees(n)
        assert len(rows) == math.factorial(n)
        for lead, (_, w, sign, row, cut) in zip(leads, rows):
            assert all(isinstance(v, int) for v in row) and len(row) % 2 == 0 and cut % 2 == 0
            pairs = dict(zip(row[::2], row[1::2]))
            assert len(pairs) == len(row) // 2 and all(pairs.values())
            cls = schubert_class(w, n)._terms
            assert pairs == {flagring._indices(n)[m]: c for (m, _), c in cls.items()}, w
            low = set(row[:cut:2])
            assert low == {j for j in pairs if degrees[j] == perm.length(w)}, w
            assert all(degrees[j] > perm.length(w) for j in row[cut::2]), w
            assert lead == max(low) and pairs[lead] == sign, w


def tuple_keyed_expand(a, beta=None):
    """The expansion as it was computed on tuple keys, before the
    Schubert classes were kept as integer rows: the oracle of the slot
    expansion."""
    n = a.n
    residual = {}
    for (m, be), c in a._terms.items():
        if beta is not None:
            if be and not beta:
                continue
            be = 0
        row = residual.setdefault(m, {})
        row[be] = row.get(be, 0) + c
    found = []
    for lead, w, sign in _leads(n):
        scalar = {be: sign * c for be, c in residual.get(lead, {}).items() if c}
        if not scalar:
            continue
        found.append((sum(lead), w, scalar))
        for (m, bs), cs in schubert_class(w, n)._terms.items():
            if beta is not None:
                if bs and not beta:
                    continue
                bs = 0
            row = residual.setdefault(m, {})
            for be, v in scalar.items():
                row[be + bs] = row.get(be + bs, 0) - v * cs
    if any(c for row in residual.values() for c in row.values()):
        raise SingularTransitionError("expansion left a nonzero residual")
    found.sort(key=lambda f: f[:2])
    return SchubertExpansion(n, {w: scalar for _, w, scalar in found})


def same_expansion(got, want):
    """Equal coordinates, listed in the same order."""
    return got == want and list(got.coefficients) == list(want.coefficients)


def test_slot_expansion_matches_tuple_keyed_oracle_on_classes():
    for n in range(1, 6):
        for q in (2, 3):
            for theory, beta in dlclass.BETA.items():
                for w in perm.all_permutations(n):
                    result = dlclass.dl_class(dlclass.DLQuery(w, n, q, theory))
                    want = tuple_keyed_expand(result.element, beta)
                    assert same_expansion(result.expansion, want), (w, q, theory)
                    assert same_expansion(schubert_expand(result.element, beta), want)


def test_slot_expansion_matches_tuple_keyed_oracle_at_n6():
    rng = random.Random(6)
    for w in rng.sample(sorted(perm.all_permutations(6)), 6):
        result = dlclass.dl_class_ck(w, 6, 2)
        assert same_expansion(result.expansion, tuple_keyed_expand(result.element)), w


def test_slot_expansion_matches_tuple_keyed_oracle_on_combinations():
    # random Z[beta] combinations of classes plus stray staircase terms:
    # neither homogeneous nor one beta power per coordinate
    rng = random.Random(28)
    for n in (2, 3, 4):
        ws = sorted(perm.all_permutations(n))
        for _ in range(25):
            a = F.zero(n)
            for w in rng.sample(ws, min(len(ws), 5)):
                scalar = {be: rng.randint(-4, 4) for be in rng.sample(range(4), 2)}
                a = a + F.from_scalar(n, scalar) * schubert_class(w, n)
            a = a + random_element(n, rng, beta_max=3, coeff=1)
            index = flagring._indices(n)
            for beta in (None, 0, 1):
                want = tuple_keyed_expand(a, beta)
                assert same_expansion(schubert_expand(a, beta), want), (a, beta)
                if beta is None:
                    continue
                terms = a.specialize_beta(beta)._terms
                assert all(be == 0 for _, be in terms)
                slots = {index[m]: c for (m, _), c in terms.items()}
                got = flagring.schubert_expand_slots(n, slots, beta)
                assert same_expansion(got, want), (a, beta)


def test_expand_schubert_classes_are_unit_vectors():
    for n in (2, 3, 4):
        for w in perm.all_permutations(n):
            exp = schubert_expand(schubert_class(w, n))
            assert exp.coefficients == {w: {0: 1}}, w


def test_expand_frozen_n2():
    exp = schubert_expand(normal_form(3 * B.x(1), 2))
    assert exp.coefficients == {(2, 1): {0: 3}}
    assert schubert_expand(F.zero(2)).coefficients == {}
    assert schubert_expand(F.one(2)).coefficients == {(1, 2): {0: 1}}


def test_expand_reconstruct_roundtrip():
    rng = random.Random(20240812)
    for n in (2, 3):
        for _ in range(15):
            a = random_element(n, rng)
            exp = schubert_expand(a)
            assert exp.n == n
            assert exp.reconstruct() == a


def test_expand_linear():
    rng = random.Random(5)
    n = 3
    a, b = random_element(n, rng), random_element(n, rng)
    ea = schubert_expand(a).coefficients
    eb = schubert_expand(b).coefficients
    esum = schubert_expand(a + b).coefficients
    for w in set(ea) | set(eb) | set(esum):
        for be in range(6):
            assert esum.get(w, {}).get(be, 0) == ea.get(w, {}).get(be, 0) + eb.get(
                w, {}
            ).get(be, 0)


def test_graded_elements_have_single_beta_power_coefficients():
    n = 3
    for u in perm.all_permutations(n):
        for v in perm.all_permutations(n):
            prod = schubert_class(u, n) * schubert_class(v, n)
            d = perm.length(u) + perm.length(v)
            for w, scalar in schubert_expand(prod).coefficients.items():
                assert list(scalar) == [perm.length(w) - d], (u, v, w)


def _monk_covers(w, k):
    n = len(w)
    out = set()
    for a in range(1, k + 1):
        for b in range(k + 1, n + 1):
            t = list(perm.identity(n))
            t[a - 1], t[b - 1] = b, a
            wt = perm.compose(w, tuple(t))
            if perm.length(wt) == perm.length(w) + 1:
                out.add(wt)
    return out


def test_monk_rule_chow():
    # degree-one structure constants at beta = 0: multiplying by the
    # class of s_k picks out covers w t_ab with a <= k < b
    n = 3
    for k in range(1, n):
        sk = perm.times_s(perm.identity(n), k)
        for w in perm.all_permutations(n):
            prod = schubert_class(sk, n) * schubert_class(w, n)
            got = schubert_expand(prod).specialize_beta(0).coefficients
            expected = {wt: {0: 1} for wt in _monk_covers(w, k)}
            assert got == expected, (k, w)


def test_product_two_routes_agree():
    # quotient-ring multiplication versus free multiplication followed
    # by reduction
    n = 3
    for k in range(1, n):
        sk = perm.times_s(perm.identity(n), k)
        for w in perm.all_permutations(n):
            a, b = schubert_class(sk, n), schubert_class(w, n)
            via_ring = schubert_expand(a * b)
            via_poly = schubert_expand(
                normal_form(a.to_polynomial() * b.to_polynomial(), n)
            )
            assert via_ring.coefficients == via_poly.coefficients, (k, w)


def test_point_coefficient():
    for n in (2, 3):
        w0 = perm.longest_element(n)
        assert point_coefficient(schubert_class(w0, n)) == {0: 1}
        assert point_coefficient(F.one(n)) == {}
        assert point_coefficient(F.zero(n)) == {}


def test_element_json_roundtrip():
    rng = random.Random(99)
    for n in (2, 3):
        for _ in range(10):
            a = random_element(n, rng)
            blob = json.dumps(a.to_json())
            back = F.from_json(json.loads(blob))
            assert back == a
    data = F.x_gen(2, 2).to_json()
    assert data["basis"] == "staircase"
    assert data["n"] == 2
    assert data["terms"] == [{"beta": 0, "x": [0, 1], "coeff": "1"}]
    with pytest.raises(ValueError):
        F.from_json({"n": 2, "basis": "schubert", "terms": []})


def test_element_json_refuses_non_staircase_terms():
    # x1 at n = 2 is not a staircase monomial (x1 = -x2 in the ring)
    for term in (
        {"beta": 0, "x": [0, 1, 0], "coeff": "1"},  # more than n exponents
        {"beta": 0, "x": [0, -1], "coeff": "1"},
        {"beta": 0, "x": [1], "coeff": "1"},
        {"beta": -1, "x": [0, 1], "coeff": "1"},
    ):
        with pytest.raises(ValueError, match="term"):
            F.from_json({"n": 2, "terms": [term]})


def test_expansion_json_roundtrip_and_render():
    rng = random.Random(3)
    a = random_element(3, rng)
    exp = schubert_expand(a)
    back = SchubertExpansion.from_json(json.loads(json.dumps(exp.to_json())))
    assert back.n == exp.n
    assert back.coefficients == exp.coefficients
    simple = SchubertExpansion(2, {(2, 1): {0: 3, 1: -1}})
    assert simple.render() == "[2,1]: 3 - beta"
    assert simple.to_json()["terms"] == [
        {"w": "[2,1]", "coeff": [{"beta": 0, "value": "3"}, {"beta": 1, "value": "-1"}]}
    ]


def test_expansion_specialize_beta():
    exp = SchubertExpansion(2, {(2, 1): {0: 2, 1: -2}, (1, 2): {1: 1}})
    assert exp.specialize_beta(1).coefficients == {(1, 2): {0: 1}}
    assert exp.specialize_beta(0).coefficients == {(2, 1): {0: 2}}
