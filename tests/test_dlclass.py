import gc
import json
import random
import warnings
import weakref
from math import comb, isqrt

import pytest

from dlschubert import betapoly, clear_caches, dlclass, fgl, perm, poly
from dlschubert.dlclass import (
    CONVENTIONS,
    DLQuery,
    NonPrimePowerWarning,
    _ck_element,
    chow_class_direct,
    dl_class,
    dl_class_ch,
    dl_class_ck,
    dl_class_k0,
    flag_count_oracle,
    is_prime_power,
    k0_class_direct,
    kim_convention,
    kim_transform,
)
from dlschubert.flagring import (
    FlagRingElement,
    _leads,
    normal_form,
    point_coefficient,
    schubert_class,
    schubert_expand,
    staircase_monomials,
)

F = FlagRingElement


def test_is_prime_power():
    yes = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 32, 81, 128, 10**9 + 7, 999983**2]
    yes += [2**61 - 1, (2**31 - 1) ** 2, 1000003**3]
    # above psi_13 = dlclass._MR_EXACT: decided by Baillie-PSW, each at once
    yes += [2**127 - 1, (2**127 - 1) ** 2]
    no = [0, 1, 6, 10, 12, 14, 15, 18, 20, 100, 999983 * 999979, 10**9]
    no += [(2**31 - 1) * (2**31 + 11), (2**127 - 1) * (2**89 - 1)]
    assert all(is_prime_power(q) for q in yes)
    assert not any(is_prime_power(q) for q in no)


def test_strong_lucas_test():
    # odd non-squares below 20,000: the test passes the primes and, of the
    # composites, exactly the strong Lucas pseudoprimes (OEIS A217255)
    pseudoprimes = {5459, 5777, 10877, 16109, 18971}
    for r in range(3, 20000, 2):
        if isqrt(r) ** 2 != r:
            prime = all(r % d for d in range(3, isqrt(r) + 1, 2))
            assert dlclass._strong_lucas(r) == (prime or r in pseudoprimes), r


def test_query_validation():
    DLQuery((2, 1), 2, 4).validate()
    with pytest.raises(ValueError):
        DLQuery((2, 2), 2, 3).validate()
    with pytest.raises(ValueError):
        DLQuery((2, 1), 3, 3).validate()
    with pytest.raises(ValueError):
        DLQuery((2, 1), 2, 3, "chow").validate()
    with pytest.raises(ValueError):
        DLQuery((2, 1), 2, 1).validate()
    with pytest.raises(ValueError):
        DLQuery((2, 1), 2, "3").validate()


def test_non_prime_power_warns_or_raises():
    with pytest.warns(NonPrimePowerWarning):
        DLQuery((2, 1), 2, 6).validate()
    with pytest.raises(ValueError):
        DLQuery((2, 1), 2, 6).validate(strict=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for q in (4, 8, 9):
            DLQuery((2, 1), 2, q).validate(strict=True)


def test_frozen_n2_identity():
    # the identity's variety is the finite set of rational flags:
    # q + 1 points on the projective line
    for q in (2, 3, 5):
        res = dl_class_ck((1, 2), 2, q)
        assert res.element == -(q + 1) * F.x_gen(2, 2)
        assert res.expansion.coefficients == {(2, 1): {0: q + 1}}
        ch = dl_class_ch((1, 2), 2, q)
        assert ch.element == res.element.specialize_beta(0)
        assert point_coefficient(ch.element) == {0: q + 1}


def test_frozen_n2_identity_k0():
    # in the n=2 ring every beta correction dies, so K0 looks like CH
    for q in (2, 3):
        res = dl_class_k0((1, 2), 2, q)
        assert res.element == -(q + 1) * F.x_gen(2, 2)
        assert res.expansion.coefficients == {(2, 1): {0: q + 1}}


def test_frozen_n2_longest():
    # X(w0) is dense, so its closure carries the fundamental class
    for q in (2, 4):
        res = dl_class_ck((2, 1), 2, q)
        assert res.element == F.one(2)
        assert res.expansion.coefficients == {(1, 2): {0: 1}}


def test_ck_element_is_graded():
    for q in (2, 3):
        for w in perm.all_permutations(3):
            res = dl_class_ck(w, 3, q)
            codim = perm.length(perm.compose(w, perm.longest_element(3)))
            assert res.element.to_polynomial().graded_degree() == codim, w
            for v, scalar in res.expansion.coefficients.items():
                assert list(scalar) == [perm.length(v) - codim], (w, v)


def test_ch_route_coherence():
    # pipeline (beta = 0 specialization) against the direct double
    # Schubert substitution
    for q in (2, 3):
        for w in perm.all_permutations(3):
            res = dl_class_ch(w, 3, q)
            direct = chow_class_direct(w, 3, q)
            assert res.element == direct, w
            assert res.expansion.reconstruct().specialize_beta(0) == direct


def test_k0_route_coherence():
    # pipeline (beta = 1 specialization) against the direct double
    # Grothendieck substitution
    for q in (2, 3):
        for w in perm.all_permutations(3):
            res = dl_class_k0(w, 3, q)
            direct = k0_class_direct(w, 3, q)
            assert res.element == direct, w
            assert res.expansion.reconstruct().specialize_beta(1) == direct


def test_theory_specializations_agree_with_ck():
    q = 3
    for w in perm.all_permutations(3):
        ck = dl_class_ck(w, 3, q)
        assert dl_class_ch(w, 3, q).element == ck.element.specialize_beta(0)
        assert dl_class_k0(w, 3, q).element == ck.element.specialize_beta(1)


def test_ch_and_k0_at_their_beta_match_ck_specialized_afterwards():
    # CH and K0 work at their own beta; the reference is the CK element
    # and the CK expansion, each specialized afterwards
    for n in (2, 3, 4, 5):
        for q in (2, 3, 9):
            for w in perm.all_permutations(n):
                ck = _ck_element(w, n, q)
                expansion = schubert_expand(ck)
                for theory, b in (("CH", 0), ("K0", 1)):
                    res = dl_class(DLQuery(w, n, q, theory))
                    assert res.element == ck.specialize_beta(b), (w, q, theory)
                    want = expansion.specialize_beta(b).coefficients
                    assert res.expansion.coefficients == want, (w, q, theory)
                    assert list(res.expansion.coefficients) == list(want), (w, q, theory)
                    assert schubert_expand(ck, b).coefficients == want, (w, q, theory)
    with pytest.raises(ValueError):
        schubert_expand(F.one(2), 2)


def test_ch_route_coherence_s4():
    for q in (2, 3, 5):
        for w in perm.all_permutations(4):
            res = dl_class_ch(w, 4, q)
            direct = chow_class_direct(w, 4, q)
            assert res.element == direct, (w, q)
            assert res.expansion.reconstruct().specialize_beta(0) == direct, (w, q)


def test_k0_route_coherence_s4():
    for q in (2, 3):
        for w in perm.all_permutations(4):
            res = dl_class_k0(w, 4, q)
            direct = k0_class_direct(w, 4, q)
            assert res.element == direct, (w, q)
            assert res.expansion.reconstruct().specialize_beta(1) == direct, (w, q)


def test_ch_classes_build_no_image():
    # the Chow class, and the identity's class in every theory, is the
    # fold of the beta^0 chain: it reads neither the images nor the pair
    # forms, and builds no full family member
    clear_caches()
    for q in (2, 3):
        for w in perm.all_permutations(4):
            dl_class_ch(w, 4, q)
    dl_class_ck(perm.identity(4), 4, 2)
    dl_class_k0(perm.identity(4), 4, 2)
    assert not dlclass._IMAGES
    assert dlclass._pair_form.cache_info().currsize == 0
    assert not betapoly._FAMILY


def test_images_and_pair_forms_hold_no_beta_exponent():
    # a CK class is its K0 sum lifted by degree, so the images and pair
    # forms both theories read are taken at beta = 1: an image holds
    # (staircase index, coeff) pairs, each index below 4!, and a pair
    # form holds (code, coeff) pairs
    clear_caches()
    for theory in ("CK", "K0"):
        for w in perm.all_permutations(4):
            dl_class(DLQuery(w, 4, 3, theory))
    images = dlclass._IMAGES[(4, 3)]
    assert len(images) > 1 and all(len(image) % 2 == 0 for image in images.values())
    assert all(0 <= i < 24 for image in images.values() for i in image[::2])
    forms = [dlclass._pair_form(tuple(w)[::-1], 4) for w in perm.all_permutations(4)]
    assert any(forms) and all(len(form) % 2 == 0 for form in forms)


def test_flag_count_oracle_frozen():
    expected = {
        (2, 2): 3,
        (2, 3): 4,
        (2, 5): 6,
        (3, 2): 21,
        (3, 3): 52,
        (3, 5): 186,
        (4, 2): 315,
    }
    for (n, q), count in expected.items():
        assert flag_count_oracle(n, q) == count, (n, q)
    with pytest.raises(ValueError):
        flag_count_oracle(0, 2)
    with pytest.raises(ValueError):
        flag_count_oracle(2, 1)


def test_flag_count_oracle_group_order_crosscheck():
    # |GL_n(F_q)| / |Borel| computed from the group orders directly
    for n in (2, 3, 4, 5):
        for q in (2, 3, 4, 5, 7):
            gl = 1
            for i in range(n):
                gl *= q**n - q**i
            borel = (q - 1) ** n * q ** (n * (n - 1) // 2)
            assert flag_count_oracle(n, q) == gl // borel, (n, q)


def test_identity_point_count_matches_oracle():
    # X(1) is the finite set of rational flags: the whole class is that
    # many points, with no lower term, in every theory
    for n in (1, 2, 3, 4, 5):
        w0 = perm.longest_element(n)
        for q in (2, 3, 4, 5, 7, 9, 16):
            whole = {w0: {0: flag_count_oracle(n, q)}}
            for theory in ("CK", "CH", "K0"):
                res = dl_class(DLQuery(perm.identity(n), n, q, theory))
                assert res.expansion.coefficients == whole, (n, q, theory)
                assert point_coefficient(res.element) == whole[w0], (n, q, theory)


def test_identity_point_count_at_large_prime():
    q = 10**9 + 7
    ch = dl_class_ch(perm.identity(3), 3, q)
    assert point_coefficient(ch.element) == {0: flag_count_oracle(3, q)}


def test_identity_pair_form_is_the_flag_count():
    # the member of w0 has no term below the top degree, and its point
    # part, the fold at beta exponent 0, is the point monomial's
    # coefficient of the identity class as a polynomial in q:
    # (-1)^(n(n-1)/2) times the q-factorial
    for n in (1, 2, 3, 4, 5):
        count = [1]  # coefficients of prod_{i=1..n} (1 + q + .. + q^(i-1))
        for i in range(2, n + 1):
            count = [sum(count[max(0, j - i + 1) : j + 1]) for j in range(len(count) + i - 1)]
        sign = (-1) ** (n * (n - 1) // 2)
        w0 = perm.longest_element(n)
        point = len(staircase_monomials(n)) - 1
        assert dlclass._pair_form(w0, n) == (), n
        assert dlclass._fold(w0, n, 0) == ((point, tuple(sign * c for c in count)),), n


def test_divisor_k0_class_is_one_minus_line_bundle():
    # X(w0.s_i) is a divisor D: its Chow class is linear, sum a_j x_j,
    # and its K0 class is [O_D] = 1 - [O(-D)] = 1 - prod_j (1 - x_j)^(a_j),
    # each 1 - x_j = [dual M_j] a unit with inverse sum_k x_j^k
    for n in (2, 3, 4, 5):
        w0 = perm.longest_element(n)
        for i in range(1, n):
            w = perm.times_s(w0, i)
            for q in (2, 3, 4, 5):
                ch = dl_class_ch(w, n, q).element
                k0 = dl_class_k0(w, n, q).element
                line = F.one(n)
                for (m, be), a in ch.terms().items():
                    assert be == 0 and sum(m) == 1, (w, q, m)
                    x = F.x_gen(n, m.index(1) + 1)
                    unit = F.one(n) - x if a > 0 else sum((x**k for k in range(1, n)), F.one(n))
                    line = line * unit ** abs(a)
                assert k0 == F.one(n) - line, (w, q)


def _k0_euler_characteristic(w, n, q):
    # chi(O_X) = 1 on every Schubert variety, so chi of a class is the sum
    # of its K0 expansion coefficients
    coeffs = dl_class_k0(w, n, q).expansion.coefficients
    return sum(c for scalar in coeffs.values() for c in scalar.values())


def test_coxeter_classes_have_euler_characteristic_one():
    for n in (2, 3, 4, 5):
        c = perm.word_to_permutation(range(1, n), n)  # s_1 s_2 .. s_(n-1)
        for w in (c, perm.inverse(c)):
            for q in (2, 3, 4, 5, 7):
                assert _k0_euler_characteristic(w, n, q) == 1, (w, q)


def test_euler_characteristic_of_w0_s2():
    # X(w0.s_2) at n = 4 is a divisor with chi = 1 - C(q+2, 5) + C(q, 5),
    # which is 1 - chi(O_Q(q-3)) on the Pluecker quadric Q
    w = perm.times_s(perm.longest_element(4), 2)
    assert w == (4, 2, 3, 1)
    chis = []
    for q in range(2, 9):
        if q == 6:
            with pytest.warns(NonPrimePowerWarning):
                chis.append(_k0_euler_characteristic(w, 4, q))
        else:
            chis.append(_k0_euler_characteristic(w, 4, q))
        assert chis[-1] == 1 - comb(q + 2, 5) + comb(q, 5), q
    assert chis == [1, 0, -5, -19, -49, -104, -195]


def _ck_element_by_substitution(w, n, q):
    """Reference route: generic substitution of the q-fold sum and the
    formal inverse, built in the quotient ring, into the whole
    beta-sign-flipped double beta-polynomial of w.w0."""
    v = perm.compose(w, perm.longest_element(n))
    p = betapoly.double_beta_polynomial(v, n).flip_beta_sign()
    xmap = {i: fgl.n_times(q, F.x_gen(n, i)) for i in range(1, n + 1)}
    ymap = {j: fgl.fgl_inverse(F.x_gen(n, n + 1 - j)) for j in range(1, n + 1)}
    return p.substitute(xmap, ymap)


def test_ck_element_matches_substitution():
    for n in (2, 3, 4):
        for q in (2, 3, 4, 5, 7, 16, 1031):
            for w in perm.all_permutations(n):
                expected = _ck_element_by_substitution(w, n, q)
                assert _ck_element(w, n, q) == expected, (w, q)


def test_ck_element_matches_substitution_s5():
    # q = 2 < n - 1 cuts the q-fold sum below t^(n-1)
    cases = [(perm.identity(5), 2), (perm.identity(5), 9)]
    rng = random.Random(3)
    for w in rng.sample(sorted(perm.all_permutations(5)), 2):
        cases.append((w, rng.choice((3, 4, 5, 7))))
    for w, q in cases:
        assert _ck_element(w, 5, q) == _ck_element_by_substitution(w, 5, q), (w, q)


def _pair_table(n, q, a, b):
    """([q]t)^a * inverse(t)^b mod t^n as {(d, beta exponent): coeff},
    multiplied out one factor at a time."""
    table = {(0, 0): 1}
    for factor in [fgl.n_times_series(q, n)] * a + [fgl.inverse_series(n)] * b:
        product = {}
        for (d, tb), tc in table.items():
            for fd, fb, fc in factor:
                if d + fd < n:
                    key = (d + fd, tb + fb)
                    product[key] = product.get(key, 0) + tc * fc
        table = product
    return table


def _ck_element_by_tables(w, n, q):
    """Reference route: every term of the beta-sign-flipped member of
    w.w0 expanded over its n pair tables, the free monomials summed, and
    the sum reduced by one normal form per class."""
    v = perm.compose(w, perm.longest_element(n))
    top = n * (n - 1) // 2
    free = {}
    for (xe, ye, be), c in betapoly.double_beta_polynomial(v, n).terms().items():
        c = -c if be % 2 else c
        xe = xe + (0,) * (n - len(xe))
        ye = ye + (0,) * (n - len(ye))
        partial = [((), be, c)]
        for i in range(n):
            table = _pair_table(n, q, xe[i], ye[n - 1 - i])
            partial = [
                (exps + (d,), beta + tb, coeff * tc)
                for exps, beta, coeff in partial
                for (d, tb), tc in table.items()
            ]
        for exps, beta, coeff in partial:
            if sum(exps) <= top:
                key = (poly._strip(exps), (), beta)
                free[key] = free.get(key, 0) + coeff
    return normal_form(poly.BetaPolynomial(free), n)


def test_ck_element_matches_table_expansion():
    for n in (2, 3, 4):
        for q in (2, 3, 4, 5, 7, 16, 1031):
            for w in perm.all_permutations(n):
                assert _ck_element(w, n, q) == _ck_element_by_tables(w, n, q), (w, q)


def test_ck_element_matches_table_expansion_s5():
    rng = random.Random(5)
    ws = [perm.identity(5), perm.longest_element(5)]
    ws += rng.sample(sorted(perm.all_permutations(5)), 6)
    for w in ws:
        for q in (2, 3, 9):
            assert _ck_element(w, 5, q) == _ck_element_by_tables(w, 5, q), (w, q)


def test_ck_element_does_not_depend_on_memo_history():
    ws, qs = sorted(perm.all_permutations(4)), (2, 3, 7)
    forward = [(w, q) for q in qs for w in ws]
    # reversed, with q changing from one class to the next
    backward = [(w, q) for w in reversed(ws) for q in reversed(qs)]
    clear_caches()
    classes = {w: schubert_class(w, 4) for w in ws}
    clear_caches()
    first = {(w, q): _ck_element(w, 4, q) for w, q in forward}
    clear_caches()
    assert {(w, q): _ck_element(w, 4, q) for w, q in backward} == first
    assert {(w, q): _ck_element(w, 4, q) for w, q in forward} == first
    clear_caches()
    assert {(w, q): _ck_element(w, 4, q) for w, q in forward} == first
    # the basis and the images reduce monomials through one shared memo:
    # build the basis before every class, and after all of them
    clear_caches()
    _leads(4)
    assert {w: schubert_class(w, 4) for w in ws} == classes
    assert {(w, q): _ck_element(w, 4, q) for w, q in forward} == first
    clear_caches()
    assert {(w, q): _ck_element(w, 4, q) for w, q in backward} == first
    _leads(4)
    assert {w: schubert_class(w, 4) for w in ws} == classes


def test_ck_coefficients_are_polynomials_in_q():
    # q enters only through C(q, i), i < n, so each coefficient is a
    # polynomial in q of degree at most d = n(n-1)/2: its (d+1)-th finite
    # difference over q = 2..d+3 vanishes, and its Newton interpolant on
    # q = 2..d+2 gives the class at a large q
    big = 10**9 + 7
    for n in (3, 4):
        d = n * (n - 1) // 2
        for w in perm.all_permutations(n):
            values = [_ck_element(w, n, q).terms() for q in range(2, d + 4)]
            expected = {}
            for key in set().union(*values):
                diffs = [v.get(key, 0) for v in values]
                newton = []  # the forward differences at q = 2
                while diffs:
                    newton.append(diffs[0])
                    diffs = [b - a for a, b in zip(diffs, diffs[1:])]
                assert newton[d + 1] == 0, (w, key)
                c = sum(comb(big - 2, k) * newton[k] for k in range(d + 1))
                if c:
                    expected[key] = c
            assert _ck_element(w, n, big).terms() == expected, w


def test_family_members_are_write_once(monkeypatch):
    # a member never changes once read: prime_cache keeps the member the
    # family holds, so a class built from it stays the same, and a class
    # whose pair form is memoized does not read the family again
    w, n, q = (2, 1, 3, 4), 4, 5
    v = perm.compose(w, perm.longest_element(n))
    clear_caches()
    member = betapoly.double_beta_polynomial(v, n)
    expected = _ck_element(w, n, q)
    betapoly.prime_cache(v, n, 3 * member)
    assert betapoly.double_beta_polynomial(v, n) is member
    assert _ck_element(w, n, q) == expected
    monkeypatch.setattr(betapoly, "double_beta_polynomial", None)
    assert _ck_element(w, n, q) == expected


def test_members_lie_in_the_staircase_of_the_top_product():
    # the top product prod_{i+j<=n} (x_i + y_j + beta x_i y_j) has x_i-degree
    # n - i and y_j-degree n - j, and phi_i keeps both bounds (the staircase
    # of pipe dreams, Knutson and Miller 2005); so every pair sum
    # a_i + b_(n+1-i) is at most n - 1, and _pair_form and _fold need no
    # rule for a pair sum that reaches n
    for n in range(1, 6):
        bound = tuple(range(n - 1, -1, -1))
        for v in perm.all_permutations(n):
            for (xe, ye, be), c in betapoly.double_beta_polynomial(v, n).terms().items():
                inside = all(map(int.__le__, xe, bound)) and all(map(int.__le__, ye, bound))
                assert inside, (v, xe, ye, be, c)


def test_pair_forms_do_not_keep_dropped_members():
    # the pair form memo must not keep alive a member that the family
    # cache dropped, and must rebuild from the new member; the identity
    # reads the top polynomial, which must have no memo of its own
    n, q = 4, 5
    for w in ((2, 1, 3, 4), (1, 2, 3, 4)):
        v = perm.compose(w, perm.longest_element(n))
        expected = _ck_element(w, n, q)
        old = weakref.ref(betapoly.double_beta_polynomial(v, n))
        betapoly.clear_cache()
        gc.collect()
        assert old() is None, w
        assert _ck_element(w, n, q) == expected


def test_metadata():
    res = dl_class_ck((2, 1), 2, 3)
    assert res.metadata["w"] == "[2,1]"
    assert res.metadata["n"] == 2
    assert res.metadata["q"] == 3
    assert res.metadata["theory"] == "CK"
    assert res.metadata["conventions"] == CONVENTIONS
    assert "k0_reading" not in res.metadata
    assert "k0_reading" in dl_class_k0((2, 1), 2, 3).metadata


def test_result_json():
    res = dl_class_ch((1, 2), 2, 2)
    data = json.loads(json.dumps(res.to_json()))
    assert F.from_json(data["element"]) == res.element
    assert data["metadata"]["theory"] == "CH"
    assert data["expansion"]["terms"] == [
        {"w": "[2,1]", "coeff": [{"beta": 0, "value": "3"}]}
    ]


def test_strict_rejects_composite_q():
    with pytest.raises(ValueError):
        dl_class_ck((2, 1), 2, 6, strict=True)
    with pytest.warns(NonPrimePowerWarning):
        dl_class_ck((2, 1), 2, 6)


def test_kim_transform_involution():
    rng = random.Random(11)
    for n in (2, 3):
        for _ in range(10):
            a = F.zero(n)
            for exps in staircase_monomials(n):
                for be in range(2):
                    c = rng.randint(-2, 2)
                    if c:
                        a = a + F(n, {(exps, be): c})
            assert kim_transform(kim_transform(a)) == a


def test_kim_transform_is_ring_map():
    n = 3
    a = F.x_gen(n, 1) + F.beta(n)
    b = F.x_gen(n, 2) ** 2 - 3
    assert kim_transform(a * b) == kim_transform(a) * kim_transform(b)
    assert kim_transform(a + b) == kim_transform(a) + kim_transform(b)
    assert kim_transform(F.one(n)) == F.one(n)


def test_kim_preserves_point_class():
    # the variable reversal composed with negation is trivial on the top
    # degree, so the point class itself is fixed
    from dlschubert.flagring import schubert_class

    for n in (2, 3, 4):
        point = schubert_class(perm.longest_element(n), n).specialize_beta(0)
        assert kim_transform(point) == point


def test_kim_preserves_chow_point_coefficient():
    for q in (2, 3):
        for w in perm.all_permutations(3):
            res = dl_class_ch(w, 3, q)
            assert point_coefficient(kim_transform(res.element)) == point_coefficient(
                res.element
            ), w


def _star(w):
    """w* = w0 w w0."""
    w0 = perm.longest_element(len(w))
    return perm.compose(w0, perm.compose(w, w0))


def _first_stray(got, expected):
    """The first key, in sorted order, where two dicts differ, or None."""
    return next((k for k in sorted(got | expected) if got.get(k) != expected.get(k)), None)


def test_expansions_of_w0_dual_classes_match():
    # g -> w0 (g^T)^-1 w0 is an automorphism of GL_n that commutes with
    # Frobenius; it maps X(w) onto X(w*) and Schubert varieties onto
    # Schubert varieties, so in every theory the expansion of w* is that
    # of w with every index u replaced by u*
    cases = [(n, q) for n in (2, 3, 4) for q in (2, 3)] + [(5, 2)]
    for n, q in cases:
        for theory in ("CK", "CH", "K0"):
            for w in perm.all_permutations(n):
                mine = dl_class(DLQuery(w, n, q, theory)).expansion.coefficients
                dual = dl_class(DLQuery(_star(w), n, q, theory)).expansion.coefficients
                starred = {_star(u): c for u, c in mine.items()}
                u = _first_stray(starred, dual)
                assert u is None, (w, q, theory, u, starred.get(u), dual.get(u))


def _dual_image(a):
    """a under x_i -> inverse(x_{n+1-i}), through the generic substitution
    and fgl.fgl_inverse: no code of the image route."""
    n = a.n
    xmap = {i: fgl.fgl_inverse(F.x_gen(n, n + 1 - i)) for i in range(1, n + 1)}
    return a.to_polynomial().substitute(xmap, {})


def test_ck_elements_of_w0_dual_classes_match():
    # the same automorphism maps L_i to the dual of L_(n+1-i): the CK class
    # of w* is the image of that of w under x_i -> inverse(x_(n+1-i)),
    # which at beta = 0 is kim_transform
    cases = [(w, n, q) for n in (2, 3, 4) for q in (2, 3) for w in perm.all_permutations(n)]
    rng = random.Random(22)
    cases += [(w, 5, 2) for w in rng.sample(sorted(perm.all_permutations(5)), 20)]
    for w, n, q in cases:
        got = _dual_image(_ck_element(w, n, q))._terms
        expected = _ck_element(_star(w), n, q)._terms
        term = _first_stray(got, expected)
        assert term is None, (w, q, term, got.get(term, 0), expected.get(term, 0))
        if n < 5:
            ch = dl_class_ch(w, n, q).element
            assert kim_transform(ch) == dl_class_ch(_star(w), n, q).element, (w, q)


def test_kim_convention_guard():
    ck = dl_class_ck((2, 1), 2, 3)
    with pytest.raises(ValueError):
        kim_convention(ck)
    ch = dl_class_ch((2, 1), 2, 3)
    assert kim_convention(ch) == kim_transform(ch.element)


def test_dl_class_entry_point_matches_wrappers():
    q = dl_class(DLQuery((1, 2, 3), 3, 2, "CH"))
    assert q.element == dl_class_ch((1, 2, 3), 3, 2).element


def test_expansion_support_respects_codimension():
    # X(w) has codimension length(w.w0); no class of smaller length can
    # carry a nonzero coefficient
    for w in perm.all_permutations(3):
        res = dl_class_ck(w, 3, 2)
        codim = perm.length(perm.compose(w, perm.longest_element(3)))
        for v in res.expansion.coefficients:
            assert perm.length(v) >= codim, (w, v)
