"""Fundamental classes of closures of Deligne-Lusztig varieties in the
flag variety of GL_n over a finite field with q elements.

For w in S_n the class of the closure of X(w) inside the connective
K-theory of the flag variety is obtained by taking the (sign-flipped)
double beta-polynomial of w.w0 and substituting

    x_i -> q-fold formal sum of x_i     (class of the q-th tensor power)
    y_j -> formal inverse of x_{n+1-j}  (class of a dual line bundle)

inside the quotient ring, where the formal operations use the group law
a + b - beta*a*b.  Both images of pair i (x_i and y_{n+1-i}) are power
series in x_i alone, and x_i^n = 0 in the quotient ring, so a factor
x_i^a y_{n+1-i}^b maps to a product of a copies of [q]t and b copies
of inverse(t), truncated at t^n (fgl.n_times_series and
fgl.inverse_series) at t = x_i.

The substitution is a ring map, hence linear on the family, and all
members of S_n together use at most n!^2 distinct monomials.  So the
image of a monomial at beta = 1 is built once per (n, q, monomial) and
memoized as a flat tuple of (staircase index, coeff) pairs.  One
recursive builder makes it: the image of the same monomial with one
generator factor fewer in its last pair, times that factor's series,
by one product kernel that shifts indices while a product stays in the
staircase and reads the others from flagring's memo of reduced
monomials, which the Schubert basis and the ring product read too.

The member of v = w.w0 is homogeneous: its beta^e terms have x,y-degree
length(v) + e.  Where only the lowest entry q^a (-1)^b t^(a+b) of each
pair's ([q]t)^a inverse(t)^b counts, the image of c beta^e x^a y^b is
c q^|a| (-1)^|b| beta^e times the reduced monomial of the pair sums
a_i + b_{n+1-i}, so the beta^e terms fold into one polynomial in q per
staircase monomial (_fold).  That holds at e = n(n-1)/2 - length(v),
the top degree, where the higher entries pass n(n-1)/2: the fold there
is the point part of the class.  A K0 class is the sparse sum
c * image over the lower terms of the member, read from a memoized
"pair form" of it at beta = 1, plus its point part at q; the sum of
reduced images is already in normal form, so no class is reduced as a
whole.  The images are the engine's largest memo;
flagring.clear_caches() empties them.
The family itself is built in the free ring first: the formal inverse
exists only in the quotient ring, so the x-arguments must never be
reduced while it is being assembled.

Specializations: beta = 0 recovers the Chow-group class, beta = 1 the
K-theory class of the structure sheaf (reading c1(L) = 1 - [dual L]).
Each theory works at its own beta, not by specializing the CK answer.
At beta = 0 the group law is additive ([q]t = qt, inverse(t) = -t), so
the CH class is the fold of the member's beta^0 terms alone.  Those
terms come from betapoly's beta^0 chain (betapoly.beta0_polynomial), so
a CH class builds no pair form, no image and no full member; neither
does the identity in any theory, whose member w0 has only top-degree
terms, folded at beta^0.  CK = K0 lifted by degree: with deg beta = -1
the class of w is homogeneous of degree d = length(w.w0), so its term
c beta^e x^m has e = |m| - d and its coordinate at u exponent
length(u) - d.  Every class is summed once, at beta = 0 or 1, as
{staircase index: coeff}, with no beta exponent: the element is built
from that sum (FlagRingElement.from_slots) and the same sum is expanded
(flagring.schubert_expand_slots).  In CK both are given d and lift it,
the only place where a formal beta enters, so no request reads its
element back from tuple keys.
q is a concrete integer; Frobenius twists make geometric sense for
prime powers only, so other q >= 2 raise a warning (an error under
strict validation).
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field
from math import exp, factorial, isqrt, log, prod
from operator import mul

from . import betapoly, fgl, flagring, perm, poly
from .flagring import (
    FlagRingElement,
    SchubertExpansion,
    normal_form,
    schubert_expand_slots,
    staircase_monomials,
)
from .perm import Permutation

THEORIES = ("CK", "CH", "K0")
BETA = {"CK": None, "CH": 0, "K0": 1}  # each theory's beta; CK's is formal

CONVENTIONS = {
    "basis": "staircase",
    "indexing": "length(w) = codimension; Omega_w = X_{w.w0} = Y_{w0.w.w0}",
    "group_law": "a (+) b = a + b - beta*a*b",
    "beta_family": "engine beta-polynomials carry the opposite sign; "
    "classes use the beta-sign-flipped family",
}


class NonPrimePowerWarning(UserWarning):
    pass


# Miller-Rabin with the bases 2..41 decides primality exactly below psi_13
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2015)
_MR_EXACT = 3_317_044_064_679_887_385_961_981


def _jacobi(a: int, m: int) -> int:
    """The Jacobi symbol (a / m) for odd m > 0."""
    a, t = a % m, 1
    while a:
        while a % 2 == 0:
            a //= 2
            if m % 8 in (3, 5):
                t = -t
        a, m = m, a
        if a % 4 == 3 and m % 4 == 3:
            t = -t
        a %= m
    return t if m == 1 else 0


def _strong_lucas(r: int) -> bool:
    """The strong Lucas probable-prime test of an odd r > 1 that is not a
    square, with Selfridge's parameters: D the first of 5, -7, 9, -11, ..
    with (D / r) = -1, P = 1, Q = (1 - D) / 4."""
    d = 5
    while (j := _jacobi(d, r)) == 1:
        d = -d - 2 if d > 0 else -d + 2
    if j == 0:
        return r == abs(d)
    q = (1 - d) // 4
    s = ((r + 1) & -(r + 1)).bit_length() - 1  # r + 1 = k * 2^s with k odd
    u, v, qk = 1, 1, q  # U_k, V_k, Q^k at k = 1, read from the top bit of k down
    for bit in bin((r + 1) >> s)[3:]:
        u, v, qk = u * v % r, (v * v - 2 * qk) % r, qk * qk % r
        if bit == "1":
            u, v, qk = (u + v) % r, (d * u + v) % r, qk * q % r
            u, v = (u + r * (u & 1)) // 2, (v + r * (v & 1)) // 2
    for _ in range(s):
        if u == 0 or v == 0:
            return True
        u, v, qk = 1, (v * v - 2 * qk) % r, qk * qk % r
    return False


def _is_prime(r: int) -> bool:
    """Primality of an odd r > 41: Miller-Rabin with the bases 2..41,
    exact below _MR_EXACT; above it Baillie-PSW, base 2 and then the
    strong Lucas test (no composite is known to pass both).  False is
    always a proof."""
    s = ((r - 1) & (1 - r)).bit_length() - 1  # r - 1 = d * 2^s with d odd
    d = (r - 1) >> s
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41) if r < _MR_EXACT else (2,):
        x = pow(a, d, r)
        if x != 1:  # then some a^(d 2^i), i < s, must be -1
            for _ in range(s):
                if x == r - 1:
                    break
                x = x * x % r
            else:
                return False
    return r < _MR_EXACT or (isqrt(r) ** 2 != r and _strong_lucas(r))


def _iroot(q: int, k: int) -> int:
    """The integer part of q^(1/k), by Newton's method from above: from
    just above the float estimate (relative error far below 1e-9) where
    that root is below 2^1000, else from the power of two above it."""
    b = -(-q.bit_length() // k)
    r = int(exp(log(q) / k) * (1 + 1e-9)) + 1 if b < 1000 else 1 << b
    while True:
        s = ((k - 1) * r + q // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def is_prime_power(q: int) -> bool:
    """Whether q = p^k for a prime p and some k >= 1.

    Up to 10^6 by trial division.  Above, divisors up to 1000 are tried
    (one decides), and otherwise q is a prime power iff some exact k-th
    root of it is prime by _is_prime.  Below psi_13 = _MR_EXACT the
    answer is exact; above it a True rests on the Baillie-PSW test,
    while a False is still a proof.

    The floor of this route is one modular exponentiation of q's size,
    the base-2 Miller-Rabin pow of _is_prime(q): for q = 10^4000 + 1 it
    takes 6.5 s of the 6.8 s (2-core Xeon, Python 3.11), and the 1,476
    roots 0.23 s.  Only refusing such q bounds it.
    """
    if q < 2:
        return False
    # the least divisor above 1 is prime; with none up to isqrt(q), q is prime
    quick = q > 10**6
    p = next((d for d in range(2, (1000 if quick else isqrt(q)) + 1) if q % d == 0), q)
    if quick and p == q:
        # every prime factor of q passes 1000 > 2^9, so q = r^k has k <= bits / 9
        roots = ((_iroot(q, k), k) for k in range(1, q.bit_length() // 9 + 1))
        return any(r**k == q and _is_prime(r) for r, k in roots)
    while q % p == 0:
        q //= p
    return q == 1


@dataclass(frozen=True)
class DLQuery:
    w: Permutation
    n: int
    q: int
    theory: str = "CK"

    def validate(self, strict: bool = False) -> None:
        perm.check_permutation(self.w)
        if len(self.w) != self.n:
            raise ValueError(f"w has {len(self.w)} entries, expected n={self.n}")
        if self.theory not in THEORIES:
            raise ValueError(f"unknown theory {self.theory!r}; pick from {THEORIES}")
        if not isinstance(self.q, int) or self.q < 2:
            raise ValueError(f"q must be an integer >= 2, got {self.q!r}")
        if not is_prime_power(self.q):
            msg = f"q={self.q} is not a prime power; no Frobenius realizes it"
            if strict:
                raise ValueError(msg)
            warnings.warn(msg, NonPrimePowerWarning, stacklevel=2)


@dataclass
class DLResult:
    query: DLQuery
    element: FlagRingElement
    expansion: SchubertExpansion
    metadata: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "element": self.element.to_json(),
            "expansion": self.expansion.to_json(),
            "metadata": self.metadata,
        }


# Images of the substitution at beta = 1, one per (n, q, monomial),
# reduced once: _IMAGES[(n, q)][pair code] is a flat tuple (staircase
# index, coeff, ..), for a code below x-degree n(n-1)/2, with the bases
# _build made it from; the top-degree terms never reach it (they fold
# into the point part), and CH classes build none.
_IMAGES: dict[tuple[int, int], dict[int, tuple[int, ...]]] = {}


@functools.lru_cache(maxsize=None)
def _slots(n: int) -> dict[int, int]:
    """The staircase indices of S_n met so far, each mapped to itself:
    every image stores these int objects instead of holding its own."""
    return {}


@functools.lru_cache(maxsize=None)
def _pair_form(v: Permutation, n: int) -> tuple[int, ...]:
    """The beta-sign-flipped double beta-polynomial of v below x,y-degree
    n(n-1)/2, as a flat tuple (pair code, coeff, ..) at beta = 1.

    The member is homogeneous, so these are its terms with beta exponent
    below n(n-1)/2 - length(v), each at its own code, which fixes its
    degree and so its beta exponent.  Pair i of a term x^a y^b beta^e is
    (a_i, b_{n+1-i}); the pairs are encoded in base n, which is
    injective because every member has x_i-degree at most n - i and
    y_j-degree at most n - j (the staircase of the top product, which
    phi_i keeps), so a_i + b_{n+1-i} <= n - 1.  A family member never
    changes once read (betapoly.prime_cache is write-once), so the form
    is a function of (v, n); the memo keeps the form, not the member.
    """
    top = n * (n - 1) // 2 - perm.length(v)
    # a_i has place n^(2(n-1-i)+1) and b_j place n^(2j), so the code is
    # that of a plus that of b: each distinct a and b is encoded once
    xs: dict[tuple[int, ...], int] = {}
    ys: dict[tuple[int, ...], int] = {}
    form: list[int] = []
    for (xe, ye, be), c in betapoly.double_beta_polynomial(v, n).terms().items():
        if be >= top:
            continue
        x = xs.get(xe)
        if x is None:
            x = xs[xe] = sum(a * n ** (2 * (n - 1 - i) + 1) for i, a in enumerate(xe))
        y = ys.get(ye)
        if y is None:
            y = ys[ye] = sum(b * n ** (2 * j) for j, b in enumerate(ye))
        form += (x + y, -c if be % 2 else c)  # flip_beta_sign
    return tuple(form)


@functools.lru_cache(maxsize=None)
def _fold(v: Permutation, n: int, e: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The beta^e terms of the beta-sign-flipped double beta-polynomial
    of v, each pair (a, b) mapped by the lowest entry q^a (-1)^b t^(a+b)
    of ([q]t)^a inverse(t)^b, in normal form with coefficients in Z[q]:
    ((staircase index, coefficients by power of q), ..).

    A term c x^a y^b (x,y-degree length(v) + e) adds (-1)^(e+|b|) c to
    the q^|a| coefficient of x^s, s_i = a_i + b_{n+1-i} <= n - 1 (the
    degree bound of _pair_form).  Each distinct x^s is then reduced
    once.  This is the whole image at e = 0, the CH class, and at the top
    degree, e = n(n-1)/2 - length(v), the point part of the CK class.
    At e = 0 the terms come from the beta^0 chain
    (betapoly.beta0_polynomial), so no full member is built.
    """
    width, degree = flagring._coding(n)[0], perm.length(v) + e
    sign = -1 if e % 2 else 1  # flip_beta_sign
    # the code of x^s is the code of x^a plus that of b reversed, so each
    # distinct a and b is encoded once: a -> (code, |a|), b -> (code, sign)
    xs: dict[tuple[int, ...], tuple[int, int]] = {}
    ys: dict[tuple[int, ...], tuple[int, int]] = {}
    sums: dict[int, list[int]] = {}
    member = betapoly.double_beta_polynomial(v, n) if e else betapoly.beta0_polynomial(v, n)
    for (xe, ye, be), c in member.terms().items():
        if be != e:
            continue
        x = xs.get(xe)
        if x is None:
            x = xs[xe] = (flagring._encode(xe, width), sum(xe))
        y = ys.get(ye)
        if y is None:
            padded = ye + (0,) * (n - len(ye))
            y = ys[ye] = (
                flagring._encode(reversed(padded), width), -sign if sum(ye) % 2 else sign)
        code = x[0] + y[0]
        row = sums.get(code)
        if row is None:
            row = sums[code] = [0] * (degree + 1)
        row[x[1]] += y[1] * c
    out: dict[int, list[int]] = {}
    for code, row in sums.items():
        for i, r in flagring._reduce_code(n, code):
            acc = out.setdefault(i, [0] * (degree + 1))
            for k, c in enumerate(row):
                acc[k] += r * c
    return tuple((i, tuple(row)) for i, row in out.items() if any(row))


@functools.lru_cache(maxsize=None)
def _layouts(n: int) -> tuple[tuple[int, int, tuple[tuple[int, int, int], ...]], ...]:
    """(step, unit, rows) for multiplying by powers of x_{j+1} in S_n, at
    index j = 0..n-1, built in one pass over the staircase.

    step is the index shift and unit the monomial code of one more power
    of x_{j+1}.  rows[index] = (room, most, code) for the staircase
    monomial x^k of that index: the product x^k * x_{j+1}^d is the
    staircase monomial d * step indices on while d <= room = j - k_j, and
    0 once d > most, because its x-degree passes n(n-1)/2 (or, for
    j = n - 1, x_n^n = 0); in between it is the reduced monomial of
    code + d * unit.
    """
    top, width = n * (n - 1) // 2, flagring._coding(n)[0]
    monomials = [(k, top - sum(k), flagring._encode(k, width)) for k in staircase_monomials(n)]
    return tuple(
        (factorial(n) // factorial(j + 1), 1 << j * width, tuple(
            (j - k[j], min(most, j - k[j]) if j == n - 1 else most, code)
            for k, most, code in monomials
        ))
        for j in range(n)
    )


def _times(n: int, flat: tuple[int, ...], j: int, series: fgl.Series) -> tuple[int, ...]:
    """Normal form at beta = 1 of the flat element `flat` times the series
    `series` ((d, beta exponent, coeff), .. by ascending d; the exponent
    is not read) at t = x_{j+1}, as a flat (index, coeff, ..) tuple."""
    step, unit, rows = _layouts(n)[j]
    reduced = flagring._REDUCE_MEMO.setdefault(n, {})
    out: dict[int, int] = {}
    get = out.get
    pairs = iter(flat)
    for i, c in zip(pairs, pairs):
        room, most, code = rows[i]
        for d, _, tc in series:
            if d > most:
                break
            if d <= room:
                s = i + d * step
                out[s] = get(s, 0) + c * tc
                continue
            row = reduced.get(code + d * unit)
            if row is None:
                row = flagring._reduce_code(n, code + d * unit)
            c2 = c * tc
            for s, rc in row:
                out[s] = get(s, 0) + c2 * rc
    slots = _slots(n)
    product: list[int] = []
    for s, c in out.items():
        if c:
            product += (slots.setdefault(s, s), c)
    return tuple(product)


def _build(n: int, q: int, code: int) -> tuple[int, ...]:
    """The image of a nonzero pair code, memoized in _IMAGES[(n, q)]
    (which holds the image of code 0) with the images of the bases it is
    built from.

    Pair j is the last pair (a, b) of the code that is not (0, 0).  If
    a > 0 the image is that of the base with a - 1 there, times [q]t
    (fgl.n_times_series) at x_{j+1}; otherwise that of the base with
    b - 1 there, times inverse(t) (fgl.inverse_series).
    """
    memo = _IMAGES[(n, q)]
    nn = n * n
    place, j = 1, n - 1
    while not code // place % nn:
        place, j = place * nn, j - 1
    if code // place % nn >= n:  # a > 0
        base, factor = code - n * place, fgl.n_times_series(q, n)
    else:
        base, factor = code - place, fgl.inverse_series(n)
    flat = memo.get(base)
    if flat is None:
        flat = _build(n, q, base)
    image = memo[code] = _times(n, flat, j, factor)
    return image


def _fold_exponent(v: Permutation, n: int, beta: int | None) -> int:
    """The beta exponent e of the fold in the class of w = v.w0 at beta:
    0 in CH, else the top one, n(n-1)/2 - length(v).  The class reads
    the full family member of v (its pair form) only if e > 0; at e = 0,
    in CH and for v = w0, it reads the beta^0 chain alone."""
    return 0 if beta == 0 else n * (n - 1) // 2 - perm.length(v)


def _ck_element(w: Permutation, n: int, q: int, beta: int | None = None) -> FlagRingElement:
    """The class of w as an element, in CK or at beta = 0 or 1."""
    d = None if beta is not None else n * (n - 1) // 2 - perm.length(w)
    return FlagRingElement.from_slots(n, _class_slots(w, n, q, beta), d)


def _class_slots(w: Permutation, n: int, q: int, beta: int | None) -> dict[int, int]:
    """The class of w as {staircase index: coeff} at beta = 0 or 1; some
    coefficients may be 0.  In CK (beta None) it is the sum at beta = 1,
    which from_slots and schubert_expand_slots lift by the class's
    degree length(w.w0).

    At beta = 1 (K0) it is the sum c * image(pairs) over the pair form
    of the member of w.w0, plus the point part, the fold at the top beta
    exponent evaluated at q.  At beta = 0 (CH), and for the identity
    (whose member, the top product, has only top-degree terms), it is
    the fold of the beta^0 terms alone: it builds no pair form, no image
    and no full member.  Images and reduced monomials are in normal
    form already."""
    v = tuple(w)[::-1]  # w.w0: w0 = (n, .., 1) reverses one-line notation
    e = _fold_exponent(v, n, beta)
    acc: dict[int, int] = {}
    get = acc.get
    if e:
        images = _IMAGES.setdefault((n, q), {0: (0, 1)})
        it = iter(_pair_form(v, n))
        for code, c in zip(it, it):
            image = images.get(code)
            if image is None:
                image = _build(n, q, code)
            pairs = iter(image)
            for i, ic in zip(pairs, pairs):
                acc[i] = get(i, 0) + c * ic
    # the fold's degree in q: the top degree unless in CH
    powers = [q**k for k in range(perm.length(v) + e + 1)]
    for i, row in _fold(v, n, e):
        acc[i] = get(i, 0) + sum(map(mul, row, powers))
    return acc


def dl_class(query: DLQuery, strict: bool = False) -> DLResult:
    """Class of the closure of the Deligne-Lusztig variety X(w), expanded
    in the Schubert basis.

    For theory CH (resp. K0) the element and the expansion coefficients
    are the beta = 0 (resp. beta = 1) specializations of the CK result;
    the coefficients then sit on the correspondingly specialized
    Schubert classes.  Each is computed at its beta, not from the CK
    result; the CK result is the K0 one lifted by degree.
    """
    query.validate(strict=strict)
    return _dl_class(query)


def _dl_class(query: DLQuery) -> DLResult:
    """dl_class of a query that has been validated."""
    beta, n = BETA[query.theory], query.n
    d = None if beta is not None else n * (n - 1) // 2 - perm.length(query.w)
    slots = _class_slots(query.w, n, query.q, beta)
    element = FlagRingElement.from_slots(n, slots, d)
    expansion = schubert_expand_slots(n, slots, 1 if beta is None else beta, d)
    meta = {
        "w": perm.format_permutation(query.w),
        "n": query.n,
        "q": query.q,
        "theory": query.theory,
        "conventions": dict(CONVENTIONS),
    }
    if query.theory == "K0":
        meta["k0_reading"] = (
            "c1(L) = 1 - [dual L]; the x_i slot carries 1 - [dual M_i]^q, "
            "the y_j slot 1 - [M_{n+1-j}]"
        )
    return DLResult(query, element, expansion, meta)


def dl_class_ck(w, n: int, q: int, strict: bool = False) -> DLResult:
    return dl_class(DLQuery(perm.check_permutation(w), n, q, "CK"), strict)


def dl_class_ch(w, n: int, q: int, strict: bool = False) -> DLResult:
    return dl_class(DLQuery(perm.check_permutation(w), n, q, "CH"), strict)


def dl_class_k0(w, n: int, q: int, strict: bool = False) -> DLResult:
    return dl_class(DLQuery(perm.check_permutation(w), n, q, "K0"), strict)


# -- independent specialization routes (verification oracles) -----------


def chow_class_direct(w, n: int, q: int) -> FlagRingElement:
    """Chow class without going through the beta pipeline: substitute
    q*x_i and x_{n+1-j} straight into the double Schubert polynomial of
    w.w0 and reduce."""
    w = perm.check_permutation(w)
    v = perm.compose(w, perm.longest_element(n))
    s = betapoly.double_schubert(v, n)
    xmap = {i: q * FlagRingElement.x_gen(n, i) for i in range(1, n + 1)}
    ymap = {j: FlagRingElement.x_gen(n, n + 1 - j) for j in range(1, n + 1)}
    return s.substitute(xmap, ymap)


def k0_class_direct(w, n: int, q: int) -> FlagRingElement:
    """K-theory class via the double Grothendieck polynomial of w.w0
    with the beta = 1 substitution images built independently."""
    w = perm.check_permutation(w)
    v = perm.compose(w, perm.longest_element(n))
    g = betapoly.double_grothendieck(v, n)
    xmap = {
        i: fgl.n_times(q, FlagRingElement.x_gen(n, i)).specialize_beta(1)
        for i in range(1, n + 1)
    }
    ymap = {
        j: fgl.fgl_inverse(FlagRingElement.x_gen(n, n + 1 - j)).specialize_beta(1)
        for j in range(1, n + 1)
    }
    return g.substitute(xmap, ymap)


# -- change of convention -------------------------------------------------


def kim_transform(a: FlagRingElement) -> FlagRingElement:
    """Apply x_i -> -x_{n+1-i} and renormalize.

    An involution of the ring (elementary symmetric relations are
    preserved); it fixes the point class, since both the variable
    reversal and the negation act on the top degree by the sign of the
    longest element.  On the staircase representative it is a signed
    reversal, c beta^e x^m -> (-1)^|m| c beta^e x^(reversed m), which one
    normal form brings back to the staircase.

    It is the w0-duality at beta = 0: the CK class of w0 w w0 is the
    image of that of w under x_i -> inverse(x_{n+1-i}), which is
    x_i -> -x_{n+1-i} at beta = 0, so this maps the CH class of w to that
    of w0 w w0."""
    return normal_form(poly.BetaPolynomial({
        (poly._strip(m[::-1]), (), be): -c if sum(m) % 2 else c
        for (m, be), c in a._terms.items()
    }), a.n)


def kim_convention(result: DLResult) -> FlagRingElement:
    """The Chow class rewritten in the opposite-side variable convention
    (x_i -> -x_{n+1-i}).  Only defined for theory CH."""
    if result.query.theory != "CH":
        raise ValueError("convention change is defined for Chow classes only")
    return kim_transform(result.element)


# -- counting oracle -----------------------------------------------------


def flag_count_oracle(n: int, q: int) -> int:
    """Number of complete flags over a field with q elements:
    the q-factorial prod_{i=1..n} (1 + q + ... + q^(i-1))."""
    if n < 1 or q < 2:
        raise ValueError("need n >= 1 and q >= 2")
    return prod(sum(q**k for k in range(i)) for i in range(1, n + 1))
