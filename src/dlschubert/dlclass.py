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
x_i^a y_{n+1-i}^b maps to the truncated univariate table
([q]t)^a * inverse(t)^b mod t^n at t = x_i (fgl.pair_table).

The substitution is a ring map, hence linear on the family, and all
members of S_n together use at most n!^2 distinct monomials.  So the
image of a monomial, the product of the tables of its n pairs in normal
form, is built once per (n, q, monomial) and memoized as a flat tuple of
(staircase slot, coeff) pairs.  One recursive builder makes it: the
image of the same monomial without its last pair, times that pair's
table, by one product kernel that shifts slots while a product stays in
the staircase and reads the others from flagring's memo of reduced
monomials, which the Schubert basis and the ring product read too.  At
x-degree n(n-1)/2 only the lowest entry q^a (-1)^b t^(a+b) of each pair
table counts (the others pass the top degree), so the image is
q^|a| (-1)^|b| times the reduced monomial x^(a+b), which is the image
of x^(a+b) at q = 1 ([1]t = t), kept in the row _IMAGES[(n, 1)] that
every q shares.  A class is the sparse sum
c * beta^e * image over the terms of the member of w.w0, read from a
memoized "pair form" of that member; the sum of reduced images is
already in normal form, so no class is reduced as a whole.  The images
are the engine's largest memo; flagring.clear_caches() empties them.
The family itself is built in the free ring first: the formal inverse
exists only in the quotient ring, so the x-arguments must never be
reduced while it is being assembled.

Specializations: beta = 0 recovers the Chow-group class, beta = 1 the
K-theory class of the structure sheaf (reading c1(L) = 1 - [dual L]).
q is a concrete integer; Frobenius twists make geometric sense for
prime powers only, so other q >= 2 raise a warning (an error under
strict validation).
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field
from math import exp, factorial, isqrt, log, prod

from . import betapoly, fgl, flagring, perm
from .flagring import (
    _BETA_BITS,
    FlagRingElement,
    SchubertExpansion,
    normal_form,  # noqa: F401  (public name of this module; perfbench traces it)
    schubert_expand,
    staircase_monomials,
)
from .perm import Permutation

THEORIES = ("CK", "CH", "K0")

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


# Images of the substitution, one per (n, q, monomial), reduced once:
# _IMAGES[(n, q)][pair code] is a flat tuple (slot, coeff, slot, coeff,
# ..) where slot = staircase index << _BETA_BITS | beta exponent; with
# a code below x-degree n(n-1)/2 it holds the base _build made it from.
# The row (n, 1) holds the images at q = 1, the reduced monomials x^a:
# every q reads its point images from there.
_IMAGES: dict[tuple[int, int], dict[int, tuple[int, ...]]] = {}


@functools.lru_cache(maxsize=None)
def _slots(n: int) -> dict[int, int]:
    """The slots of S_n met so far, each mapped to itself: every image
    stores these int objects instead of holding its own."""
    return {}


@functools.lru_cache(maxsize=None)
def _pair_form(v: Permutation, n: int) -> tuple[int, ...]:
    """The beta-sign-flipped double beta-polynomial of v as a flat tuple
    (pair code, beta exponent, coeff, ..), leaving out the terms whose
    image vanishes.

    Pair i of a term x^a y^b beta^e is (a_i, b_{n+1-i}); the pairs are
    encoded in base n, which is injective because a term with some
    a_i + b_{n+1-i} >= n maps to 0 (x_i^n = 0) and is left out, as is a
    term of x-degree above n(n-1)/2.  A family member never changes
    once read (betapoly.prime_cache is write-once), so the form is a
    function of (v, n); the memo keeps the form, not the member.
    """
    top = n * (n - 1) // 2
    form: list[int] = []
    for (xe, ye, be), c in betapoly.double_beta_polynomial(v, n).terms().items():
        if sum(xe) + sum(ye) > top:
            continue
        xe = xe + (0,) * (n - len(xe))
        ye = ye + (0,) * (n - len(ye))
        code = 0
        for i in range(n):
            a, b = xe[i], ye[n - 1 - i]
            if a + b >= n:
                break
            code = (code * n + a) * n + b
        else:
            form += (code, be, -c if be % 2 else c)  # flip_beta_sign
    return tuple(form)


@functools.lru_cache(maxsize=None)
def _layout(n: int, j: int) -> tuple[int, int, tuple[tuple[int, int, int], ...]]:
    """(step, unit, rows) for multiplying by powers of x_{j+1} in S_n.

    step is the slot shift and unit the monomial code of one more power
    of x_{j+1}.  rows[index] = (room, most, code) for the staircase
    monomial x^k of that index: the product x^k * x_{j+1}^d is the
    staircase monomial d * step slots on while d <= room = j - k_j, and
    0 once d > most, because its x-degree passes n(n-1)/2 (or, for
    j = n - 1, x_n^n = 0); in between it is the reduced monomial of
    code + d * unit.
    """
    top, width = n * (n - 1) // 2, flagring._coding(n)[0]
    rows = []
    for k in staircase_monomials(n):
        room, most = j - k[j], top - sum(k)
        if j == n - 1:
            most = min(most, room)
        rows.append((room, most, flagring._encode(k, width)))
    return factorial(n) // factorial(j + 1) << _BETA_BITS, 1 << j * width, tuple(rows)


def _times(n: int, flat: tuple[int, ...], j: int, table: fgl.Series) -> tuple[int, ...]:
    """Normal form of the flat element `flat` times the univariate table
    `table` ((d, beta exponent, coeff), .. by ascending d) at t = x_{j+1},
    as a flat (slot, coeff, ..) tuple."""
    step, unit, rows = _layout(n, j)
    reduced = flagring._REDUCE_MEMO.setdefault(n, {})
    low = (1 << _BETA_BITS) - 1
    out: dict[int, int] = {}
    get = out.get
    pairs = iter(flat)
    for slot, c in zip(pairs, pairs):
        room, most, code = rows[slot >> _BETA_BITS]
        for d, tb, tc in table:
            if d > most:
                break
            if d <= room:
                s = slot + d * step + tb
                out[s] = get(s, 0) + c * tc
                continue
            row = reduced.get(code + d * unit)
            if row is None:
                row = flagring._reduce_code(n, code + d * unit)
            be, c2 = (slot & low) + tb, c * tc
            for rs, rc in row:
                s = be + rs
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

    It is the image of the base, the code with its last pair (a, b) that
    is not (0, 0), pair j, set to (0, 0), times fgl.pair_table(n, q, a, b)
    at x_{j+1}.
    """
    memo = _IMAGES[(n, q)]
    nn = n * n
    place, j = 1, n - 1
    while not code // place % nn:
        place, j = place * nn, j - 1
    pair = code // place % nn
    base = code - pair * place
    flat = memo.get(base)
    if flat is None:
        flat = _build(n, q, base)
    image = memo[code] = _times(n, flat, j, fgl.pair_table(n, q, pair // n, pair % n))
    return image


def _point_image(n: int, q: int, code: int) -> tuple[int, ...]:
    """The image of a pair code of x-degree n(n-1)/2: only the lowest
    entry q^a (-1)^b t^(a+b) of each pair table stays within the top
    degree, so the image is q^|a| (-1)^|b| times the image of x^(a+b)
    at q = 1, the reduced monomial x^(a+b), read from _IMAGES[(n, 1)]."""
    sa = sb = low = 0  # low: the code of x^(a+b), pairs (a_i + b_i, 0)
    rest, place = code, n
    while rest:
        rest, pair = divmod(rest, n * n)
        a, b = divmod(pair, n)
        sa, sb, low, place = sa + a, sb + b, low + (a + b) * place, place * n * n
    flat = _IMAGES.setdefault((n, 1), {0: (0, 1)}).get(low)
    if flat is None:
        flat = _build(n, 1, low)
    scale = -(q**sa) if sb % 2 else q**sa
    pairs = iter(flat)
    return tuple(x for slot, c in zip(pairs, pairs) for x in (slot, c * scale))


def _ck_element(w: Permutation, n: int, q: int) -> FlagRingElement:
    """The CK class as sum c * beta^e * image(pairs) over the terms of
    the family member of w.w0; the images are in normal form already."""
    v = perm.compose(w, perm.longest_element(n))
    form = _pair_form(v, n)
    images = _IMAGES.setdefault((n, q), {0: (0, 1)})
    # a term of the member, homogeneous of degree length(v), has x-degree
    # n(n-1)/2 iff its beta exponent is `point`
    point = n * (n - 1) // 2 - perm.length(v)
    acc: dict[int, int] = {}
    get = acc.get
    it = iter(form)
    for code, be, c in zip(it, it, it):
        image = images.get(code)
        if image is None:
            image = images[code] = (
                _point_image(n, q, code) if be == point else _build(n, q, code)
            )
        pairs = iter(image)
        for slot, ic in zip(pairs, pairs):
            slot += be
            acc[slot] = get(slot, 0) + c * ic
    return FlagRingElement.from_slots(n, acc)


def dl_class(query: DLQuery, strict: bool = False) -> DLResult:
    """Class of the closure of the Deligne-Lusztig variety X(w), expanded
    in the Schubert basis.

    For theory CH (resp. K0) the element and the expansion coefficients
    are the beta = 0 (resp. beta = 1) specializations of the CK result;
    the coefficients then sit on the correspondingly specialized
    Schubert classes.
    """
    query.validate(strict=strict)
    return _dl_class(query)


def _dl_class(query: DLQuery) -> DLResult:
    """dl_class of a query that has been validated."""
    element = _ck_element(query.w, query.n, query.q)
    expansion = schubert_expand(element)
    meta = {
        "w": perm.format_permutation(query.w),
        "n": query.n,
        "q": query.q,
        "theory": query.theory,
        "conventions": dict(CONVENTIONS),
    }
    if query.theory == "CH":
        element = element.specialize_beta(0)
        expansion = expansion.specialize_beta(0)
    elif query.theory == "K0":
        element = element.specialize_beta(1)
        expansion = expansion.specialize_beta(1)
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
    longest element."""
    n = a.n
    xmap = {i: -FlagRingElement.x_gen(n, n + 1 - i) for i in range(1, n + 1)}
    return a.to_polynomial().substitute(xmap, {})


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
