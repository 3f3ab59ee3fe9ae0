"""Fundamental classes of closures of Deligne-Lusztig varieties in the
flag variety of GL_n over a finite field with q elements.

For w in S_n the class of the closure of X(w) inside the connective
K-theory of the flag variety is obtained by taking the (sign-flipped)
double beta-polynomial of w.w0 and substituting

    x_i -> q-fold formal sum of x_i     (class of the q-th tensor power)
    y_j -> formal inverse of x_{n+1-j}  (class of a dual line bundle)

inside the quotient ring R = Z[beta][x]/(e_1..e_n), where the formal
operations use the group law a + b - beta*a*b.

By the Cauchy identity (Fomin and Kirillov, "Grothendieck polynomials
and the Yang-Baxter equation", 1994; betapoly.cauchy_pairs) that member
is the sum over v * u = w.w0 of beta^k G_u(x) G_(v^-1)(y),
k = l(u) + l(v) - l(w.w0).  The substitution is a ring map, and each
factor lands inside R: G_u(x) goes to F_q(S_u), where S_u is the
Schubert class of u and F_q (x_i -> [q]x_i) a ring endomorphism of R,
and G_(v^-1)(y) goes to the Schubert class of w0 v^-1 w0.  So a class
is a sum of products of Schubert classes, and no free double
polynomial is built.  Every piece is an integer row over staircase
indices at beta = 1 (flagring._class_row), and one product kernel
(_product) multiplies two rows by adding monomial codes and reducing
the sums through flagring's memo of reduced monomials, which the
Schubert basis and the ring product read too.

A K0 class is the sum over the pairs, grouped by u, of
F_q(S_u) * sum over u's v of (-1)^k S_(w0 v^-1 w0).  The pairs and each
u's y side are a memo of (w, n) (_cauchy_sides).  F_q is applied
through the images of the n! staircase monomials, built once per
(n, q) in one pass (_frobenius_images), and F_q(S_u) is a memo of
(n, q, u); flagring.clear_caches() empties both.

Specializations: beta = 0 recovers the Chow-group class, beta = 1 the
K-theory class of the structure sheaf (reading c1(L) = 1 - [dual L]).
Each theory works at its own beta, not by specializing the CK answer.
At beta = 0 only the pairs with k = 0 count, and F_q(S_u) = q^l(u) S_u,
so the CH class is the Chow closed form, the sum of
q^l(u) S_u^0 S_(w0 v^-1 w0)^0 over those pairs (S^0 the beta^0 part of
a class row): rows over Z[q], a memo of (w, n) (_chow_rows), evaluated
at q.  The identity is the same kind of rows in every theory: its
member is the top product, of degree n(n-1)/2, so only the linear part
q x_i - x_(n+1-j) of each factor's image counts (_identity_rows).
CK = K0 lifted by degree: with deg beta = -1 the class of w is
homogeneous of degree d = length(w.w0), so its term c beta^e x^m has
e = |m| - d and its coordinate at u exponent length(u) - d.  Every
class is summed once, at beta = 0 or 1, as {staircase index: coeff},
with no beta exponent: the element is built from that sum
(FlagRingElement.from_slots) and the same sum is expanded
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


@functools.lru_cache(maxsize=None)
def _codes(n: int) -> tuple[int, ...]:
    """The monomial code of each staircase monomial of S_n, by index."""
    width = flagring._coding(n)[0]
    return tuple(flagring._encode(m, width) for m in staircase_monomials(n))


def _product(acc: dict[int, int], n: int, x: tuple[int, ...], y: tuple[int, ...]) -> None:
    """acc += x * y in R at beta = 1, keyed by staircase index: x is a
    flat (index, coeff, ..) row and y a flat (code, room, coeff, ..)
    tuple, sorted by descending room = n(n-1)/2 - degree.  A product
    monomial is the sum of the two codes, reduced by _reduce_code; one
    whose degree passes n(n-1)/2 is 0 and never formed."""
    codes, degrees = _codes(n), flagring._degrees(n)
    reduced = flagring._REDUCE_MEMO.setdefault(n, {})
    get = acc.get
    xs = iter(x)
    for i, xc in zip(xs, xs):
        code, degree = codes[i], degrees[i]
        ys = iter(y)
        for ycode, room, yc in zip(ys, ys, ys):
            if room < degree:
                break
            row = reduced.get(code + ycode)
            if row is None:
                row = flagring._reduce_code(n, code + ycode)
            c = xc * yc
            for k, r in row:
                acc[k] = get(k, 0) + c * r


def _side(n: int, sums: dict[int, int]) -> tuple[int, ...]:
    """{staircase index: coeff} as the y argument of _product."""
    codes, degrees, top = _codes(n), flagring._degrees(n), n * (n - 1) // 2
    return tuple(v for k in sorted(sums, key=degrees.__getitem__) if sums[k]
                 for v in (codes[k], top - degrees[k], sums[k]))


def _row(acc: dict[int, int]) -> tuple[int, ...]:
    """{staircase index: coeff} as a flat (index, coeff, ..) row."""
    return tuple(v for kc in acc.items() if kc[1] for v in kc)


def _low(row: tuple[int, ...], n: int, length: int) -> tuple[int, ...]:
    """The beta^0 part of a class row of degree length: its first terms."""
    degrees, k = flagring._degrees(n), 0
    while k < len(row) and degrees[row[k]] == length:
        k += 2
    return row[:k]


def _dual(v: Permutation) -> Permutation:
    """w0 v^-1 w0, whose class is the y side G_(v^-1)(y) of a Cauchy term
    under y_j -> inverse(x_(n+1-j))."""
    n = len(v)
    return tuple(n + 1 - a for a in reversed(perm.inverse(v)))


# F_q (x_i -> [q]x_i) at beta = 1, per (n, q): _FROBENIUS[(n, q)] =
# (images, classes), images[i] the image of the staircase monomial of
# index i and classes[u] that of the Schubert class of u, each a flat
# (index, coeff, ..) row
_FROBENIUS: dict[tuple[int, int], tuple[list[tuple[int, ...]], dict[Permutation, tuple[int, ...]]]] = {}


def _frobenius_images(n: int, q: int) -> list[tuple[int, ...]]:
    """F_q of every staircase monomial of S_n, in one pass in index
    order: x^m is x^b x_(j+1) with x_(j+1) its last generator, and b has
    a lower index, so F_q(x^m) = F_q(x^b) * [q]x_(j+1)
    (fgl.n_times_series at beta = 1)."""
    width, top = flagring._coding(n)[0], n * (n - 1) // 2
    series = fgl.n_times_series(q, n)
    sides = [tuple(v for d, _, c in series for v in (d << j * width, top - d, c)) for j in range(n)]
    steps = [factorial(n) // factorial(j + 1) for j in range(n)]  # index step of x_(j+1)
    images = [(0, 1)]
    for i in range(1, factorial(n)):
        m = flagring._staircase(n, i)
        j = max(k for k, e in enumerate(m) if e)
        acc: dict[int, int] = {}
        _product(acc, n, images[i - steps[j]], sides[j])
        images.append(_row(acc))
    return images


def _frobenius_class(u: Permutation, n: int, q: int) -> tuple[int, ...]:
    """F_q of the Schubert class of u at beta = 1, as a flat row: the
    images of its staircase monomials summed (F_q is a ring endomorphism
    of R, so it is linear)."""
    memo = _FROBENIUS.get((n, q))
    if memo is None:
        memo = _FROBENIUS[(n, q)] = (_frobenius_images(n, q), {})
    images, classes = memo
    image = classes.get(u)
    if image is None:
        acc: dict[int, int] = {}
        get = acc.get
        row = iter(flagring._class_row(u, n))
        for i, c in zip(row, row):
            it = iter(images[i])
            for k, ic in zip(it, it):
                acc[k] = get(k, 0) + c * ic
        image = classes[u] = _row(acc)
    return image


@functools.lru_cache(maxsize=None)
def _cauchy_sides(w: Permutation, n: int) -> tuple[tuple[Permutation, tuple[int, ...]], ...]:
    """((u, y side), ..) over betapoly.cauchy_pairs(w.w0): the K0 class of
    w is the sum of F_q(S_u) * y side, where the y side of u is the sum
    over its v of (-1)^k S_(w0 v^-1 w0), k = l(u) + l(v) - l(w.w0), as
    the y argument of _product."""
    v0 = tuple(w)[::-1]  # w.w0: w0 = (n, .., 1) reverses one-line notation
    length = perm.length(v0)
    sides = []
    for u, vs in betapoly.cauchy_pairs(v0).items():
        lu, sums = perm.length(u), {}
        for v in vs:
            sign = -1 if (lu + perm.length(v) - length) % 2 else 1
            row = iter(flagring._class_row(_dual(v), n))
            for k, c in zip(row, row):
                sums[k] = sums.get(k, 0) + sign * c
        side = _side(n, sums)
        if side:
            sides.append((u, side))
    return tuple(sides)


@functools.lru_cache(maxsize=None)
def _chow_rows(w: Permutation, n: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The CH class of w with coefficients in Z[q]: ((staircase index,
    coefficients by power of q), ..), by the Chow closed form, the sum
    over the pairs of cauchy_pairs(w.w0) with l(u) + l(v) = l(w.w0) of
    q^l(u) S_u^0 S_(w0 v^-1 w0)^0, S^0 the beta^0 prefix of a class row."""
    v0 = tuple(w)[::-1]
    length = perm.length(v0)
    sums: dict[int, list[int]] = {}
    for u, vs in betapoly.cauchy_pairs(v0).items():
        lu, ys = perm.length(u), {}
        for v in vs:
            if lu + perm.length(v) == length:
                row = iter(_low(flagring._class_row(_dual(v), n), n, length - lu))
                for k, c in zip(row, row):
                    ys[k] = ys.get(k, 0) + c
        acc: dict[int, int] = {}
        _product(acc, n, _low(flagring._class_row(u, n), n, lu), _side(n, ys))
        for k, c in acc.items():
            sums.setdefault(k, [0] * (length + 1))[lu] += c
    return tuple((i, tuple(row)) for i, row in sums.items() if any(row))


@functools.lru_cache(maxsize=None)
def _identity_rows(n: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The class of the identity in every theory, as _chow_rows gives a
    class: the product of the n(n-1)/2 factors q x_i - x_(n+1-j),
    i + j <= n.  The member of w0 is the top product, of x,y-degree
    n(n-1)/2, so only the linear part of each factor's image
    [q]x_i (+) inverse(x_(n+1-j)) reaches the ring."""
    width, codes, top = flagring._coding(n)[0], _codes(n), n * (n - 1) // 2
    rows = {0: [1] + [0] * top}
    for i in range(1, n):
        for j in range(1, n - i + 1):
            out: dict[int, list[int]] = {}
            for s, row in rows.items():
                for unit, shift, sign in ((1 << (i - 1) * width, 1, 1), (1 << (n - j) * width, 0, -1)):
                    for k, r in flagring._reduce_code(n, codes[s] + unit):
                        acc = out.setdefault(k, [0] * (top + 1))
                        for p, c in enumerate(row[:top + 1 - shift]):
                            acc[p + shift] += sign * r * c
            rows = out
    return tuple((i, tuple(row)) for i, row in rows.items() if any(row))


def _ck_element(w: Permutation, n: int, q: int, beta: int | None = None) -> FlagRingElement:
    """The class of w as an element, in CK or at beta = 0 or 1."""
    d = None if beta is not None else n * (n - 1) // 2 - perm.length(w)
    return FlagRingElement.from_slots(n, _class_slots(w, n, q, beta), d)


def _class_slots(w: Permutation, n: int, q: int, beta: int | None) -> dict[int, int]:
    """The class of w as {staircase index: coeff} at beta = 0 or 1; some
    coefficients may be 0.  In CK (beta None) it is the sum at beta = 1,
    which from_slots and schubert_expand_slots lift by the class's
    degree length(w.w0).

    The identity (in every theory) and the CH classes are rows over Z[q]
    evaluated at q; a K0 class is the sum over _cauchy_sides of
    F_q(S_u) * y side, in normal form already."""
    identity = w == perm.identity(n)
    if identity or beta == 0:
        rows = _identity_rows(n) if identity else _chow_rows(w, n)
        powers = [q**k for k in range(len(rows[0][1]))]
        return {i: sum(map(mul, row, powers)) for i, row in rows}
    acc: dict[int, int] = {}
    for u, side in _cauchy_sides(w, n):
        _product(acc, n, _frobenius_class(u, n, q), side)
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
