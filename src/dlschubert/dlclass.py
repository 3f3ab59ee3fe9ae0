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
([q]t)^a * inverse(t)^b mod t^n at t = x_i (fgl.pair_table).  Each term
of the fully built polynomial expands into products of its n tables,
dropping products whose x-degree exceeds n(n-1)/2; the products are
summed as free monomials, and each distinct monomial is reduced to its
normal form once.  The polynomial itself is built in the free ring
first: the formal inverse exists only in the quotient ring, so the
x-arguments must never be reduced while it is being assembled.

Specializations: beta = 0 recovers the Chow-group class, beta = 1 the
K-theory class of the structure sheaf (reading c1(L) = 1 - [dual L]).
q is a concrete integer; Frobenius twists make geometric sense for
prime powers only, so other q >= 2 raise a warning (an error under
strict validation).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from math import isqrt, prod

from . import betapoly, fgl, perm, poly
from .flagring import (
    FlagRingElement,
    SchubertExpansion,
    normal_form,
    schubert_expand,
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


def is_prime_power(q: int) -> bool:
    if q < 2:
        return False
    # the least divisor above 1 is prime; with none up to isqrt(q), q is prime
    p = next((d for d in range(2, isqrt(q) + 1) if q % d == 0), q)
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


def _ck_element(w: Permutation, n: int, q: int) -> FlagRingElement:
    v = perm.compose(w, perm.longest_element(n))
    top = n * (n - 1) // 2
    free: dict[tuple[tuple[int, ...], int], int] = {}
    for (xe, ye, be), c in betapoly.double_beta_polynomial(v, n).terms().items():
        c = -c if be % 2 else c  # flip_beta_sign, without a flipped copy
        xe = xe + (0,) * (n - len(xe))
        ye = ye + (0,) * (n - len(ye))
        # pair i carries x_i and y_{n+1-i}; both map into x_i alone
        pairs = [(xe[i], ye[n - 1 - i]) for i in range(n)]
        rest = [0] * (n + 1)  # least x-degree the pairs after i can add
        for i in reversed(range(n)):
            rest[i] = rest[i + 1] + sum(pairs[i])
        if rest[0] > top:
            continue
        partial = [((), 0, be, c)]
        for i, (a, b) in enumerate(pairs):
            cap = top - rest[i + 1]
            partial = [
                (exps + (d,), deg + d, beta + tb, coeff * tc)
                for exps, deg, beta, coeff in partial
                for d, tb, tc in fgl.pair_table(n, q, a, b)
                if deg + d <= cap
            ]
        for exps, _, beta, coeff in partial:
            key = (exps, beta)
            free[key] = free.get(key, 0) + coeff
    free_poly = {(poly._strip(e), (), be): c for (e, be), c in free.items()}
    return normal_form(poly.BetaPolynomial(free_poly), n)


def dl_class(query: DLQuery, strict: bool = False) -> DLResult:
    """Class of the closure of the Deligne-Lusztig variety X(w), expanded
    in the Schubert basis.

    For theory CH (resp. K0) the element and the expansion coefficients
    are the beta = 0 (resp. beta = 1) specializations of the CK result;
    the coefficients then sit on the correspondingly specialized
    Schubert classes.
    """
    query.validate(strict=strict)
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
