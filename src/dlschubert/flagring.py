"""The connective K-theory ring of the full flag variety on n subspaces,
presented as ZZ[beta][x1..xn] modulo (e_1(x), ..., e_n(x)).

Normal forms live on the staircase basis: the n! monomials x^a with
a_k <= k-1.  Reduction rewrites x_k^k using the relation
h_k(x_k, ..., x_n) = 0 (complete homogeneous of degree k); these
relations generate the same ideal as the e_i and their leading terms
x_k^k are pairwise coprime, so the rewriting is confluent and the
result is independent of rewrite order.  The relations are homogeneous
in x, hence normal forms preserve the x-degree and the beta-grading,
and every monomial of degree above n(n-1)/2 is zero.

An element, FlagRingElement, is a ``poly.SparseTerms`` keyed by
(staircase exponents, beta exponent): the core gives it addition,
subtraction, powers, equality, scaling and the beta specializations.
It adds the ring size n (elements of different n do not mix), the
multiplication that reduces each product monomial, the staircase
accessors, rendering and JSON.

Schubert classes are indexed so that length(w) = codimension and are
computed inside the ring, never through the free ring.  The class of
the longest element is the point class x1^(n-1) x2^(n-2) ... x_(n-1),
which is (-1)^(n(n-1)/2) x2 x3^2 .. xn^(n-1): in the top degree, x^e
with e a permutation of 0..n-1 is sign(e) times the latter (the divided
difference of the longest element kills the ideal there).  Going down
a right ascent i applies the beta-sign-flipped divided difference
phi_i.  It is linear over ZZ[beta] and over symmetric polynomials, so
it maps the ideal into itself and acts on normal forms by rows: the
normal form of phi_i of a staircase monomial, built once per (n, i,
monomial).  The result is the normal form of the beta-sign-flipped
double beta polynomial of w with all y set to 0.

The lead of a class, the lex-largest monomial of its x-degree
length(w) part, has coefficient +-1 and differs for each w (_leads
checks both).  Ordered by degree and then by descending lead, the
classes are unitriangular against their leads, so expansion is one
pass of integer subtractions.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping

from . import betapoly, perm, poly
from .poly import BetaPolynomial

# ZZ[beta] scalar: {beta_exponent: coefficient}, zero values dropped
BetaScalar = dict[int, int]


class SingularTransitionError(ArithmeticError):
    """The Schubert classes are not unitriangular against their leads."""


def staircase_monomials(n: int) -> tuple[tuple[int, ...], ...]:
    """All n! exponent tuples a with a_k <= k-1 (1-based k)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return tuple(itertools.product(*[range(k + 1) for k in range(n)]))


# A slot packs a term key of a staircase basis element into one int:
# staircase index << _BETA_BITS | beta exponent.  A beta exponent of a
# class is at most its x-degree, so <= n(n-1)/2; products and normal
# forms refuse a beta exponent that would spill into the index.
_BETA_BITS = 16


def _index(m: Iterable[int]) -> int:
    """Position of a staircase monomial in staircase_monomials order."""
    index = 0
    for i, mi in enumerate(m):  # the exponent of x_{i+1} has radix i + 1
        index = index * (i + 1) + mi
    return index


@functools.lru_cache(maxsize=None)
def _staircase(n: int, index: int) -> tuple[int, ...]:
    """The staircase monomial at that index, the inverse of _index,
    without listing staircase_monomials(n) (12! entries at n = 12)."""
    exps = [0] * n
    for k in range(n - 1, 0, -1):
        index, exps[k] = divmod(index, k + 1)
    return tuple(exps)


def is_staircase(exps: tuple[int, ...]) -> bool:
    return all(e <= k for k, e in enumerate(exps))


@functools.lru_cache(maxsize=None)
def _coding(n: int) -> tuple[int, int, int]:
    """The integer code of a length-n exponent tuple, e_k in the width
    bits from k * width, as (width, probe, mask).  Rewriting keeps the
    degree, which _reduce_exps cuts above top = n(n-1)/2 < 2^(width-1),
    so no exponent passes top: adding the probe's 2^(width-1) - 1 - k to
    field k carries into no other field and sets the field's top bit,
    in mask, exactly when e_k > k."""
    width = (n * (n - 1) // 2).bit_length() + 1
    probe = sum(((1 << width - 1) - 1 - k) << k * width for k in range(n))
    mask = sum(1 << (k + 1) * width - 1 for k in range(n))
    return width, probe, mask


def _encode(exps: Iterable[int], width: int) -> int:
    return sum(e << k * width for k, e in enumerate(exps))


@functools.lru_cache(maxsize=None)
def _h_offsets(n: int, v: int) -> tuple[int, ...]:
    """The codes of the degree-v monomials of h_v(x_v, .., x_n) except the
    leading x_v^v: the children of a monomial whose x_v^v is rewritten
    are base + offset."""
    width = _coding(n)[0]
    codes = (
        sum(1 << k * width for k in ks)
        for ks in itertools.combinations_with_replacement(range(v - 1, n), v)
    )
    return tuple(c for c in codes if c != v << (v - 1) * width)


# n -> {code: normal form as ((slot, coeff), ..) at beta exponent 0}, read
# by the rows of phi_i, the ring product, dlclass's image kernel and its
# folds
_REDUCE_MEMO: dict[int, dict[int, tuple[tuple[int, int], ...]]] = {}


def _reduce_exps(n: int, exps: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """Normal form of the monomial x^exps as ((slot, coeff), ..) at beta
    exponent 0; exps may leave out trailing zeros.

    Monomials of degree above n(n-1)/2 are zero at once (no staircase
    monomial has that degree).
    """
    if sum(exps) > n * (n - 1) // 2:
        return ()
    return _reduce_code(n, _encode(exps, _coding(n)[0]))


def _reduce_code(n: int, code: int) -> tuple[tuple[int, int], ...]:
    """_reduce_exps of the monomial with that code, of degree at most
    n(n-1)/2.  The rewriting tree is walked with an explicit stack, not
    recursion, and every monomial met on the way is memoized."""
    memo = _REDUCE_MEMO.setdefault(n, {})
    got = memo.get(code)
    if got is not None:
        return got
    width, probe, mask = _coding(n)
    field = (1 << width) - 1
    stack = [code]
    while stack:
        m = stack.pop()
        if m in memo:
            continue
        flags = (m + probe) & mask
        if not flags:
            memo[m] = ((_index(m >> k * width & field for k in range(n)) << _BETA_BITS, 1),)
            continue
        # x_v^v = -(h_v(x_v, .., x_n) - x_v^v) at the first e_k > k, v = k + 1
        v = ((flags & -flags).bit_length() - 1) // width + 1
        base = m - (v << (v - 1) * width)
        children = [base + h for h in _h_offsets(n, v)]
        todo = [c for c in children if c not in memo]
        if todo:
            stack.append(m)
            stack.extend(todo)
            continue
        out: dict[int, int] = {}
        for child in children:
            for slot, sc in memo[child]:
                out[slot] = out.get(slot, 0) - sc
        memo[m] = tuple((slot, c) for slot, c in out.items() if c)
    return memo[code]


TermKey = tuple[tuple[int, ...], int]  # (exponents of length n, beta exponent)


class FlagRingElement(poly.SparseTerms):
    __slots__ = ("n",)

    def __init__(self, n: int, terms: Mapping[TermKey, int] | None = None):
        self.n = n
        self._terms = {m: c for m, c in (terms or {}).items() if c}

    def _new(self, terms):
        return FlagRingElement(self.n, terms)

    def _unit(self, be: int):
        return ((0,) * self.n, be)

    def _ring(self):
        return self.n

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "FlagRingElement":
        return cls(n)

    @classmethod
    def one(cls, n: int) -> "FlagRingElement":
        return cls(n, {((0,) * n, 0): 1})

    @classmethod
    def from_int(cls, n: int, c: int) -> "FlagRingElement":
        return cls(n, {((0,) * n, 0): c})

    @classmethod
    def x_gen(cls, n: int, i: int) -> "FlagRingElement":
        """The generator x_i, reduced to normal form."""
        if not 1 <= i <= n:
            raise ValueError(f"x{i} is not a generator for n={n}")
        return cls.from_slots(n, dict(_reduce_exps(n, (0,) * (i - 1) + (1,))))

    @classmethod
    def from_slots(cls, n: int, slots: Mapping[int, int]) -> "FlagRingElement":
        """The element with coefficient c at each slot of {slot: c}."""
        low = (1 << _BETA_BITS) - 1
        return cls(n, {(_staircase(n, s >> _BETA_BITS), s & low): c for s, c in slots.items()})

    @classmethod
    def beta(cls, n: int) -> "FlagRingElement":
        return cls(n, {((0,) * n, 1): 1})

    @classmethod
    def from_scalar(cls, n: int, scalar: BetaScalar) -> "FlagRingElement":
        return cls(n, {((0,) * n, be): c for be, c in scalar.items()})

    # -- ring structure --------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, int):
            return self._scale(other)
        if not isinstance(other, FlagRingElement):
            return NotImplemented
        self._check(other)
        n, width = self.n, _coding(self.n)[0]

        def coded(x):  # the code of a product monomial is the sum of codes
            return [(_encode(m, width), sum(m), be, c) for (m, be), c in x._terms.items()]

        a, b = coded(self), coded(other)
        if max((x[2] for x in a), default=0) + max((x[2] for x in b), default=0) >> _BETA_BITS:
            raise ValueError("a beta exponent of the product does not fit in a slot")
        return FlagRingElement.from_slots(n, poly._collect(
            (slot + ba + bb, ca * cb * sc)
            for ka, da, ba, ca in a
            for kb, db, bb, cb in b if da + db <= n * (n - 1) // 2
            for slot, sc in _reduce_code(n, ka + kb)
        ))

    __rmul__ = __mul__

    def __repr__(self):
        return f"FlagRingElement(n={self.n}, {self.render()!r})"

    # -- inspection -----------------------------------------------------

    def coefficient(self, exps: Iterable[int], beta: int = 0) -> int:
        return self._terms.get((tuple(exps), beta), 0)

    def constant_scalar(self) -> BetaScalar:
        """The ZZ[beta] coefficient of the monomial 1."""
        z = (0,) * self.n
        return {be: c for (m, be), c in self._terms.items() if m == z}

    def max_x_degree(self) -> int:
        return max((sum(m) for (m, _) in self._terms), default=0)

    def to_polynomial(self) -> BetaPolynomial:
        """The staircase representative as a free polynomial."""
        out = {}
        for (m, be), c in self._terms.items():
            out[(poly._strip(m), (), be)] = c
        return BetaPolynomial(out)

    # -- rendering / JSON ---------------------------------------------------

    def _sorted_entries(self):
        def key(item):
            (m, be), _ = item
            return (sum(m), tuple(-e for e in m), be)

        return [
            (m, (), be, c)
            for (m, be), c in sorted(self._terms.items(), key=key)
        ]

    def render(self, fmt: str = "plain") -> str:
        return poly.format_terms(self._sorted_entries(), fmt)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "basis": "staircase",
            "terms": [
                {"beta": be, "x": list(m), "coeff": str(c)}
                for m, _, be, c in self._sorted_entries()
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "FlagRingElement":
        n = int(data["n"])
        if data.get("basis", "staircase") != "staircase":
            raise ValueError(f"unknown basis: {data.get('basis')!r}")
        out: dict[TermKey, int] = {}
        for t in data["terms"]:
            exps = tuple(int(e) for e in t["x"])
            exps += (0,) * (n - len(exps))  # pad a stripped tuple to length n
            key = (exps, int(t["beta"]))
            if len(exps) > n or min(exps, default=0) < 0 or not is_staircase(exps) or key[1] < 0:
                raise ValueError(
                    f"term {t!r} is not a staircase monomial of n={n} with beta exponent >= 0"
                )
            out[key] = out.get(key, 0) + int(t["coeff"])
        return cls(n, out)


def normal_form(p: BetaPolynomial, n: int) -> FlagRingElement:
    """Image of a y-free polynomial in the quotient ring.

    Raises ValueError if p mentions any y variable or any x_i with
    i > n, or has a beta exponent that does not fit in a slot.
    """
    if p.max_y_index():
        raise ValueError("polynomial mentions y variables; substitute them first")
    if p.max_x_index() > n:
        raise ValueError(
            f"polynomial mentions x{p.max_x_index()} but the ring has n={n}"
        )
    if max((be for _, _, be in p.terms()), default=0) >> _BETA_BITS:
        raise ValueError("a beta exponent of the polynomial does not fit in a slot")
    return FlagRingElement.from_slots(n, poly._collect(
        (slot + be, c * sc)
        for (xe, _, be), c in p.terms().items()
        for slot, sc in _reduce_exps(n, xe)
    ))


# -- Schubert classes and expansion ------------------------------------


@functools.lru_cache(maxsize=None)
def _phi_row(n: int, i: int, m: tuple[int, ...]) -> tuple[int, ...]:
    """Normal form of the beta-sign-flipped phi_i(x^m), for a staircase
    monomial x^m, as a flat (slot, coeff, ..) tuple."""
    terms = poly._collect(
        (slot + k, (-s if k else s) * sc)
        for x, k, s in betapoly._phi_images(m, i)
        for slot, sc in _reduce_exps(n, x)
    )
    return tuple(v for item in terms.items() for v in item)


@functools.lru_cache(maxsize=None)
def schubert_class(w: perm.Permutation, n: int | None = None) -> FlagRingElement:
    """Class of the codimension-length(w) Schubert variety Omega_w.

    Equal to the normal form of the beta-sign-flipped double beta
    polynomial of w with y -> 0, but never builds that polynomial: it
    starts from the point class at the longest element and walks down
    the right ascent i that betapoly.double_beta_polynomial takes,
    mapping each term c beta^e x^m of the class above by c beta^e times
    the row _phi_row(n, i, m).
    """
    w, n = betapoly._resolve(w, n)
    if w == perm.longest_element(n):
        # x1^(n-1) .. x_(n-1), by the top degree sign rule (module docstring)
        return FlagRingElement(n, {(tuple(range(n)), 0): (-1) ** (n * (n - 1) // 2)})
    i = perm.right_ascents(w)[0]
    out: dict[int, int] = {}
    get = out.get
    for (m, e), c in schubert_class(perm.times_s(w, i), n)._terms.items():
        row = iter(_phi_row(n, i, m))
        for slot, rc in zip(row, row):
            slot += e
            out[slot] = get(slot, 0) + c * rc
    return FlagRingElement.from_slots(n, out)


@functools.lru_cache(maxsize=None)
def _leads(n: int) -> tuple[tuple[tuple[int, ...], perm.Permutation, int], ...]:
    """The Schubert basis as (lead monomial, w, sign) triples, sorted by
    degree and then by descending lead.

    The lead of w is the lex-largest monomial of the beta-free part of
    its class (by gradedness, its part of x-degree length(w)), and sign
    is its coefficient.  A class meets no monomial of lower degree and no
    larger monomial of its own degree, so it is zero at every lead before
    its own: with unit signs and n! distinct leads the basis change is
    unitriangular in this order.  Otherwise SingularTransitionError is
    raised.
    """
    found: dict[tuple[int, ...], tuple[perm.Permutation, int]] = {}
    for w in perm.all_permutations(n):
        part = {m: c for (m, be), c in schubert_class(w, n)._terms.items() if not be}
        lead = max(part, default=None)
        sign = part.get(lead, 0)
        if sign not in (1, -1):
            raise SingularTransitionError(f"class of {w} has leading coefficient {sign}")
        if lead in found:
            raise SingularTransitionError(f"classes of {found[lead][0]} and {w} share a lead")
        found[lead] = (w, sign)
    order = sorted(found, key=lambda m: (sum(m), tuple(-e for e in m)))
    return tuple((m, *found[m]) for m in order)


def clear_caches() -> None:
    """Empty every memo of the engine: the inverse of the staircase
    index, monomial codes and the codes of the rewriting relations,
    monomial reduction, the rows of phi_i on the staircase basis,
    Schubert classes and their leads, the double beta-polynomial family,
    its beta^0 chain and the single polynomials G_w(x) that the Cauchy
    identity sums (betapoly._SINGLE), the series [q]t and inverse(t) of
    the formal group law, the reduced Deligne-Lusztig monomial images, the product
    layouts they are built from and the slots they store, the pair forms
    of the family members they are summed over, a memo of (v, n), and
    the folds of the members' beta^e terms into polynomials in q, a memo
    of (v, n, e).

    None of these is bounded.  The Schubert basis of S_n leaves 271
    rows of phi_i at n = 5, 2,165 at n = 6 and 19,106 at n = 7 (381,
    3,015 and 28,786 reduced monomials).  The images grow with every
    (n, q) of a CK or K0 class: all 120 classes of S_5 at q = 2, 3, 5 in
    each theory leave 18,705 images with 173,243 entries, pair forms of
    89,531 terms and four series (three [q]t, one inverse(t)).  The
    family (120 members, 153,396 terms), its beta^0 chain (120 members,
    14,772 terms), the folds (239, with 1,038 slot rows at beta^0 and 22
    at the top), reduced monomials (2,508, 4,752 slot pairs), decoded
    indices (120) and layouts (5) do not grow with q, and the slots
    (481) stay below n! (n(n-1)/2 + 1).  Such a process peaks at about
    46 MB resident.  Only the CLI fills _SINGLE: a `betapoly` request
    for every member of S_5 leaves its 120 single polynomials with 807
    terms (720 with 16,855 terms for S_6).
    """
    from . import dlclass, fgl  # imported here: both import this module

    _staircase.cache_clear()
    _coding.cache_clear()
    _h_offsets.cache_clear()
    _REDUCE_MEMO.clear()
    _phi_row.cache_clear()
    fgl.n_times_series.cache_clear()
    fgl.inverse_series.cache_clear()
    schubert_class.cache_clear()
    _leads.cache_clear()
    betapoly.clear_cache()
    dlclass._IMAGES.clear()
    dlclass._pair_form.cache_clear()
    dlclass._fold.cache_clear()
    dlclass._layouts.cache_clear()
    dlclass._slots.cache_clear()


@dataclass
class SchubertExpansion:
    """Coordinates of a ring element in the Schubert-class basis.

    coefficients maps a permutation to its ZZ[beta] coefficient
    {beta_exponent: int}; permutations with zero coefficient are absent.
    to_json and render list them in dict order: schubert_expand builds
    them by length(w), then w, and specialize_beta and from_json keep
    the order they are given.
    """

    n: int
    coefficients: dict[perm.Permutation, BetaScalar]

    def reconstruct(self) -> FlagRingElement:
        acc = FlagRingElement.zero(self.n)
        for w, scalar in self.coefficients.items():
            acc = acc + FlagRingElement.from_scalar(self.n, scalar) * schubert_class(w, self.n)
        return acc

    def specialize_beta(self, value: int) -> "SchubertExpansion":
        out: dict[perm.Permutation, BetaScalar] = {}
        for w, scalar in self.coefficients.items():
            v = sum(c * value**be for be, c in scalar.items())
            if v:
                out[w] = {0: v}
        return SchubertExpansion(self.n, out)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "terms": [
                {
                    "w": perm.format_permutation(w),
                    "coeff": [
                        {"beta": be, "value": str(c)}
                        for be, c in sorted(scalar.items())
                    ],
                }
                for w, scalar in self.coefficients.items()
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "SchubertExpansion":
        coeffs: dict[perm.Permutation, BetaScalar] = {}
        for t in data["terms"]:
            w = perm.parse_permutation(t["w"])
            scalar = {int(e["beta"]): int(e["value"]) for e in t["coeff"]}
            scalar = {be: c for be, c in scalar.items() if c}
            if scalar:
                coeffs[w] = scalar
        return cls(int(data["n"]), coeffs)

    def render(self, fmt: str = "plain") -> str:
        lines = []
        for w, scalar in self.coefficients.items():
            s = poly.format_terms(
                [((), (), be, c) for be, c in sorted(scalar.items())], fmt
            )
            lines.append(f"{perm.format_permutation(w)}: {s}")
        return "\n".join(lines)


def schubert_expand(a: FlagRingElement, beta: int | None = None) -> SchubertExpansion:
    """Exact coordinates of a in the Schubert-class basis, or, at beta = 0
    or 1, those of a at that beta in the classes at that beta: the
    result is schubert_expand(a).specialize_beta(beta).

    One pass over _leads(n): the coordinate of w is its sign times the
    residual's row at its lead, and subtracting that multiple of the
    class in place zeroes the row.  At beta = 0 only the beta^0 terms of
    a class are subtracted, at beta = 1 every term at beta exponent 0.
    The lead of a class is beta-free and a beta^k term has x-degree k
    above it, so the specialized basis is unitriangular in the same
    order.  A residual left at the end (a term off the staircase) raises
    SingularTransitionError.
    """
    if beta not in (None, 0, 1):
        raise ValueError(f"beta must be None, 0 or 1, got {beta!r}")
    n = a.n
    residual: dict[tuple[int, ...], BetaScalar] = {}
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
        found.append((sum(lead), w, scalar))  # the lead's degree is length(w)
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


def point_coefficient(a: FlagRingElement) -> BetaScalar:
    """Coefficient of the point class (the longest element) in the
    Schubert expansion of a."""
    return dict(
        schubert_expand(a).coefficients.get(perm.longest_element(a.n), {})
    )
