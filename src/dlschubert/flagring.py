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

Rows are keyed by plain staircase index, with no beta exponent: with
deg beta = -1, an element homogeneous of degree d has terms
c beta^(|m| - d) x^m, so it is its beta = 1 image, an integer row
{index: c}, lifted by degree.  Reduced monomials, the rows of phi_i
(taken at beta = 1) and the Schubert classes (_class_row, lifted by
length(w)) are such rows, and so are dlclass's Frobenius images and
class sums.  The lift to formal beta lives in two places only:
from_slots(n, slots, d) builds the element, and
schubert_expand_slots(n, slots, 1, d) its expansion, each coordinate c
at w lifted to c beta^(length(w) - d).  Only the general product and
normal_form, whose inputs need not be homogeneous, key their sums by
(index, beta exponent).

The lead of a class, the lex-largest monomial of its x-degree
length(w) part, has coefficient +-1 and differs for each w (_leads
checks both).  Ordered by degree and then by descending lead, the
classes are unitriangular against their leads, so expansion is one
pass of integer subtractions of class rows from a residual keyed by
staircase index, at beta = 0 or 1.  A class row lists its beta^0 part,
its terms of degree length(w), first, so at beta = 0 the pass reads a
prefix of each row.  schubert_expand turns an element's tuple keys
into indices, one residual per degree, and lifts each.
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


@functools.lru_cache(maxsize=None)
def _indices(n: int) -> dict[tuple[int, ...], int]:
    """{staircase monomial: its index} for S_n, the inverse of _staircase
    over the whole basis."""
    return {m: i for i, m in enumerate(staircase_monomials(n))}


@functools.lru_cache(maxsize=None)
def _degrees(n: int) -> tuple[int, ...]:
    """The x-degree of each staircase monomial of S_n, by index."""
    return tuple(map(sum, staircase_monomials(n)))


@functools.lru_cache(maxsize=None)
def _keys(n: int) -> dict[int | None, dict[int, TermKey]]:
    """The term keys that from_slots(n, .., d) has built so far, {d:
    {staircase index: (staircase exponents, beta exponent)}}: elements
    share these tuples instead of each building its own."""
    return {}


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


# n -> {code: normal form as ((staircase index, coeff), ..)}, read by the
# rows of phi_i, the ring product and dlclass's product kernel
_REDUCE_MEMO: dict[int, dict[int, tuple[tuple[int, int], ...]]] = {}


def _reduce_exps(n: int, exps: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """Normal form of the monomial x^exps as ((staircase index, coeff),
    ..); exps may leave out trailing zeros.

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
            memo[m] = ((_index(m >> k * width & field for k in range(n)), 1),)
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
            for i, sc in memo[child]:
                out[i] = out.get(i, 0) - sc
        memo[m] = tuple((i, c) for i, c in out.items() if c)
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
    def from_slots(cls, n: int, slots: Mapping[int, int], d: int | None = None) -> "FlagRingElement":
        """The element with coefficient c at the staircase monomial x^m of
        each index of {staircase index: c}, beta-free, or, given d, lifted
        from beta = 1 as an element homogeneous of degree d: c beta^(|m| - d)
        x^m.  Its term keys are the shared tuples of _keys(n)."""
        keys = _keys(n).setdefault(d, {})
        terms = {}
        for i, c in slots.items():
            if c:
                key = keys.get(i)
                if key is None:
                    m = _staircase(n, i)
                    key = keys[i] = (m, 0 if d is None else sum(m) - d)
                terms[key] = c
        element = cls(n)
        element._terms = terms
        return element

    @classmethod
    def _from_sums(cls, n: int, sums: Mapping[tuple[int, int], int]) -> "FlagRingElement":
        """The element with coefficient c at each (staircase index, beta
        exponent) of {(index, exponent): c}."""
        return cls(n, {(_staircase(n, i), be): c for (i, be), c in sums.items()})

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
        return FlagRingElement._from_sums(n, poly._collect(
            ((i, ba + bb), ca * cb * sc)
            for ka, da, ba, ca in a
            for kb, db, bb, cb in b if da + db <= n * (n - 1) // 2
            for i, sc in _reduce_code(n, ka + kb)
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
    i > n.
    """
    if p.max_y_index():
        raise ValueError("polynomial mentions y variables; substitute them first")
    if p.max_x_index() > n:
        raise ValueError(
            f"polynomial mentions x{p.max_x_index()} but the ring has n={n}"
        )
    return FlagRingElement._from_sums(n, poly._collect(
        ((i, be), c * sc)
        for (xe, _, be), c in p.terms().items()
        for i, sc in _reduce_exps(n, xe)
    ))


# -- Schubert classes and expansion ------------------------------------


@functools.lru_cache(maxsize=None)
def _phi_row(n: int, i: int, j: int) -> tuple[int, ...]:
    """Normal form at beta = 1 of the beta-sign-flipped phi_i(x^m), for
    the staircase monomial x^m of index j, as a flat (index, coeff, ..)
    tuple: d_i x^m - d_i(x_{i+1} x^m), whose parts have degrees |m| - 1
    and |m|, so a term's beta exponent is read back from its degree."""
    terms = poly._collect(
        (k, (-s if b else s) * sc)
        for x, b, s in betapoly._phi_images(_staircase(n, j), i)
        for k, sc in _reduce_exps(n, x)
    )
    return tuple(v for item in terms.items() for v in item)


@functools.lru_cache(maxsize=None)
def _class_row(w: perm.Permutation, n: int) -> tuple[int, ...]:
    """The class of w at beta = 1 as a flat (staircase index, coeff, ..)
    tuple, its terms of degree length(w), its beta^0 part, first.

    It starts from the point class at the longest element and walks down
    the right ascent i that betapoly.double_beta_polynomial takes,
    mapping each term c x^m of the class above by c times the row
    _phi_row(n, i, index of m).
    """
    if w == perm.longest_element(n):
        # x1^(n-1) .. x_(n-1), by the top degree sign rule (module docstring)
        return (_index(range(n)), (-1) ** (n * (n - 1) // 2))
    i = perm.right_ascents(w)[0]
    out: dict[int, int] = {}
    get = out.get
    row = iter(_class_row(perm.times_s(w, i), n))
    for j, c in zip(row, row):
        phi = iter(_phi_row(n, i, j))
        for k, pc in zip(phi, phi):
            out[k] = get(k, 0) + c * pc
    degrees, length = _degrees(n), perm.length(w)
    terms = sorted((kc for kc in out.items() if kc[1]), key=lambda kc: degrees[kc[0]] > length)
    return tuple(v for kc in terms for v in kc)


@functools.lru_cache(maxsize=None)
def schubert_class(w: perm.Permutation, n: int | None = None) -> FlagRingElement:
    """Class of the codimension-length(w) Schubert variety Omega_w.

    Equal to the normal form of the beta-sign-flipped double beta
    polynomial of w with y -> 0, but never builds that polynomial: it is
    the integer row _class_row(w, n) lifted by degree, each c x^m to
    c beta^(|m| - length(w)) x^m.
    """
    w, n = betapoly._resolve(w, n)
    row = iter(_class_row(w, n))
    return FlagRingElement.from_slots(n, dict(zip(row, row)), perm.length(w))


# n -> (leads, rows), the Schubert basis as integer rows, filled by
# _leads: leads[k] is the staircase index of the k-th lead in expansion
# order and rows[k] = (rank, w, sign, row, cut) its class, where rank is
# w's place by (length(w), w), row is _class_row(w, n) and row[:cut] its
# beta^0 part
_BASIS: dict[int, tuple[tuple[int, ...], tuple[tuple[int, perm.Permutation, int, tuple[int, ...], int], ...]]] = {}


@functools.lru_cache(maxsize=None)
def _leads(n: int) -> tuple[tuple[tuple[int, ...], perm.Permutation, int], ...]:
    """The Schubert basis as (lead monomial, w, sign) triples, sorted by
    degree and then by descending lead, read from the integer rows of the
    classes (_class_row), which the same pass stores in _BASIS[n].

    The lead of w is the lex-largest monomial, the largest index, of the
    beta-free part of its class (by gradedness, its part of x-degree
    length(w)), and sign is its coefficient.  A class meets no monomial
    of lower degree and no larger monomial of its own degree, so it is
    zero at every lead before its own: with unit signs and n! distinct
    leads the basis change is unitriangular in this order.  Otherwise
    SingularTransitionError is raised.
    """
    degrees = _degrees(n)
    found: dict[int, tuple[perm.Permutation, int, tuple[int, ...], int]] = {}
    for w in perm.all_permutations(n):
        row, length = _class_row(w, n), perm.length(w)
        low = [(j, c) for j, c in zip(row[::2], row[1::2]) if degrees[j] == length]
        lead, sign = max(low, default=(None, 0))
        if sign not in (1, -1):
            raise SingularTransitionError(f"class of {w} has leading coefficient {sign}")
        if lead in found:
            raise SingularTransitionError(f"classes of {found[lead][0]} and {w} share a lead")
        found[lead] = (w, sign, row, 2 * len(low))
    order = sorted(found, key=lambda j: (degrees[j], -j))
    # the lead's degree is length(w)
    rank = {j: k for k, j in enumerate(sorted(found, key=lambda j: (degrees[j], found[j][0])))}
    _BASIS[n] = (tuple(order), tuple((rank[j], *found[j]) for j in order))
    return tuple((_staircase(n, j), *found[j][:2]) for j in order)


def clear_caches() -> None:
    """Empty every memo of the engine: the staircase index, its inverse
    and the degree of each index (_degrees), the shared term keys of
    from_slots (_keys), monomial codes and the codes of the rewriting
    relations, monomial reduction, the rows of phi_i on the staircase
    basis, the classes as integer rows (_class_row), Schubert classes as
    elements, their leads and the basis rows (_BASIS), the double
    beta-polynomial family and the single polynomials G_w(x) that the
    Cauchy identity sums (betapoly._SINGLE), the Cauchy factorizations
    of each w (betapoly._walk) and the permutation table of each n that
    they are walked on (betapoly._table), the series [q]t of the
    formal group law, and dlclass's memos: the code of each staircase
    index, w0 v^-1 w0 of each v (_duals), the images of F_q
    (x_i -> [q]x_i) at beta = 1 with the F_q images of the Schubert
    classes, a memo of (n, q), the y sides of each class's Cauchy
    factorizations, a memo of (w, n), and the Chow and identity rows
    over Z[q].

    None of these is bounded.  The Schubert basis of S_n leaves 271
    rows of phi_i at n = 5, 2,165 at n = 6 and 19,106 at n = 7 (381,
    3,015 and 28,786 reduced monomials), and n! class rows of 875
    (index, coeff) pairs at n = 5 (388 of them in the beta^0 prefixes),
    20,491 at n = 6 (5,685) and 725,198 at n = 7 (123,013); _BASIS
    shares the class rows.  The F_q images grow with every (n, q) of a
    CK or K0 class, which share them: all 120 classes of S_5 at
    q = 2, 3, 5 in each theory leave 360 monomial images with 3,967
    (index, coeff) pairs, 357 class images with 4,246 and three series.
    The Cauchy walks (119, with 1,779 groups by u and 10,619 pairs),
    one permutation table and one table of duals (120 entries each),
    the Cauchy sides (119 classes, 1,779 groups, 46,632
    (code, room, coeff) triples), the Chow rows (119, with 1,037 index
    rows), the identity rows (1), reduced monomials (682, 1,227 index
    pairs), decoded indices, their inverse and their codes (120 each)
    do not grow with q; the term keys (672, over 12 values of d) stay
    below n! (n(n-1)/2 + 2).  Such a process builds no family member
    and peaks at about 18 MB resident.  Only the CLI fills _SINGLE: a
    `betapoly` request for every member of S_5 leaves its 120 single
    polynomials with 807 terms (720 with 16,855 terms for S_6).
    """
    from . import dlclass, fgl  # imported here: both import this module

    _staircase.cache_clear()
    _indices.cache_clear()
    _degrees.cache_clear()
    _keys.cache_clear()
    _coding.cache_clear()
    _h_offsets.cache_clear()
    _REDUCE_MEMO.clear()
    _phi_row.cache_clear()
    _class_row.cache_clear()
    fgl.n_times_series.cache_clear()
    schubert_class.cache_clear()
    _leads.cache_clear()
    _BASIS.clear()
    betapoly.clear_cache()
    dlclass._codes.cache_clear()
    dlclass._duals.cache_clear()
    dlclass._FROBENIUS.clear()
    dlclass._cauchy_sides.cache_clear()
    dlclass._chow_rows.cache_clear()
    dlclass._identity_rows.cache_clear()


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

    It reads a's tuple keys once, into a residual keyed by staircase
    index, and expands that by the integer rows of _BASIS[n] in the
    order of _leads(n) (_expand).  The exact coordinates come from the
    beta = 1 expansion: with deg beta = -1, a's part of degree d (its
    terms c beta^e x^m with |m| - e = d) is expanded at beta = 1 on its
    own, and its coordinate c at w lifted to c beta^(length(w) - d).  A
    term off the staircase, or a residual left at the end, raises
    SingularTransitionError.
    """
    if beta not in (None, 0, 1):
        raise ValueError(f"beta must be None, 0 or 1, got {beta!r}")
    n = a.n
    index = _indices(n)
    parts: dict[int, dict[int, int]] = {}  # {degree: residual}, one part at beta = 0 or 1
    for (m, be), c in a._terms.items():
        if be and beta == 0:
            continue
        i = index.get(m)
        if i is None:
            raise SingularTransitionError(f"term x^{m} is not a staircase monomial of n={n}")
        residual = parts.setdefault(0 if beta is not None else sum(m) - be, {})
        residual[i] = residual.get(i, 0) + c
    if beta is not None:
        return _expand(n, parts.get(0, {}), beta)
    coefficients: dict[perm.Permutation, BetaScalar] = {}
    for d, residual in parts.items():
        for w, scalar in _expand(n, residual, 1, d).coefficients.items():
            coefficients.setdefault(w, {}).update(scalar)
    order = sorted(coefficients, key=lambda w: (perm.length(w), w))
    return SchubertExpansion(n, {w: coefficients[w] for w in order})


def schubert_expand_slots(n: int, slots: Mapping[int, int], beta: int, d: int | None = None) -> SchubertExpansion:
    """schubert_expand of FlagRingElement.from_slots(n, slots) at beta = 0
    or 1, read from the slots: the element is never built.  Given d, the
    slots hold the beta = 1 image of a class homogeneous of degree d, and
    the result is the exact expansion of from_slots(n, slots, d), lifted
    from beta = 1 (_expand)."""
    return _expand(n, dict(slots), beta, d)


def _expand(n: int, residual: dict[int, int], beta: int, d: int | None = None) -> SchubertExpansion:
    """The expansion at beta = 0 or 1 of the residual {staircase index:
    coeff} by the rows of _BASIS[n]; the residual is used up.

    The coordinate of w is its sign times the residual at its lead, and
    subtracting that multiple of the class's row zeroes it: the whole
    row at beta = 1, its beta^0 prefix at beta = 0.  The lead of a class
    is beta-free and a beta^k term has x-degree k above it, so the
    specialized basis is unitriangular in the same order.  Given d, the
    residual is the beta = 1 image of an element homogeneous of degree
    d, and each coordinate c of w is lifted to c beta^(length(w) - d):
    length(w) is the degree of w's lead."""
    if n not in _BASIS:
        _leads(n)
    leads, rows = _BASIS[n]
    degrees = _degrees(n)
    get = residual.get
    found = []
    for k, c in enumerate(map(get, leads, itertools.repeat(0))):
        if not c:
            continue
        rank, w, sign, row, cut = rows[k]
        c *= sign
        found.append((rank, w, {0 if d is None else degrees[leads[k]] - d: c}))
        it = iter(row) if beta else itertools.islice(row, cut)
        for i, cs in zip(it, it):
            residual[i] = get(i, 0) - c * cs
    if any(residual.values()):
        raise SingularTransitionError("expansion left a nonzero residual")
    found.sort()
    return SchubertExpansion(n, {w: scalar for _, w, scalar in found})


def point_coefficient(a: FlagRingElement) -> BetaScalar:
    """Coefficient of the point class (the longest element) in the
    Schubert expansion of a."""
    return dict(
        schubert_expand(a).coefficients.get(perm.longest_element(a.n), {})
    )
