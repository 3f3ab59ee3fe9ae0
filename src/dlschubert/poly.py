"""Exact sparse polynomials over ZZ in two alphabets x1.., y1.. and a
formal parameter beta.

``SparseTerms`` is the core shared with the quotient-ring elements of
``flagring``: a dict of nonzero int coefficients whose keys end in the
beta exponent.  It holds everything that does not depend on the ring:
addition, subtraction, negation, powers, equality, int scaling, the
beta specializations and the ``ring_*`` hooks.  ``BetaPolynomial`` adds
the free double-polynomial key, its multiplication, the variable
operations, rendering and JSON.

A monomial is keyed by ``(x_exp, y_exp, beta_exp)`` where the exponent
tuples have trailing zeros stripped, so structural dict equality is
polynomial equality.  Coefficients are arbitrary-precision ints.

Grading used throughout: deg x_i = deg y_j = 1 and deg beta = -1, which
makes the divided-difference weights ``1 + beta*x`` degree homogeneous.

JSON interchange: a polynomial is an array of term objects
``{"beta": k, "x": [..], "y": [..], "coeff": "<decimal>"}`` in the
canonical term order (graded, then descending x then y exponents, then
beta exponent).  Coefficients are decimal strings to keep big integers
intact across JSON implementations.
"""

from __future__ import annotations

from typing import Iterable, Mapping

Monomial = tuple[tuple[int, ...], tuple[int, ...], int]


class ExactDivisionError(ArithmeticError):
    """Raised when a polynomial is not divisible by x_i - x_{i+1}."""


def _strip(exp: Iterable[int]) -> tuple[int, ...]:
    t = tuple(exp)
    while t and t[-1] == 0:
        t = t[:-1]
    return t


def _exp_at(exp: tuple[int, ...], i: int) -> int:
    return exp[i - 1] if len(exp) >= i else 0


def _set_exp(exp: tuple[int, ...], i: int, value: int) -> tuple[int, ...]:
    lst = list(exp) + [0] * (i - len(exp))
    lst[i - 1] = value
    return _strip(lst)


def _add_exp(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    # longest operand is stripped, so the sum needs no re-stripping
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return a
    return tuple(x + y for x, y in zip(a, b + (0,) * (len(a) - len(b))))


def _collect(items: Iterable[tuple], out: dict | None = None) -> dict:
    """Add each (key, coeff) of items into out (a new dict by default),
    dropping every key whose sum cancels to zero at once; returns out."""
    out = {} if out is None else out
    for m, c in items:
        nc = out.get(m, 0) + c
        if nc:
            out[m] = nc
        else:
            out.pop(m, None)
    return out


class SparseTerms:
    """A sparse element over ZZ[beta]: {key: nonzero coeff}, where the
    last entry of every key is the beta exponent.

    A subclass fixes the ring.  It defines ``_new(terms)``, the element
    of self's ring with the nonzero terms of that dict, and
    ``_unit(be)``, the key of beta^be; it overrides ``_ring()`` when
    elements of different rings of its type exist, which then do not
    mix; and it defines its own ``__mul__`` (with ``__rmul__ =
    __mul__``), handing an int to ``_scale``.
    """

    __slots__ = ("_terms", "__weakref__")

    def _ring(self):
        return None

    def _check(self, other: "SparseTerms") -> None:
        if self._ring() != other._ring():
            raise ValueError(f"ring size mismatch: {self._ring()} vs {other._ring()}")

    def _operand(self, other):
        """other as an element of self's type, or NotImplemented."""
        if isinstance(other, int):
            return self._new({self._unit(0): other})
        return other if isinstance(other, type(self)) else NotImplemented

    # -- ring structure ----------------------------------------------

    def __add__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return other
        self._check(other)
        return self._new(_collect(other._terms.items(), dict(self._terms)))

    __radd__ = __add__

    def __neg__(self):
        return self._scale(-1)

    def __sub__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return other
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def _scale(self, c: int):
        return self._new({m: v * c for m, v in self._terms.items()})

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative power")
        result = self.ring_one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return other
        return self._ring() == other._ring() and self._terms == other._terms

    __hash__ = None  # mutable payload; not intended as a dict key

    def __bool__(self):
        return bool(self._terms)

    # -- inspection ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> dict:
        return dict(self._terms)

    def num_terms(self) -> int:
        return len(self._terms)

    def beta_component(self, k: int):
        """The terms with beta exponent k."""
        return self._new({m: c for m, c in self._terms.items() if m[-1] == k})

    # -- beta ----------------------------------------------------------

    def specialize_beta(self, value: int):
        """Substitute a concrete integer for beta (the rest stays formal)."""
        out: dict = {}
        for m, c in self._terms.items():
            key = m[:-1] + (0,) if m[-1] else m
            out[key] = out.get(key, 0) + c * value ** m[-1]
        return self._new(out)

    def flip_beta_sign(self):
        """Substitute beta -> -beta; an involution."""
        return self._new({m: (-c if m[-1] % 2 else c) for m, c in self._terms.items()})

    # generic ring hooks used by substitute() and the formal-group ops
    def ring_zero(self):
        return self._new({})

    def ring_one(self):
        return self._new({self._unit(0): 1})

    def ring_beta(self):
        return self._new({self._unit(1): 1})


class BetaPolynomial(SparseTerms):
    __slots__ = ()

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        # assumes keys already have stripped exponent tuples
        self._terms = {m: c for m, c in (terms or {}).items() if c}

    def _new(self, terms):
        return BetaPolynomial(terms)

    def _unit(self, be: int):
        return ((), (), be)

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls) -> "BetaPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "BetaPolynomial":
        return cls({((), (), 0): 1})

    @classmethod
    def const(cls, c: int) -> "BetaPolynomial":
        return cls({((), (), 0): c})

    @classmethod
    def x(cls, i: int) -> "BetaPolynomial":
        if i < 1:
            raise ValueError("variable indices are 1-based")
        return cls({(_set_exp((), i, 1), (), 0): 1})

    @classmethod
    def y(cls, j: int) -> "BetaPolynomial":
        if j < 1:
            raise ValueError("variable indices are 1-based")
        return cls({((), _set_exp((), j, 1), 0): 1})

    @classmethod
    def beta(cls) -> "BetaPolynomial":
        return cls({((), (), 1): 1})

    @classmethod
    def term(cls, coeff: int, x: Iterable[int] = (), y: Iterable[int] = (),
             beta: int = 0) -> "BetaPolynomial":
        if beta < 0:
            raise ValueError("beta exponent must be >= 0")
        return cls({(_strip(x), _strip(y), beta): coeff})

    # -- ring structure ----------------------------------------------

    def __mul__(self, other):
        if isinstance(other, int):
            return self._scale(other)
        if not isinstance(other, BetaPolynomial):
            return NotImplemented
        return BetaPolynomial(_collect(
            ((_add_exp(xa, xb), _add_exp(ya, yb), ba + bb), ca * cb)
            for (xa, ya, ba), ca in self._terms.items()
            for (xb, yb, bb), cb in other._terms.items()
        ))

    __rmul__ = __mul__

    def __repr__(self):
        return f"BetaPolynomial({render(self)!r})"

    # -- inspection ---------------------------------------------------

    def coefficient(self, x: Iterable[int] = (), y: Iterable[int] = (),
                    beta: int = 0) -> int:
        return self._terms.get((_strip(x), _strip(y), beta), 0)

    def constant_term(self) -> int:
        return self._terms.get(((), (), 0), 0)

    def max_x_index(self) -> int:
        return max((len(xe) for (xe, _, _) in self._terms), default=0)

    def max_y_index(self) -> int:
        return max((len(ye) for (_, ye, _) in self._terms), default=0)

    def min_xy_degree(self) -> int:
        """Smallest |x|+|y| over the support; 0 for the zero polynomial."""
        return min((sum(xe) + sum(ye) for (xe, ye, _) in self._terms), default=0)

    def graded_degree(self) -> int | None:
        """Common value of |x|+|y|-beta_exp, or None if inhomogeneous."""
        degs = {sum(xe) + sum(ye) - be for (xe, ye, be) in self._terms}
        if len(degs) > 1:
            return None
        return degs.pop() if degs else 0

    def xy_degree_component(self, d: int) -> "BetaPolynomial":
        return BetaPolynomial({
            m: c for m, c in self._terms.items() if sum(m[0]) + sum(m[1]) == d
        })

    # -- variable operations -------------------------------------------

    def swap_x(self, i: int) -> "BetaPolynomial":
        """Exchange x_i and x_{i+1} in every monomial."""
        out: dict[Monomial, int] = {}
        for (xe, ye, be), c in self._terms.items():
            a, b = _exp_at(xe, i), _exp_at(xe, i + 1)
            m = (_set_exp(_set_exp(xe, i, b), i + 1, a), ye, be)
            out[m] = out.get(m, 0) + c
        return BetaPolynomial(out)

    def negate_y(self) -> "BetaPolynomial":
        """Substitute y_j -> -y_j for every j."""
        return BetaPolynomial({
            m: (-c if sum(m[1]) % 2 else c) for m, c in self._terms.items()
        })

    def set_y_zero(self) -> "BetaPolynomial":
        """Substitute y_j -> 0 for every j."""
        return BetaPolynomial({
            m: c for m, c in self._terms.items() if not m[1]
        })

    def substitute(self, xmap: Mapping[int, object], ymap: Mapping[int, object]):
        """Ring-homomorphic image with x_i -> xmap[i], y_j -> ymap[j].

        Targets must all live in one ring (BetaPolynomial or a quotient
        ring element type providing +, *, int scaling and the ring_*
        hooks); beta maps to that ring's beta.  Every variable occurring
        in self must be mapped; beta itself is never substituted.
        """
        proto = None
        for v in list(xmap.values()) + list(ymap.values()):
            proto = v
            break
        if proto is None:
            proto = BetaPolynomial.zero()
        acc = proto.ring_zero()
        beta = proto.ring_beta()
        one = proto.ring_one()
        powers: dict[tuple[str, int, int], object] = {}

        def power(kind: str, idx: int, base, e: int):
            key = (kind, idx, e)
            got = powers.get(key)
            if got is None:
                got = one
                for _ in range(e):
                    got = got * base
                powers[key] = got
            return got

        for (xe, ye, be), c in self._terms.items():
            val = one if be == 0 else power("b", 0, beta, be)
            for i, e in enumerate(xe, start=1):
                if e:
                    if i not in xmap:
                        raise ValueError(f"unmapped variable x{i}")
                    val = val * power("x", i, xmap[i], e)
            for j, e in enumerate(ye, start=1):
                if e:
                    if j not in ymap:
                        raise ValueError(f"unmapped variable y{j}")
                    val = val * power("y", j, ymap[j], e)
            acc = acc + c * val
        return acc

    def exact_divide_by_difference(self, i: int) -> "BetaPolynomial":
        """Exact quotient by (x_i - x_{i+1}).

        Long division in x_i, eliminating the leading x_i-degree each
        pass; raises ExactDivisionError when a nonzero remainder would
        be left (kept as a hard error: inexactness here means a
        divided-difference numerator was built wrongly).
        """
        if i < 1:
            raise ValueError("variable indices are 1-based")
        rem = dict(self._terms)
        quo: dict[Monomial, int] = {}
        while rem:
            d = max(_exp_at(xe, i) for (xe, _, _) in rem)
            if d == 0:
                raise ExactDivisionError(
                    f"polynomial is not divisible by x{i} - x{i + 1}"
                )
            # x_i^d r = (x_i - x_{i+1}) x_i^(d-1) r + x_{i+1} x_i^(d-1) r
            lead = [(m, c) for m, c in rem.items() if _exp_at(m[0], i) == d]
            for m, _ in lead:
                del rem[m]
            shifted = [((_set_exp(xe, i, d - 1), ye, be), c)
                       for (xe, ye, be), c in lead]
            _collect(shifted, quo)
            _collect((((_set_exp(xe, i + 1, _exp_at(xe, i + 1) + 1), ye, be), c)
                      for (xe, ye, be), c in shifted), rem)
        return BetaPolynomial(quo)


# -- canonical ordering, rendering, JSON -------------------------------


def sorted_terms(p: BetaPolynomial) -> list[tuple[tuple[int, ...], tuple[int, ...], int, int]]:
    """Terms as (x_exp, y_exp, beta_exp, coeff) in canonical order:
    graded by |x|+|y|, then descending lex on x_exp, then y_exp, then
    ascending beta_exp.

    The stripped exponent tuples compare as their zero-padded forms
    would (a stripped tuple that extends another ends in a positive
    entry), so one reversed sort on them gives that order."""

    def key(item):
        (xe, ye, be), _ = item
        return (-(sum(xe) + sum(ye)), xe, ye, -be)

    return [
        (xe, ye, be, c)
        for (xe, ye, be), c in sorted(p._terms.items(), key=key, reverse=True)
    ]


def format_terms(entries, fmt: str, xsym: str = "x", ysym: str = "y") -> str:
    """Shared pretty-printer; entries are (x_exp, y_exp, beta_exp, coeff)
    already in output order."""
    if fmt == "plain":
        beta, beta_pow, var, var_pow, joiner = "beta", "beta^%d", "%s%d", "%s%d^%d", "*"
    elif fmt == "latex":
        beta, beta_pow, var, var_pow, joiner = (
            r"\beta", r"\beta^{%d}", "%s_{%d}", "%s_{%d}^{%d}", " ")
    else:
        raise ValueError(f"unknown format: {fmt!r}")
    pieces: list[str] = []
    # (alphabet, exponents) -> its factors joined; few distinct per call
    parts: dict[tuple[str, tuple[int, ...]], str] = {}
    for xe, ye, be, c in entries:
        factors = [beta] if be == 1 else [beta_pow % be] if be > 1 else []
        for sym, exps in ((xsym, xe), (ysym, ye)):
            part = parts.get((sym, exps))
            if part is None:
                part = parts[(sym, exps)] = joiner.join(
                    var % (sym, i) if e == 1 else var_pow % (sym, i, e)
                    for i, e in enumerate(exps, start=1) if e > 0
                )
            if part:
                factors.append(part)
        mag = abs(c)
        if mag != 1 or not factors:
            factors.insert(0, str(mag))
        if pieces:
            pieces.append(" - " if c < 0 else " + ")
        elif c < 0:
            pieces.append("-")
        pieces.append(joiner.join(factors))
    return "".join(pieces) if pieces else "0"


def render(p: BetaPolynomial, fmt: str = "plain") -> str:
    """Deterministic human-readable form; fmt is "plain" or "latex"."""
    return format_terms(sorted_terms(p), fmt)


def to_json_terms(p: BetaPolynomial) -> list[dict]:
    return [
        {"beta": be, "x": list(xe), "y": list(ye), "coeff": str(c)}
        for xe, ye, be, c in sorted_terms(p)
    ]


def from_json_terms(terms: list[dict]) -> BetaPolynomial:
    out: dict[Monomial, int] = {}
    for t in terms:
        m = (_strip(t.get("x", ())), _strip(t.get("y", ())), int(t["beta"]))
        out[m] = out.get(m, 0) + int(t["coeff"])
    return BetaPolynomial(out)
