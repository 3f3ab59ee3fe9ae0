"""Exact sparse polynomials over ZZ in two alphabets x1.., y1.. and a
formal parameter beta.

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

from typing import Callable, Iterable, Mapping

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


class BetaPolynomial:
    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        # assumes keys already have stripped exponent tuples
        self._terms = {m: c for m, c in (terms or {}).items() if c}

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

    def __add__(self, other):
        if isinstance(other, int):
            other = BetaPolynomial.const(other)
        if not isinstance(other, BetaPolynomial):
            return NotImplemented
        out = dict(self._terms)
        for m, c in other._terms.items():
            nc = out.get(m, 0) + c
            if nc:
                out[m] = nc
            else:
                out.pop(m, None)
        return BetaPolynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return BetaPolynomial({m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = BetaPolynomial.const(other)
        if not isinstance(other, BetaPolynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return BetaPolynomial.zero()
            return BetaPolynomial({m: c * other for m, c in self._terms.items()})
        if not isinstance(other, BetaPolynomial):
            return NotImplemented
        out: dict[Monomial, int] = {}
        for (xa, ya, ba), ca in self._terms.items():
            for (xb, yb, bb), cb in other._terms.items():
                m = (_add_exp(xa, xb), _add_exp(ya, yb), ba + bb)
                nc = out.get(m, 0) + ca * cb
                if nc:
                    out[m] = nc
                else:
                    out.pop(m, None)
        return BetaPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative power")
        result = BetaPolynomial.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, int):
            other = BetaPolynomial.const(other)
        if not isinstance(other, BetaPolynomial):
            return NotImplemented
        return self._terms == other._terms

    __hash__ = None  # mutable payload; not intended as a dict key

    def __bool__(self):
        return bool(self._terms)

    def __repr__(self):
        return f"BetaPolynomial({render(self)!r})"

    # -- inspection ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> dict[Monomial, int]:
        return dict(self._terms)

    def num_terms(self) -> int:
        return len(self._terms)

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

    def specialize_beta(self, value: int) -> "BetaPolynomial":
        """Substitute a concrete integer for beta (x, y stay formal)."""
        out: dict[Monomial, int] = {}
        for (xe, ye, be), c in self._terms.items():
            nc = out.get((xe, ye, 0), 0) + c * value**be
            m = (xe, ye, 0)
            if nc:
                out[m] = nc
            else:
                out.pop(m, None)
        return BetaPolynomial(out)

    def flip_beta_sign(self) -> "BetaPolynomial":
        """Substitute beta -> -beta; an involution."""
        return BetaPolynomial({
            m: (-c if m[2] % 2 else c) for m, c in self._terms.items()
        })

    # generic ring hooks used by substitute() and the formal-group ops
    def ring_zero(self):
        return BetaPolynomial.zero()

    def ring_one(self):
        return BetaPolynomial.one()

    def ring_beta(self):
        return BetaPolynomial.beta()

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
            lead = [(m, c) for m, c in rem.items() if _exp_at(m[0], i) == d]
            for (xe, ye, be), c in lead:
                qxe = _set_exp(xe, i, d - 1)
                qm = (qxe, ye, be)
                nc = quo.get(qm, 0) + c
                if nc:
                    quo[qm] = nc
                else:
                    quo.pop(qm, None)
                del rem[(xe, ye, be)]
                sxe = _set_exp(qxe, i + 1, _exp_at(qxe, i + 1) + 1)
                sm = (sxe, ye, be)
                nc = rem.get(sm, 0) + c
                if nc:
                    rem[sm] = nc
                else:
                    rem.pop(sm, None)
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
    if fmt not in ("plain", "latex"):
        raise ValueError(f"unknown format: {fmt!r}")
    pieces: list[str] = []
    for xe, ye, be, c in entries:
        factors: list[str] = []
        if fmt == "latex":
            if be == 1:
                factors.append(r"\beta")
            elif be > 1:
                factors.append(r"\beta^{%d}" % be)
            for i, e in enumerate(xe, start=1):
                if e == 1:
                    factors.append("%s_{%d}" % (xsym, i))
                elif e > 1:
                    factors.append("%s_{%d}^{%d}" % (xsym, i, e))
            for j, e in enumerate(ye, start=1):
                if e == 1:
                    factors.append("%s_{%d}" % (ysym, j))
                elif e > 1:
                    factors.append("%s_{%d}^{%d}" % (ysym, j, e))
            body = " ".join(factors)
            joiner = " "
        else:
            if be == 1:
                factors.append("beta")
            elif be > 1:
                factors.append(f"beta^{be}")
            for i, e in enumerate(xe, start=1):
                if e == 1:
                    factors.append(f"{xsym}{i}")
                elif e > 1:
                    factors.append(f"{xsym}{i}^{e}")
            for j, e in enumerate(ye, start=1):
                if e == 1:
                    factors.append(f"{ysym}{j}")
                elif e > 1:
                    factors.append(f"{ysym}{j}^{e}")
            body = "*".join(factors)
            joiner = "*"
        mag = abs(c)
        if mag != 1 or not factors:
            body = str(mag) + (joiner + body if body else "")
        if not pieces:
            pieces.append(("-" if c < 0 else "") + body)
        else:
            pieces.append((" - " if c < 0 else " + ") + body)
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
