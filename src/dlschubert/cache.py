"""On-disk cache for computed polynomial families.

One JSON file per entry, keyed by (family, w, n), holding "version",
"family", "w", "n", "terms" and "checksum".  "terms" is itself a JSON
text string of rows ``[beta, [x exponents], [y exponents], coeff]``
with integer coefficients, in the member's own term order, and
"checksum" is the sha256 of that string's UTF-8 bytes.  So a hit
hashes the string as stored and parses it once, and a write formats
one string per term; neither builds per-term objects to serialize.

Every hit is checked: an entry that is unreadable, of another format
version, family, n or w, checksum-mismatched, or malformed (a row
that is not integers and integer lists) is discarded with a
``CacheWarning`` and recomputed, and so is an entry whose polynomial
is not homogeneous of graded degree length(w), which no family member
can be.  A hit deserializes to the term dictionary of the computation
that wrote the entry, in that computation's order; the chain down from
the top product and the Cauchy identity order the terms differently.
Nothing reads that order: polynomials compare as dicts, and
``poly.render`` and ``poly.to_json_terms`` sort, so output is
byte-identical whichever route or entry gave the member.

Bump ``FORMAT_VERSION`` whenever the entry layout or the convention of
a stored family (such as its beta sign) changes: an entry of another
version is discarded and rewritten, so a cache directory filled by an
older engine never yields a value in the old convention.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from pathlib import Path

from . import perm, poly
from .poly import BetaPolynomial

FORMAT_VERSION = 2
ENV_CACHE_DIR = "DLSCHUBERT_CACHE_DIR"

# every byte a terms string may hold; JSON text made of these parses
# to nothing but ints and lists
_TERMS_ALPHABET = b"0123456789-,[]"


class CacheWarning(UserWarning):
    pass


def _checksum(terms: str) -> str:
    # surrogatepass: a tampered entry may hold lone surrogates, which
    # must fail the comparison rather than raise
    return hashlib.sha256(terms.encode("utf-8", "surrogatepass")).hexdigest()


def _encode_terms(value: BetaPolynomial) -> str:
    """The terms string of value, one formatted row per term; each
    distinct exponent tuple is formatted once."""
    lists: dict[tuple[int, ...], str] = {}

    def text(exp: tuple[int, ...]) -> str:
        s = lists.get(exp)
        if s is None:
            s = lists[exp] = "[" + ",".join(map(str, exp)) + "]"
        return s

    return "[" + ",".join(
        f"[{be},{text(xe)},{text(ye)},{c}]" for (xe, ye, be), c in value.terms().items()
    ) + "]"


def _decode_terms(terms: str) -> BetaPolynomial:
    """The polynomial of a terms string, with exponents stripped as
    ``poly.from_json_terms`` strips them; raises ValueError or
    TypeError on a row that is not integers and integer lists."""
    payload = terms.encode("ascii")
    if payload.translate(None, _TERMS_ALPHABET):
        raise ValueError("terms hold a character outside [0-9,-[]]")
    # only ints and lists remain, so a row of another shape fails the
    # unpacking, the type test, tuple() or the hash of a nested list
    stripped: dict[tuple, tuple[int, ...]] = {}
    out: dict[poly.Monomial, int] = {}
    for be, x, y, c in json.loads(payload):
        if type(be) is not int or type(c) is not int:
            raise TypeError(f"row with beta {be!r} and coeff {c!r} is not integer")
        x, y = tuple(x), tuple(y)
        xe = stripped.get(x)
        if xe is None:
            xe = stripped[x] = poly._strip(x)
        ye = stripped.get(y)
        if ye is None:
            ye = stripped[y] = poly._strip(y)
        m = (xe, ye, be)
        out[m] = out.get(m, 0) + c
    return BetaPolynomial(out)


def _discard(message: str) -> None:
    # stacklevel 3: the caller of PolynomialCache.get
    warnings.warn(message, CacheWarning, stacklevel=3)


class PolynomialCache:
    def __init__(self, directory: str | os.PathLike):
        self.directory = Path(directory)

    def _path(self, family: str, w: perm.Permutation, n: int) -> Path:
        tag = "-".join(str(v) for v in w)
        return self.directory / f"{family}_n{n}_w{tag}.json"

    def get(self, family: str, w: perm.Permutation, n: int) -> BetaPolynomial | None:
        path = self._path(family, w, n)
        if not path.exists():
            return None
        try:
            data = json.loads(path.read_bytes())
        except (OSError, ValueError) as exc:  # ValueError: bad JSON or bad UTF-8
            return _discard(f"discarding unreadable cache entry {path.name}: {exc}")
        if (
            not isinstance(data, dict)
            or data.get("version") != FORMAT_VERSION
            or data.get("family") != family
            or data.get("n") != n
            or data.get("w") != perm.format_permutation(w)
            or not isinstance(data.get("terms"), str)
            or data.get("checksum") != _checksum(data["terms"])
        ):
            return _discard(f"discarding stale or corrupt cache entry {path.name}")
        try:
            value = _decode_terms(data["terms"])
        except (TypeError, ValueError) as exc:
            return _discard(f"discarding malformed cache entry {path.name}: {exc}")
        if value.graded_degree() != perm.length(w):
            return _discard(
                f"discarding cache entry {path.name}: its polynomial is not "
                f"homogeneous of degree length(w) = {perm.length(w)}"
            )
        return value

    def put(self, family: str, w: perm.Permutation, n: int, value: BetaPolynomial) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        terms = _encode_terms(value)
        data = {
            "version": FORMAT_VERSION,
            "family": family,
            "w": perm.format_permutation(w),
            "n": n,
            "terms": terms,
            "checksum": _checksum(terms),
        }
        path = self._path(family, w, n)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(data, sort_keys=True, separators=(",", ":")))
        tmp.replace(path)

    def clear(self) -> int:
        """Remove all cache entries; returns how many were deleted."""
        if not self.directory.exists():
            return 0
        count = 0
        for path in self.directory.glob("*.json"):
            path.unlink()
            count += 1
        return count
