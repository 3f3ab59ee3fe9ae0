"""On-disk cache for computed polynomial families.

One JSON file per entry, keyed by (family, w, n).  Entries carry a
format version and a sha256 checksum of the canonical term payload;
anything unreadable, version-skewed, or checksum-mismatched is
discarded with a warning and recomputed, and so is an entry whose
polynomial is not homogeneous of graded degree length(w), which no
family member can be.  Entries are written as compact JSON.  Cache
hits deserialize to the exact same term dictionary as a fresh
computation, so rendered output is byte-identical either way.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from pathlib import Path

from . import perm, poly
from .poly import BetaPolynomial

FORMAT_VERSION = 1
ENV_CACHE_DIR = "DLSCHUBERT_CACHE_DIR"


class CacheWarning(UserWarning):
    pass


def _terms_checksum(terms: list[dict]) -> str:
    payload = json.dumps(terms, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


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
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            warnings.warn(
                f"discarding unreadable cache entry {path.name}: {exc}",
                CacheWarning,
                stacklevel=2,
            )
            return None
        if (
            not isinstance(data, dict)
            or data.get("version") != FORMAT_VERSION
            or data.get("family") != family
            or data.get("n") != n
            or data.get("w") != perm.format_permutation(w)
            or "terms" not in data
            or data.get("checksum") != _terms_checksum(data["terms"])
        ):
            warnings.warn(
                f"discarding stale or corrupt cache entry {path.name}",
                CacheWarning,
                stacklevel=2,
            )
            return None
        try:
            value = poly.from_json_terms(data["terms"])
        except (KeyError, TypeError, ValueError) as exc:
            warnings.warn(
                f"discarding malformed cache entry {path.name}: {exc}",
                CacheWarning,
                stacklevel=2,
            )
            return None
        if value.graded_degree() != perm.length(w):
            warnings.warn(
                f"discarding cache entry {path.name}: its polynomial is not "
                f"homogeneous of degree length(w) = {perm.length(w)}",
                CacheWarning,
                stacklevel=2,
            )
            return None
        return value

    def put(self, family: str, w: perm.Permutation, n: int, value: BetaPolynomial) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        terms = poly.to_json_terms(value)
        data = {
            "version": FORMAT_VERSION,
            "family": family,
            "w": perm.format_permutation(w),
            "n": n,
            "terms": terms,
            "checksum": _terms_checksum(terms),
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
