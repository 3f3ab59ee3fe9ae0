"""Digests of outputs and the independent checks applied to answers.

Every answer is compared with a digest recorded from the engine at the
commit that introduced the benchmark (golden.json).  Where a route that
shares no code with the engine exists, the answer is checked against it
as well.  Nothing here imports the engine.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden.json"

_FACTOR = re.compile(r"^(?:(\d+)|(beta|x\d+|y\d+)(?:\^(\d+))?)$")


def digest_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest_result(result_json: dict) -> str:
    """Digest of a DLResult.to_json() document."""
    return digest_text(json.dumps(result_json, sort_keys=True))


def load_golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text())


def golden_error(key: str, digest: str, golden: dict[str, str]) -> str | None:
    want = golden.get(key)
    if want is None:
        return "no golden digest for this request"
    if digest != want:
        return "output differs from the golden digest"
    return None


def flag_count(n: int, q: int) -> int:
    """Number of complete flags in F_q^n, prod_i (1 + q + ... + q^(i-1));
    the same closed form as dlschubert.flag_count_oracle."""
    out = 1
    for i in range(1, n + 1):
        out *= sum(q**k for k in range(i))
    return out


def point_count_error(result_json: dict, n: int, q: int) -> str | None:
    """The class of the identity carries the number of rational flags as
    the beta^0 coefficient of the point class, in every theory."""
    w0 = "[" + ",".join(str(v) for v in range(n, 0, -1)) + "]"
    got = 0
    for term in result_json["expansion"]["terms"]:
        if term["w"] == w0:
            got = sum(int(c["value"]) for c in term["coeff"] if c["beta"] == 0)
    want = flag_count(n, q)
    return None if got == want else f"point coefficient {got}, expected {want} flags"


def graded_degree_error(text: str, length: int) -> str | None:
    """Every term of a plain-rendered double beta-polynomial has
    |x| + |y| - (beta exponent) = length(w)."""
    body = text.strip()
    if not body:
        return "empty output"
    for term in re.split(r" [+-] ", body.lstrip("-")):
        degree = 0
        for factor in term.split("*"):
            m = _FACTOR.match(factor)
            if m is None:
                return f"cannot parse factor {factor!r}"
            if m.group(2):
                e = int(m.group(3) or 1)
                degree += -e if m.group(2) == "beta" else e
        if degree != length:
            return f"term {term!r} has graded degree {degree}, expected {length}"
    return None


def inversions(w) -> int:
    return sum(1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j])


def cli_output_error(req, text: str) -> str | None:
    """Independent check of a CLI request's stdout: the flag count for
    the identity's class, the graded degree for a betapoly output."""
    if req.argv[0] == "dlclass":
        try:
            result_json = json.loads(text)
        except ValueError:
            return "stdout is not JSON"
        return point_count_error(result_json, req.n, req.q)
    return graded_degree_error(text, inversions(req.w))
