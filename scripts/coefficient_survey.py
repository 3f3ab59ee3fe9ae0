#!/usr/bin/env python3
"""Survey the Schubert-expansion coefficients of Deligne-Lusztig classes.

Computes the Chow-theory expansions of the classes of all X(w) closures
for w in S_n over a range of field sizes and reports, per (n, q):

  * whether any expansion coefficient is negative: none can be, since
    CH positivity is a theorem by the Chow closed form (see the
    dlschubert.verify docstring), so this is a check of the engine,
  * the largest coefficient seen and where it occurs,
  * the average support size of an expansion.

Example:
    python3 scripts/coefficient_survey.py --n-max 4 --qs 2 3 5

A reader that closes the output early (`| head`) ends the script
quietly with exit code 141, as it does `dlschubert`.
"""

from __future__ import annotations

import argparse
import sys
import time

from dlschubert import cli, perm, verify


def parse_args(argv: list[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n-min", type=int, default=2)
    ap.add_argument("--n-max", type=int, default=4, help="n=5 works but is slow")
    ap.add_argument("--qs", type=int, nargs="+", default=[2, 3, 5])
    ns = ap.parse_args(argv)
    if ns.n_min < 1 or ns.n_max < ns.n_min:
        ap.error("need 1 <= n-min <= n-max")
    return ns


def main(argv: list[str] | None = None) -> int:
    ns = parse_args(sys.argv[1:] if argv is None else argv)
    saw_negative = False
    for n in range(ns.n_min, ns.n_max + 1):
        for q in ns.qs:
            t0 = time.perf_counter()
            stats = verify.coefficient_survey(n, q)
            dt = time.perf_counter() - t0
            big, w, v = stats["biggest"]
            print(
                f"n={n} q={q}: {stats['classes']} classes, "
                f"avg support {stats['avg_support']:.2f}, "
                f"max coefficient {big} at "
                f"(w={perm.format_permutation(w)}, v={perm.format_permutation(v)}) "
                f"[{dt:.2f}s]"
            )
            for w, v, c in stats["negatives"]:
                saw_negative = True
                print(
                    f"  NEGATIVE: coefficient {c} on {perm.format_permutation(v)} "
                    f"in the class of {perm.format_permutation(w)}"
                )
    if saw_negative:
        print("negative coefficients found; the empirical pattern breaks here")
        return 1
    print("no negative coefficients in the surveyed range")
    return 0


if __name__ == "__main__":
    raise SystemExit(cli.pipe_safe(main))
