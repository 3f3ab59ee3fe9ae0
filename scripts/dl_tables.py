#!/usr/bin/env python3
"""Tabulate Deligne-Lusztig classes over a whole symmetric group.

For every w in S_n (or a single --w) the script computes the class of
the closure of X(w) in the requested theory and prints its expansion in
the Schubert basis, one block per permutation.  With --json the raw
result objects are dumped instead, one JSON document per line.

Example:
    python3 scripts/dl_tables.py --n 3 --q 2 --theory CH

A reader that closes the output early (`| head`) ends the script
quietly with exit code 141, as it does `dlschubert`.
"""

from __future__ import annotations

import argparse
import json
import sys

from dlschubert import betapoly, cli, dlclass, perm


def parse_args(argv: list[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--n",
        type=int,
        default=None,
        help="rank of the flag variety (default: the length of --w, else 3)",
    )
    ap.add_argument("--q", type=int, default=2, help="size of the base field")
    ap.add_argument(
        "--theory",
        choices=sorted(dlclass.THEORIES),
        default="CH",
        help="target theory (CK, CH or K0)",
    )
    ap.add_argument(
        "--w",
        type=perm.parse_permutation,
        default=None,
        help='single permutation in one-line notation, e.g. "[2,1,3]"',
    )
    ap.add_argument("--json", action="store_true", help="emit one JSON document per class")
    ap.add_argument(
        "--strict",
        action="store_true",
        help="reject q that is not a prime power instead of warning",
    )
    return ap.parse_args(argv)


def emit_text(result: dlclass.DLResult, out) -> None:
    w = result.query.w
    codim = perm.length(perm.compose(w, perm.longest_element(result.query.n)))
    print(f"w = {perm.format_permutation(w)}   l(w) = {perm.length(w)}   codim = {codim}", file=out)
    print(f"  class     {result.element.render()}", file=out)
    lines = result.expansion.render().splitlines() or ["0"]
    print(f"  expansion {lines[0]}", file=out)
    for line in lines[1:]:
        print(f"            {line}", file=out)


def main(argv: list[str] | None = None) -> int:
    ns = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        if ns.w is None:
            n = 3 if ns.n is None else ns.n
            ws = sorted(perm.all_permutations(n))
        else:
            # n from w, and a shorter w embedded with fixed points, as in
            # `dlschubert dlclass`
            w, n = betapoly._resolve(ns.w, ns.n)
            ws = [w]
        if not ns.json:
            print(f"# theory={ns.theory} n={n} q={ns.q} classes={len(ws)}")
        for w in ws:
            result = dlclass.dl_class(dlclass.DLQuery(w, n, ns.q, ns.theory), ns.strict)
            if ns.json:
                print(json.dumps(result.to_json(), sort_keys=True))
            else:
                emit_text(result, sys.stdout)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(cli.pipe_safe(main))
