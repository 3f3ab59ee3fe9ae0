"""Command line interface.

Subcommands: betapoly (print a member of the polynomial family),
dlclass (Deligne-Lusztig class with optional Schubert expansion),
verify (consistency suites), cache (the on-disk cache of betapoly members).

Exit codes: 0 success, 1 verification failure, 2 malformed input,
3 structurally valid but inadmissible parameters, 4 the computation
failed (an arithmetic error such as a Schubert basis without unit
leads, or the interpreter ran out of recursion depth or memory),
141 (BROKEN_PIPE) the reader closed stdout before the output ended, as
in ``dlschubert betapoly ... | head -c 100``; that ends quietly, with
nothing on stderr.  Each engine warning is one ``warning: <message>``
line on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from typing import Callable

from . import betapoly, dlclass, perm, poly
from .cache import ENV_CACHE_DIR, PolynomialCache

FAMILY = "double-beta"
# 128 + SIGPIPE, the status a shell reports for a writer that a closed
# pipe ended
BROKEN_PIPE = 141


class CLIError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _cache_store(args) -> PolynomialCache | None:
    directory = args.cache_dir or os.environ.get(ENV_CACHE_DIR)
    return PolynomialCache(directory) if directory else None


def _family_polynomial(w: perm.Permutation, n: int, store: PolynomialCache | None):
    """The member of w in S_n, installed in the family: the one the
    process holds, else a disk hit, else computed (and written to the
    disk cache).  A member of length below l(w0) - 1 is computed by the
    Cauchy identity; w0 and the members just below it are the top
    product and at most one phi_i step, faster by the chain."""
    held = betapoly._FAMILY.get((n, w))
    if held is not None:
        return held
    hit = store.get(FAMILY, w, n) if store is not None else None
    if hit is not None:
        betapoly.prime_cache(w, n, hit)
        return hit
    if perm.length(w) >= n * (n - 1) // 2 - 1:
        value = betapoly.double_beta_polynomial(w, n)
    else:
        value = betapoly.cauchy_polynomial(w, n)
        betapoly.prime_cache(w, n, value)
    if store is not None:
        store.put(FAMILY, w, n, value)
    return value


def cmd_betapoly(args) -> int:
    w, n = betapoly._resolve(perm.parse_permutation(args.w), args.n)
    p = _family_polynomial(w, n, _cache_store(args))
    if args.single:
        p = p.set_y_zero()
    if args.beta != "formal":
        p = p.specialize_beta(int(args.beta))
    if args.format == "json":
        print(json.dumps(poly.to_json_terms(p), sort_keys=True, indent=2))
    else:
        print(poly.render(p, args.format))
    return 0


def cmd_dlclass(args) -> int:
    w, n = betapoly._resolve(perm.parse_permutation(args.w), args.n)
    query = dlclass.DLQuery(w, n, args.q, args.theory.upper())
    # refuse before any work: nothing is computed for a bad query
    query.validate(strict=args.strict)
    if args.kim and query.theory != "CH":
        raise CLIError(3, "--kim is defined for Chow classes only; pass --theory ch")
    result = dlclass._dl_class(query)
    kim = dlclass.kim_transform(result.element) if args.kim else None
    if args.format == "json":
        data = result.to_json()
        if kim is not None:
            data["kim"] = kim.to_json()
        print(json.dumps(data, sort_keys=True, indent=2))
        return 0
    fmt = args.format
    lines = [result.element.render(fmt)]
    if args.expand:
        rendered = result.expansion.render(fmt)
        if rendered:
            lines.append(rendered)
    if kim is not None:
        lines.append(f"kim: {kim.render(fmt)}")
    print("\n".join(lines))
    return 0


def cmd_verify(args) -> int:
    from . import verify  # only this subcommand needs the suites

    qs = verify.DEFAULT_QS if args.q is None else args.q
    results = verify.run_suites([args.suite], n=args.n, qs=qs)
    failures = [r for r in results if not r.passed]
    if args.format == "json":
        print(
            json.dumps(
                {
                    "checks": [
                        {
                            "name": r.name,
                            "passed": r.passed,
                            "detail": r.detail,
                            "warnings": r.warnings,
                        }
                        for r in results
                    ],
                    "failures": len(failures),
                },
                sort_keys=True,
                indent=2,
            )
        )
    else:
        for r in results:
            line = f"{'PASS' if r.passed else 'FAIL'} {r.name}"
            if r.detail:
                line += f": {r.detail}"
            print(line)
            for wmsg in r.warnings:
                print(f"WARN {r.name}: {wmsg}")
        print(f"summary: {len(results)} checks, {len(failures)} failures")
    return 1 if failures else 0


def cmd_cache(args) -> int:
    store = _cache_store(args)
    if store is None:
        raise CLIError(3, f"no cache directory; pass --cache-dir or set {ENV_CACHE_DIR}")
    removed = store.clear()  # argparse admits no action but "clear"
    print(f"removed {removed} cache entries")
    return 0


def _qs_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse q list {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dlschubert",
        description="Deligne-Lusztig classes and double beta-polynomials "
        "for the GL_n flag variety.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pb = sub.add_parser("betapoly", help="print a double beta-polynomial")
    pb.add_argument("--w", required=True, help='permutation, e.g. "[3,1,2]"')
    pb.add_argument("--n", type=int, default=None)
    mode = pb.add_mutually_exclusive_group()
    mode.add_argument("--double", action="store_true", help="keep both alphabets (default)")
    mode.add_argument("--single", action="store_true", help="set all y to 0")
    pb.add_argument("--beta", choices=("formal", "0", "-1", "1"), default="formal")
    pb.add_argument("--format", choices=("plain", "latex", "json"), default="plain")
    pb.add_argument("--cache-dir", default=None)
    pb.set_defaults(func=cmd_betapoly)

    pd = sub.add_parser("dlclass", help="Deligne-Lusztig class of w over F_q")
    pd.add_argument("--w", required=True)
    pd.add_argument("--n", type=int, default=None)
    pd.add_argument("--q", type=int, required=True)
    pd.add_argument("--theory", choices=("ck", "ch", "k0"), default="ck")
    pd.add_argument("--expand", action="store_true", help="print the Schubert expansion")
    pd.add_argument("--kim", action="store_true",
                    help="also print the class under x_i -> -x_{n+1-i} (CH only)")
    pd.add_argument("--strict", action="store_true",
                    help="reject q that is not a prime power")
    pd.add_argument("--format", choices=("plain", "latex", "json"), default="plain")
    pd.set_defaults(func=cmd_dlclass)

    pv = sub.add_parser("verify", help="run consistency suites")
    pv.add_argument(
        "suite",
        choices=("braid", "specialize", "fgl", "pointcount", "stability", "all"),
    )
    pv.add_argument("--n", type=int, default=4)
    pv.add_argument("--q", type=_qs_list, default=None,
                    help="comma separated, e.g. 2,3,5")
    pv.add_argument("--format", choices=("plain", "json"), default="plain")
    pv.set_defaults(func=cmd_verify)

    pc = sub.add_parser("cache", help="manage the on-disk polynomial cache")
    pc.add_argument("action", choices=("clear",))
    pc.add_argument("--cache-dir", default=None)
    pc.set_defaults(func=cmd_cache)

    return parser


def _format_warning(message, category, filename, lineno, line=None) -> str:
    return f"warning: {message}\n"


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # an engine warning is one line on stderr, with no source path in it
    formatwarning, warnings.formatwarning = warnings.formatwarning, _format_warning
    try:
        return args.func(args)
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except perm.PermutationSyntaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ArithmeticError, RecursionError, MemoryError) as exc:
        print(f"error: computation failed ({type(exc).__name__}) {exc}".rstrip(),
              file=sys.stderr)
        return 4
    finally:
        warnings.formatwarning = formatwarning


def pipe_safe(main: Callable[[], int]) -> int:
    """main()'s exit code, with stdout flushed; BROKEN_PIPE, and no
    traceback, if the reader closed stdout first.  The CLI and the
    scripts end through this."""
    try:
        code = main()
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit: send that to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return BROKEN_PIPE


def entry() -> None:
    sys.exit(pipe_safe(main))


if __name__ == "__main__":
    entry()
