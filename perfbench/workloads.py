"""Request lists of the benchmark workloads.

Every workload draws from a fixed input set, so the work in one pass
does not depend on the seed.  The seed orders the requests and picks
the theory of each class (and, for cold-s5, q and the theory of its one
request).  Nothing here imports the engine: the parent process builds
the same lists as the children without loading it.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

THEORIES = ("CK", "CH", "K0")
SWEEP_QS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)
LARGE_QS = (343, 512, 625, 729, 1024, 1031)
COLD_QS = (2, 3, 4, 5, 7, 8, 9)
CACHE_POOL_SIZE = 8
CACHE_REPEATS = 3

WORKLOADS = ("sweep-s4", "cold-s5", "cli-cache-s5", "large-q-s3")
# workloads whose pass is one warm process computing classes; the
# others send each request to a fresh `python -m dlschubert.cli`
IN_PROCESS = ("sweep-s4", "large-q-s3")


@dataclass(frozen=True)
class Request:
    key: str  # names the request in golden.json
    w: tuple[int, ...]
    n: int
    q: int | None = None
    theory: str | None = None
    argv: tuple[str, ...] | None = None  # CLI arguments, for CLI workloads


def fmt(w) -> str:
    return "[" + ",".join(str(v) for v in w) + "]"


def perms(n: int) -> list[tuple[int, ...]]:
    return list(itertools.permutations(range(1, n + 1)))


def class_request(w, n: int, q: int, theory: str) -> Request:
    return Request(f"dl_class w={fmt(w)} n={n} q={q} {theory}", tuple(w), n, q, theory)


def cli_request(w, n: int, argv, q: int | None = None, theory: str | None = None) -> Request:
    return Request("cli " + " ".join(argv), tuple(w), n, q, theory, tuple(argv))


def cold_argv(q: int, theory: str) -> tuple[str, ...]:
    return ("dlclass", "--w", fmt(range(1, 6)), "--q", str(q),
            "--theory", theory.lower(), "--expand", "--format", "json")


def betapoly_argv(w) -> tuple[str, ...]:
    return ("betapoly", "--n", "5", "--w", fmt(w))


def cache_pool() -> list[tuple[int, ...]]:
    """The permutations of S_5 that cli-cache-s5 requests: a fixed
    sample, so every seed does the same misses and hits."""
    return random.Random("cli-cache-s5 pool").sample(perms(5), CACHE_POOL_SIZE)


def _classes(n: int, qs, rng: random.Random) -> list[Request]:
    # the theory rotates with w and q, so each theory gets exactly a
    # third of the classes whatever the seed
    offset = rng.randrange(len(THEORIES))
    reqs = [
        class_request(w, n, q, THEORIES[(i + j + offset) % len(THEORIES)])
        for i, q in enumerate(qs)
        for j, w in enumerate(perms(n))
    ]
    rng.shuffle(reqs)
    return reqs


def requests(workload: str, seed: int) -> list[Request]:
    """The requests of one pass of `workload` under `seed`."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "sweep-s4":
        return _classes(4, SWEEP_QS, rng)
    if workload == "large-q-s3":
        return _classes(3, LARGE_QS, rng)
    if workload == "cold-s5":
        q, theory = rng.choice(COLD_QS), rng.choice(THEORIES)
        return [cli_request(range(1, 6), 5, cold_argv(q, theory), q, theory)]
    if workload == "cli-cache-s5":
        ws = cache_pool() * CACHE_REPEATS
        rng.shuffle(ws)
        return [cli_request(w, 5, betapoly_argv(w)) for w in ws]
    raise ValueError(f"unknown workload {workload!r}; pick from {WORKLOADS}")


def all_requests(workload: str) -> list[Request]:
    """Every request any seed can draw for `workload`."""
    if workload == "sweep-s4":
        return [class_request(w, 4, q, t) for q in SWEEP_QS for w in perms(4) for t in THEORIES]
    if workload == "large-q-s3":
        return [class_request(w, 3, q, t) for q in LARGE_QS for w in perms(3) for t in THEORIES]
    if workload == "cold-s5":
        return [cli_request(range(1, 6), 5, cold_argv(q, t), q, t) for q in COLD_QS for t in THEORIES]
    if workload == "cli-cache-s5":
        return [cli_request(w, 5, betapoly_argv(w)) for w in cache_pool()]
    raise ValueError(f"unknown workload {workload!r}; pick from {WORKLOADS}")
