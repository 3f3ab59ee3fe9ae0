#!/usr/bin/env python3
"""Record golden.json: the digest of the answer to every request any
workload can draw, computed by the engine in the checkout's src.

    PYTHONPATH=src python3 perfbench/record_golden.py

Run it only at a commit whose answers are trusted: the benchmark counts
every later answer that differs from these digests as a failure.  Each
answer must also pass its independent check before it is recorded.
This takes about three minutes (every cold-s5 request is computed in one
warm process).
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import checks
import child
import workloads


def main() -> int:
    from dlschubert import cli, dlclass

    golden, bad = {}, []
    for workload in workloads.WORKLOADS:
        for req in workloads.all_requests(workload):
            if req.argv is None:
                result = dlclass.dl_class(dlclass.DLQuery(req.w, req.n, req.q, req.theory))
                digest = checks.digest_result(result.to_json())
                error = child.independent_error(req, result)
            else:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = cli.main(list(req.argv))
                digest = checks.digest_text(buf.getvalue())
                error = f"exit code {code}" if code else checks.cli_output_error(req, buf.getvalue())
            if error:
                bad.append(f"{req.key}: {error}")
            golden[req.key] = digest
        print(f"{workload}: {len(workloads.all_requests(workload))} digests", file=sys.stderr)
    if bad:
        print("\n".join(bad), file=sys.stderr)
        return 1
    checks.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
