#!/usr/bin/env python3
"""Fingerprint the CLI's stdout and exit codes on the benchmark requests.

The ``trees`` and ``rules`` workloads of ``perfbench/`` build a fixed list of
``xplain`` command lines from a seed.  This script builds them in a temporary
directory, answers each one in-process with ``cliwork.execute``, and prints,
per workload and seed, the request count and one SHA-256 over
``f"{code}\\n{stdout}\\0"`` of every answer in order.  A refactor that must
keep the CLI's output byte-identical keeps these digests.

    python3 scripts/cli_fingerprint.py              # print the digests
    python3 scripts/cli_fingerprint.py --check      # compare with the file
    python3 scripts/cli_fingerprint.py --write      # record them in the file

xplain is imported from ``src/`` of this checkout.  The modules under
``perfbench/`` are imported as they are and never written to.  A change
that alters stdout on purpose records the new digests with ``--write``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORD = ROOT / "scripts" / "cli_fingerprints.json"
SEEDS = (1, 9001)
WORKLOADS = ("trees", "rules")

sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import xplain.cli  # noqa: E402,F401  (cliwork and the set-ups find it in sys.modules)

import cliwork  # noqa: E402
import work_rules  # noqa: E402
import work_trees  # noqa: E402

SETUPS = {"trees": work_trees.setup, "rules": work_rules.setup}


def fingerprint(workload: str, seed: int) -> dict:
    """Request count and stdout digest of one workload's requests."""
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory(prefix="xplain-fingerprint-") as tmp:
        inputs = SETUPS[workload](seed, Path(tmp))
        for req in inputs.requests:
            code, stdout = cliwork.execute(req)
            digest.update(f"{code}\n{stdout}\0".encode())
    return {"requests": len(inputs.requests), "sha256": digest.hexdigest()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true",
                      help=f"exit 1 unless the digests match {RECORD.name}")
    mode.add_argument("--write", action="store_true",
                      help=f"record the digests in {RECORD.name}")
    args = p.parse_args(argv)
    found = {f"{w}:{s}": fingerprint(w, s) for s in SEEDS for w in WORKLOADS}
    for key, fp in found.items():
        print(f"{key:12} {fp['requests']:5d} requests  {fp['sha256']}")
    if args.write:
        RECORD.write_text(json.dumps(found, indent=2, sort_keys=True) + "\n")
        return 0
    if args.check:
        recorded = json.loads(RECORD.read_text())
        bad = [key for key, fp in found.items() if recorded.get(key) != fp]
        for key in bad:
            print(f"mismatch on {key}: recorded {recorded.get(key)}", file=sys.stderr)
        return 1 if bad else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
