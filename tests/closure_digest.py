"""Print one digest of the closure battery per pool, to compare two trees.

    python tests/closure_digest.py [TREE]

For closure_pool(1), (2) and (3) of perfbench/inputs.py it prints the
number of base attempts (every recipe of inputs.battery on every doc of
the pool, in pool order) and one sha256 over each attempt's outcome: the
output's bytes (serialize_doc; the report's JSON for verify_diagram), or
the refusal's type, message and report.  TREE is a checkout of halg,
by default the one holding this file; its src/ and perfbench/ are imported
and nothing is written.  Run it on two trees and compare the output: equal
lines mean byte-identical outputs and refusals.  pytest does not collect
it.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path


def _spelled(obj) -> bytes:
    return json.dumps(obj, separators=(",", ":")).encode()


def main(argv) -> int:
    tree = Path(argv[0] if argv else Path(__file__).resolve().parent.parent)
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import inputs
    from halg import (AlgebraDoc, HalgError, report_to_jsonable,
                      serialize_doc)

    for seed in (1, 2, 3):
        digest, attempts = hashlib.sha256(), 0
        for doc in inputs.closure_pool(seed):
            for recipe, thunk in inputs.battery(doc):
                attempts += 1
                try:
                    out = thunk()
                except HalgError as e:
                    report = getattr(e, "report", None)
                    outcome = _spelled([type(e).__name__, str(e), None if report is None
                                        else report_to_jsonable(report, doc.field)])
                else:
                    outcome = serialize_doc(out) if isinstance(out, AlgebraDoc) \
                        else _spelled(report_to_jsonable(out, doc.field))
                digest.update(recipe.encode() + b"\n" + outcome + b"\n")
        print(f"closure_pool({seed}): {attempts} attempts, sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
