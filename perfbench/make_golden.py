"""Regenerate the golden files the benchmark checks against.

    python3 perfbench/make_golden.py

Writes ``golden/fingerprint-2026.json`` (the report fingerprint of a cold
default-configuration catalog run at seed 2026) and
``golden/expand-digests.json`` (a digest of the ``to_json_dict`` text of
every exact-expand object at every truncation the workload draws).  Each
expansion is first checked against the independent oracles on its
prefix.  Exact coefficients never change, so the digests are rewritten
only when an object is added or its serialisation changes on purpose.
"""
from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
os.environ["MOCKMOD_WORKERS"] = "1"

import oracles  # noqa: E402
import worker  # noqa: E402


def main() -> int:
    import mockmod

    reports, code = mockmod.run_suite(mockmod.SuiteConfig(seed=worker.GOLDEN_SEED))
    if code != 0 or worker.suite_problems(reports, code):
        print("catalog run at the golden seed fails; not writing", file=sys.stderr)
        return 1
    fingerprint = json.loads(mockmod.report_fingerprint(reports))
    worker.GOLDEN_FINGERPRINT.write_text(
        json.dumps(fingerprint, indent=1, sort_keys=True) + "\n")

    digests = {}
    for name in worker.EXPAND_OBJECTS:
        build = worker.expand_builder(name)
        for t in worker.EXPAND_TRUNCS:
            text = json.dumps(build(t).to_json_dict())
            doc = json.loads(text)
            problems = oracles.prefix_problems(name, t, doc["den"],
                                                doc["offset"], doc["coeffs"])
            if problems:
                print("\n".join(problems), file=sys.stderr)
                return 1
            digests[f"{name}:{t}"] = hashlib.sha256(text.encode()).hexdigest()[:16]
            worker.clear_caches()
    oracles.DIGESTS_PATH.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests and the seed-{worker.GOLDEN_SEED} fingerprint")
    return 0


if __name__ == "__main__":
    sys.exit(main())
