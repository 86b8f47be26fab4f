"""Record the reference-seed GAT/AET/AAT of every workload in expected.json.

    python3 perfbench/record_expected.py

Run it only in a change that is allowed to move the simulated results, and
say in that change why they moved: every benchmark run checks against this
file.
"""

import json
import tempfile
from pathlib import Path

from worker import EXPECTED_PATH, FIDELITY_KEYS, invoke
from workloads import REFERENCE_SEED, WORKLOADS


def main():
    expected = {}
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent.parent) as tmp:
        for w in WORKLOADS.values():
            o = invoke(w, REFERENCE_SEED, w.slots, w.warmup_slots, Path(tmp))
            if o.problems:
                raise SystemExit(f"{w.name}: {o.problems}")
            expected[w.name] = {k: o.summary[k] for k in FIDELITY_KEYS}
            print(w.name, expected[w.name])
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
