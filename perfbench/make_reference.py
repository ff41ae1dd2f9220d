"""Record the TPC-H answer-check reference: rows and simulated seconds.

    python3 perfbench/make_reference.py

Runs each of the 22 queries once, in order, on a freshly set-up engine
of each TPC-H workload and writes ``perfbench/reference/tpch_sf<SF>.json``.
The data sets are fixed, so the file only changes when the engine's
answers or its cost model do.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from workloads import WORKLOADS  # noqa: E402


def main() -> None:
    for name in ("tpch_power", "tpch_cold"):
        workload = WORKLOADS[name]()
        reference = workload.reference()
        os.makedirs(os.path.dirname(workload.reference_path), exist_ok=True)
        with open(workload.reference_path, "w") as fh:
            json.dump(reference, fh, indent=0, sort_keys=True)
            fh.write("\n")
        print(f"wrote {os.path.relpath(workload.reference_path)}")


if __name__ == "__main__":
    main()
