"""Regenerate ``reference.json``, the pinned simulated outputs.

Usage, from the root of the repository::

    python3 perfbench/pin.py

Runs every workload once per pinned seed and records its checked
outputs.  Re-pin only in a change that means to alter the simulated
behaviour, and say so: the pins are what makes semantic drift show up
as failed operations.  For ``sweep3d-rdma`` it also records the RVMA
elapsed time at the same size and seed, so a run can print the
RDMA/RVMA ratio that Fig. 7 plots.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from run import REFERENCE, canonical  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: The seed to develop against.
DEFAULT_SEED = 1
#: A seed kept out of development, to check a claim on inputs it was
#: not tuned on.
HELD_OUT_SEED = 1009
#: Small seeds are pinned too, so most runs check against a pin.
SEEDS = sorted({DEFAULT_SEED, HELD_OUT_SEED, *range(0, 16)})


def outputs_of(workload, seed: int) -> dict:
    prepared = workload.setup(seed)
    prepared.run()
    if prepared.failed_ops():
        raise SystemExit(f"{workload.name} seed {seed}: operations failed; not pinning")
    return canonical(prepared.outputs())


def main() -> int:
    doc = {
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "workloads": {},
        "rvma_elapsed_ns": {},
    }
    for name, workload in WORKLOADS.items():
        doc["workloads"][name] = {}
        for seed in SEEDS:
            doc["workloads"][name][str(seed)] = outputs_of(workload, seed)
            print(name, seed, doc["workloads"][name][str(seed)], flush=True)
    rdma = WORKLOADS["sweep3d-rdma"]
    rvma_same_size = replace(rdma, name="rvma-at-rdma-size", nic_type="rvma")
    doc["rvma_elapsed_ns"]["sweep3d-rdma"] = {
        str(seed): outputs_of(rvma_same_size, seed)["elapsed_ns"] for seed in SEEDS
    }
    with open(REFERENCE, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
