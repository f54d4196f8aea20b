"""Record the pinned per-seed values the benchmark checks outputs against.

    python3 perfbench/pin.py WORKLOAD

Run from the root of a checkout.  For every seed in SEEDS (0..31) it
computes mds_value and mm_value of each input in the workload's pool
([null, null] for an input that is not graphic) and writes them, with a
digest of the inputs, to perfbench/pins/WORKLOAD.json.  Both optima are
unique, so a correct change to optreal never changes them.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import workloads
from child import import_optreal, pool_digest

SEEDS = range(32)


def pin_values(opt, item) -> list:
    d = opt.parse_sequence(item) if isinstance(item, str) else opt.DegreeSequence(item)
    if not opt.is_graphic(d):
        return [None, None]
    return [opt.mds_value(d), opt.mm_value(d)]


def main(argv) -> int:
    name = argv[0]
    opt = import_optreal(Path.cwd())
    inputs, values = {}, {}
    for seed in SEEDS:
        pool = workloads.make_pool(name, seed)
        inputs[str(seed)] = pool_digest(pool)
        values[str(seed)] = [pin_values(opt, item) for item in pool]
        print(f"{name} seed {seed} pinned", file=sys.stderr, flush=True)
    path = Path(__file__).parent / "pins" / f"{name}.json"
    path.write_text(json.dumps({"inputs": inputs, "values": values}, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
