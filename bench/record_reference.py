#!/usr/bin/env python3
"""Store the program's outputs on seeds 0-9 as the benchmark's reference.

Run from the repository root, at the commit whose outputs should serve as
the reference:

    python3 bench/record_reference.py

Each workload runs one job per seed; an output that fails its checks is
refused. The result goes to ``bench/reference.json``, which ``run.py``
compares against to print ``check.max_rel_dev``.
"""
from __future__ import annotations

import json
import sys

import run

SEEDS = range(10)


def main() -> int:
    ref: dict[str, dict] = {}
    for name in ("table", "sweep", "nirf"):
        for seed in SEEDS:
            args = run.parse_args(["--workload", name, "--seed", str(seed)])
            w = run.build(args, 0.0)[0]
            w.prepare_checks()
            out = w.run()
            bad = w.check(out)
            if bad:
                print(f"{name} seed {seed}: {bad}", file=sys.stderr)
                return 1
            ref.setdefault(name, {})[str(seed)] = w.outputs(out)
            print(f"{name} seed {seed}: energy {w.energy(out)!r}")
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
