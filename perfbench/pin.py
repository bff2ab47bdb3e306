"""Record correctness pins for seeds that have none yet.

Usage (from the repository root)::

    python3 perfbench/pin.py --seeds 0-10

For each workload and seed without an entry in ``pins.json`` this runs
the benchmark's fixed prefix (``--seconds 0``: the first two
``bsa_scale`` rounds, the first two ``sweep_paper`` grids, the
``serve_mix`` hot set and the fresh requests of its first 48 blocks)
and stores each operation's label, bundle (or cell result) digest and
schedule length. Existing entries are never rewritten: a mismatch with
a pin is a defect to fix in the program, not a pin to re-record.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys

import gen

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PINS_PATH = os.path.join(HERE, "pins.json")


def dumps(pins: dict) -> str:
    """``pins`` as JSON with one operation per line."""
    text = json.dumps(pins, indent=1, sort_keys=True)
    return re.sub(r"\[\s+([^\[\]]*?)\s+\]",
                  lambda m: "[" + re.sub(r",\s+", ", ", m.group(1)) + "]",
                  text) + "\n"


def parse_seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default=str(gen.DEFAULT_SEED))
    parser.add_argument("--workload", choices=gen.WORKLOADS, action="append")
    args = parser.parse_args(argv)

    try:
        with open(PINS_PATH) as fh:
            pins = json.load(fh)
    except OSError:
        pins = {}
    for workload in args.workload or gen.WORKLOADS:
        for seed in parse_seeds(args.seeds):
            if str(seed) in pins.get(workload, {}):
                continue
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", "0"],
                cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: run failed, not pinned\n"
                      f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}",
                      file=sys.stderr)
                return 1
            report = os.path.join(ROOT, ".perfbench", "out",
                                  f"{workload}-seed{seed}-trace0.json")
            with open(report) as fh:
                digests = json.load(fh)["digests"]
            pins.setdefault(workload, {})[str(seed)] = digests
            print(f"{workload} seed {seed}: pinned {len(digests)} operations")
            with open(PINS_PATH, "w") as fh:
                fh.write(dumps(pins))
    return 0


if __name__ == "__main__":
    sys.exit(main())
