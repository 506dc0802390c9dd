#!/usr/bin/env python3
"""One bench/ printer prints what tools/contracts.json pins.

Usage: printer_digest.py <contracts.json> <printer> [args...]

Runs the printer with its arguments (the smoke stride) over the dataset
cache that WHEELS_DATASET_DIR names, passes its stdout through, and
compares the FNV-1a of that stdout with the printer's entry in the
registry's printer_digests section: its stride-64 stdout over the warm
seed-42 paper-default cache. A change that moves a printed figure fails
here and needs a deliberate repin (the contract analyzer's registry rule
keeps the section equal to perfbench/expected_seed42.json). Registered in
bench/CMakeLists.txt as each printer's smoke_<printer> run, after the
dataset_cache fixture that warms the smoke cache.
"""

import json
import os
import subprocess
import sys


def fnv1a(data):
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def main(argv):
    if len(argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    contracts, command = argv[1], argv[2:]
    name = os.path.basename(command[0])
    with open(contracts, encoding="utf-8") as f:
        want = json.load(f)["printer_digests"]["entries"].get(name)
    proc = subprocess.run(command, stdout=subprocess.PIPE, check=False)
    sys.stdout.buffer.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        print(f"{name} exited {proc.returncode}", file=sys.stderr)
        return 1
    if want is None:
        print(f"{name} has no printer_digests entry in {contracts}",
              file=sys.stderr)
        return 1
    got = f"0x{fnv1a(proc.stdout):016x}"
    if got != want:
        print(f"{name} printed stdout with FNV-1a {got}, but "
              f"printer_digests pins {want}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
