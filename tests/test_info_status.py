#!/usr/bin/env python3
"""`wheels_campaign info` tells a stale cache file from a corrupt one.

Usage: test_info_status.py <wheels_campaign> <smoke cache dir> <scratch dir>

The three per-operator static baselines of the smoke cache are copied into
the scratch directory under their own names: Verizon's as it is, T-Mobile's
with its schema version field set one below the current version, and
AT&T's cut to half its length. `info` over that directory must list them as
ok, stale and CORRUPT and exit 1; over the smoke cache itself it must exit
0. Registered in tests/CMakeLists.txt after the dataset_cache fixture that
warms the smoke cache.
"""

import glob
import os
import shutil
import struct
import subprocess
import sys
import unittest

VERSION_OFFSET = 4  # after the 4-byte magic; little-endian u32

CAMPAIGN, SMOKE_CACHE, SCRATCH = "", "", ""


def info(directory):
    proc = subprocess.run([CAMPAIGN, "info", "--dir", directory],
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout


def status_of(listing, name):
    for line in listing.splitlines():
        if name in line:
            return line.split(name, 1)[1]
    raise AssertionError(f"{name} not listed:\n{listing}")


class InfoStatus(unittest.TestCase):
    def setUp(self):
        shutil.rmtree(SCRATCH, ignore_errors=True)
        os.makedirs(SCRATCH)
        self.files = {}
        for op in ("verizon", "tmobile", "att"):
            found = glob.glob(os.path.join(SMOKE_CACHE, f"static-*-{op}.wds"))
            self.assertEqual(len(found), 1, f"one {op} static baseline")
            with open(found[0], "rb") as f:
                self.files[op] = (os.path.basename(found[0]), f.read())

    def tearDown(self):
        shutil.rmtree(SCRATCH, ignore_errors=True)

    def write(self, op, data):
        with open(os.path.join(SCRATCH, self.files[op][0]), "wb") as f:
            f.write(data)

    def test_smoke_cache_is_valid(self):
        code, listing = info(SMOKE_CACHE)
        self.assertEqual(code, 0, listing)
        self.assertNotIn("stale", listing)
        self.assertNotIn("CORRUPT", listing)

    def test_stale_and_corrupt_are_told_apart(self):
        self.write("verizon", self.files["verizon"][1])
        stale = bytearray(self.files["tmobile"][1])
        (version,) = struct.unpack_from("<I", stale, VERSION_OFFSET)
        struct.pack_into("<I", stale, VERSION_OFFSET, version - 1)
        self.write("tmobile", bytes(stale))
        whole = self.files["att"][1]
        self.write("att", whole[:len(whole) // 2])

        code, listing = info(SCRATCH)
        self.assertEqual(code, 1, listing)
        self.assertEqual(status_of(listing, self.files["verizon"][0]).split()[-1],
                         "ok", listing)
        self.assertIn(f"stale (schema v{version - 1})",
                      status_of(listing, self.files["tmobile"][0]), listing)
        self.assertEqual(status_of(listing, self.files["att"][0]).split()[-1],
                         "CORRUPT", listing)
        self.assertIn("3 dataset(s), 2 invalid", listing)


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    CAMPAIGN, SMOKE_CACHE, SCRATCH = sys.argv[1:4]
    unittest.main(argv=sys.argv[:1])
