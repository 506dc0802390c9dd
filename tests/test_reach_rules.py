#!/usr/bin/env python3
"""Tests for tools/wheels_reach.py, the `reach` CI stage's check.

A miniature of what the stage builds: a static library named like the
project's (libwheels_fixture.a) defining four non-inline functions and
one inline one, and one program that calls a single function of it, both
compiled at -O0 with -ffunction-sections and linked with --gc-sections.
The check must report exactly the library functions the program does not
hold, less the allow-listed ones; match allow entries by qualified name
(no parameters, no ABI tag, const members too); ignore inline functions;
fail on an allow entry that the program holds or that the library does
not define; and exit 2 when it has nothing to compare.

Usage: test_reach_rules.py [<c++ compiler> [<ar>]]   (default: c++, ar)
Run directly (python3 tests/test_reach_rules.py) or via ctest.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(TESTS_DIR)
REACH = os.path.join(REPO_ROOT, "tools", "wheels_reach.py")

CXX, AR = "c++", "ar"

LIB_CPP = """\
#include <string>
namespace wheels {
inline int twice(int x) { return 2 * x; }
int called(int x) { return x + 1; }
int uncalled(int x) { return twice(x); }
std::string seam_for_testing() { return "seam"; }
struct Box { int value() const; };
int Box::value() const { return 7; }
}  // namespace wheels
"""

MAIN_CPP = """\
namespace wheels { int called(int x); }
int main(int argc, char**) { return wheels::called(argc) == 2 ? 0 : 1; }
"""

SEAMS = ["wheels::seam_for_testing", "wheels::Box::value"]


class Reach(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.mkdtemp(prefix="wheels-reach-")
        src = os.path.join(cls.tmp, "src")
        cls.libs = os.path.join(cls.tmp, "libs")
        cls.bins = os.path.join(cls.tmp, "bins")
        for d in (src, cls.libs, cls.bins):
            os.makedirs(d)
        for name, text in (("lib.cpp", LIB_CPP), ("main.cpp", MAIN_CPP)):
            with open(os.path.join(src, name), "w", encoding="utf-8") as f:
                f.write(text)
        flags = ["-O0", "-ffunction-sections"]
        lib_o = os.path.join(src, "lib.o")
        lib_a = os.path.join(cls.libs, "libwheels_fixture.a")
        for cmd in (
                [CXX, *flags, "-c", os.path.join(src, "lib.cpp"), "-o",
                 lib_o],
                [AR, "rcs", lib_a, lib_o],
                [CXX, *flags, os.path.join(src, "main.cpp"), lib_a,
                 "-Wl,--gc-sections", "-o", os.path.join(cls.bins, "app")]):
            subprocess.run(cmd, check=True)
        # Not an ELF file: the check must pass over it, not read it.
        with open(os.path.join(cls.bins, "README"), "w",
                  encoding="utf-8") as f:
            f.write("not a binary\n")

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def reach(self, allow, bins=None):
        contracts = os.path.join(self.tmp, "contracts.json")
        with open(contracts, "w", encoding="utf-8") as f:
            json.dump({"reach_allow": {"functions": allow}}, f)
        proc = subprocess.run(
            [sys.executable, REACH, "--libs", self.libs,
             "--bins", bins or self.bins, "--contracts", contracts],
            capture_output=True, text=True, check=False)
        return proc.returncode, proc.stdout + proc.stderr

    def test_unreached_function_fails(self):
        code, out = self.reach(SEAMS)
        self.assertEqual(code, 1, out)
        self.assertIn("unreached: wheels::uncalled(int)", out)
        self.assertEqual(out.count("unreached: "), 1, out)
        self.assertIn("4 src/ functions, 1 binaries, 3 unreached "
                      "(2 allowed), 1 finding(s)", out)

    def test_allow_list_matches_qualified_names(self):
        # seam_for_testing carries an [abi:cxx11] tag and Box::value a
        # const qualifier; the inline twice() is never counted.
        code, out = self.reach(SEAMS + ["wheels::uncalled"])
        self.assertEqual(code, 0, out)
        self.assertNotIn("twice", out)
        self.assertIn("3 unreached (3 allowed), 0 finding(s)", out)

    def test_allow_entry_a_binary_holds_fails(self):
        code, out = self.reach(SEAMS + ["wheels::uncalled", "wheels::called"])
        self.assertEqual(code, 1, out)
        self.assertIn("stale allow entry: wheels::called reaches a shipped "
                      "binary", out)

    def test_allow_entry_not_defined_fails(self):
        code, out = self.reach(SEAMS + ["wheels::uncalled", "wheels::gone"])
        self.assertEqual(code, 1, out)
        self.assertIn("stale allow entry: wheels::gone is not defined", out)

    def test_nothing_to_compare_is_a_usage_error(self):
        empty = os.path.join(self.tmp, "empty")
        os.makedirs(empty, exist_ok=True)
        code, out = self.reach(SEAMS, bins=empty)
        self.assertEqual(code, 2, out)
        self.assertIn("found 1 libraries and 0 binaries", out)

    def test_unreadable_allow_list_is_a_usage_error(self):
        contracts = os.path.join(self.tmp, "no-allow.json")
        with open(contracts, "w", encoding="utf-8") as f:
            json.dump({}, f)
        proc = subprocess.run(
            [sys.executable, REACH, "--libs", self.libs, "--bins", self.bins,
             "--contracts", contracts],
            capture_output=True, text=True, check=False)
        self.assertEqual(proc.returncode, 2, proc.stdout + proc.stderr)
        self.assertIn("unreadable reach_allow", proc.stderr)


if __name__ == "__main__":
    if len(sys.argv) > 3:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    CXX = sys.argv[1] if len(sys.argv) > 1 else CXX
    AR = sys.argv[2] if len(sys.argv) > 2 else AR
    unittest.main(argv=sys.argv[:1])
