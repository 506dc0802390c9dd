#!/usr/bin/env python3
"""A tool's integer options are read whole and within the field they set.

Usage: test_tool_options.py <wheels_campaign|wheels_served|wheels_loadgen>

Each integer option of the tool is given a value one past the largest its
field holds, and values that are not one decimal integer ("abc", "30s",
"1e6", "", "-1", " 5"). The tool must refuse each with exit 2 and name the
option, while it is still reading its arguments, so nothing runs. The
largest value the field holds is accepted: followed by an unknown option,
the tool gets as far as refusing that option instead. Registered in
tests/CMakeLists.txt once per tool.
"""

import os
import subprocess
import sys
import unittest

INT_MAX = 2**31 - 1
UINT32_MAX = 2**32 - 1
LLONG_MAX = 2**63 - 1

# Per tool: the arguments before any option, and each integer option with
# the largest value of the field it fills.
TOOLS = {
    "wheels_campaign": (["info"], {
        "--stride": INT_MAX,
        "--apps-stride": INT_MAX,
        "--seed": LLONG_MAX,
        "--jobs": INT_MAX,
    }),
    "wheels_served": ([], {
        "--jobs": INT_MAX,
        "--max-datasets": INT_MAX,
        "--idle-ms": INT_MAX,
        "--max-frame": LLONG_MAX,
    }),
    "wheels_loadgen": ([], {
        "--stride": UINT32_MAX,
        "--seed": LLONG_MAX,
        "--clients": INT_MAX,
        "--requests": INT_MAX,
        "--schedule-seed": LLONG_MAX,
    }),
}

TOOL = ""


def run(*args):
    prefix, _ = TOOLS[os.path.basename(TOOL)]
    proc = subprocess.run([TOOL, *prefix, *args], capture_output=True,
                          text=True, timeout=60)
    return proc.returncode, proc.stderr


class ToolOptions(unittest.TestCase):
    def options(self):
        return TOOLS[os.path.basename(TOOL)][1].items()

    def test_value_past_the_field_is_refused(self):
        for opt, hi in self.options():
            with self.subTest(opt=opt):
                code, err = run(opt, str(hi + 1))
                self.assertEqual(code, 2, err)
                self.assertIn(f"invalid value '{hi + 1}' for {opt}", err)

    def test_malformed_values_are_refused(self):
        for opt, _ in self.options():
            for value in ("abc", "30s", "1e6", "", "-1", " 5"):
                with self.subTest(opt=opt, value=value):
                    code, err = run(opt, value)
                    self.assertEqual(code, 2, err)
                    self.assertIn(f"invalid value '{value}' for {opt}", err)

    def test_largest_value_of_the_field_is_accepted(self):
        for opt, hi in self.options():
            with self.subTest(opt=opt):
                code, err = run(opt, str(hi), "--no-such-option")
                self.assertEqual(code, 2, err)
                self.assertNotIn("invalid value", err)
                self.assertIn("'--no-such-option'", err)


if __name__ == "__main__":
    if len(sys.argv) != 2 or os.path.basename(sys.argv[1]) not in TOOLS:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    TOOL = sys.argv[1]
    unittest.main(argv=sys.argv[:1])
