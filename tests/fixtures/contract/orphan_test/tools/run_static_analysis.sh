#!/usr/bin/env bash
# Miniature CI driver: one stage function, enough for the ci-stage and
# env-undeclared rules to parse.
set -euo pipefail

stage_selftest() { echo "selftest"; }
