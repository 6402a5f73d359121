#!/bin/sh
# Tier-1 verification, run exactly as CI would: the full test suite under
# both a single worker domain and four, proving parallel == sequential,
# then the end-to-end JSON manifest + span-trace validation and the
# rejection of every fixture in test/validate/ (make validate), the CLI
# usage-error checks and a run of every example.  The benchmark is
# perfbench/ (python3 perfbench/run.py), not part of this script.
set -eu
cd "$(dirname "$0")"
exec make check
