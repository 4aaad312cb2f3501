#!/bin/sh
# Full acceptance battery with per-criterion pass/fail lines.
# About 35 s on 2 cores, most of it criterion 8's two cross-validation runs,
# whose sweeps run on one pinned worker thread per CPU.
exec python -m pytest tests/test_acceptance.py -v -s "$@"
