#!/bin/sh
# Full acceptance battery with per-criterion pass/fail lines.
# About 50 s on 2 cores, most of it criterion 8's two cross-validation runs.
exec python -m pytest tests/test_acceptance.py -v -s "$@"
