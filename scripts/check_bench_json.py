#!/usr/bin/env python3
"""CI quality gate over the BENCH_*.json artifacts.

Validates every bench JSON against bench/expectations.json:

  * required_columns  -- every row must carry these keys;
  * row_schemas       -- for files whose JSON concatenates several table
                         sections: every row must carry all keys of at
                         least one listed schema;
  * rows              -- exact count, or {"min": n, "max": n} bounds;
  * numeric_columns   -- columns that, wherever present in a row, must
                         parse as numbers (catches benches serializing
                         "nan"/"-"/garbage into metric cells);
  * allow_empty       -- the file may serialize zero rows (e.g. fig07 below
                         the scale where its one-second bins fill);
  * checks            -- tolerance-banded headline metrics: each check
                         selects rows by exact string match on `where`,
                         requires at least one row to match, and asserts the
                         numeric `column` of every matching row lies within
                         [min, max]. Checks gated by `min_scale` only apply
                         when the run's ELASTICUTOR_BENCH_SCALE is at least
                         that value (recovery metrics degenerate at tiny
                         scales -- see bench/harness/scenario_run.h).
                         Checks gated by `min_cores` only apply to matching
                         rows whose `cores` column (the machine's hardware
                         concurrency, reported by the bench) is at least
                         that value -- thread-scaling speedups are
                         hardware-conditional, not regressions, on small
                         machines.

With --against BASE_DIR it instead compares the artifacts row by row with
those of the same name in BASE_DIR (e.g. a parent commit's run at the same
ELASTICUTOR_BENCH_SCALE): same row count, same columns, equal values, except
in each file's wall_clock_columns. Those entries are fnmatch patterns over
column names, either bare (every row) or {"where": {...}, "columns": [...]}
(rows matching `where`, for tables keyed by a metric column). A column only
the new artifact has is reported but not failed: it has no base value.

Usage:
  scripts/check_bench_json.py                  # all files in expectations,
                                               # resolved against --dir
  scripts/check_bench_json.py BENCH_a.json ... # just the named files
  scripts/check_bench_json.py --dir NEW --against BASE

Without explicit file arguments every file listed in expectations must
exist, and every BENCH_*.json present must be listed in expectations -- a
new bench must register its expectations to pass CI.

Exits non-zero listing every violation (a regression fails the build).
"""

import argparse
import fnmatch
import glob
import json
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_number(cell):
    try:
        return float(cell)
    except (TypeError, ValueError):
        return None


def check_rows_bound(name, rows, bound, errors):
    if isinstance(bound, int):
        if len(rows) != bound:
            errors.append(f"{name}: expected exactly {bound} rows, "
                          f"got {len(rows)}")
        return
    lo = bound.get("min", 0)
    hi = bound.get("max", float("inf"))
    if not lo <= len(rows) <= hi:
        errors.append(f"{name}: expected between {lo} and {hi} rows, "
                      f"got {len(rows)}")


def match_where(row, where):
    return all(str(row.get(col)) == str(val) for col, val in where.items())


def run_check(name, rows, check, scale, errors):
    min_scale = check.get("min_scale", 0.0)
    if scale < min_scale:
        return  # Metric not meaningful at this scale.
    where = check.get("where", {})
    matches = [row for row in rows if match_where(row, where)]
    label = f"{name}: check {check.get('column')} where {where}"
    if not matches:
        errors.append(f"{label}: no row matches")
        return
    min_cores = check.get("min_cores")
    if min_cores is not None:
        # Hardware-conditional check (e.g. thread-scaling speedups): rows
        # carry the machine's core count in a `cores` column; on smaller
        # machines the metric is meaningless, not failing.
        matches = [row for row in matches
                   if (parse_number(row.get("cores")) or 0) >= min_cores]
        if not matches:
            return
    for row in matches:
        value = parse_number(row.get(check["column"]))
        if value is None:
            errors.append(f"{label}: non-numeric cell "
                          f"{row.get(check['column'])!r}")
            continue
        lo = check.get("min", float("-inf"))
        hi = check.get("max", float("inf"))
        if not lo <= value <= hi:
            errors.append(f"{label}: value {value} outside [{lo}, {hi}] "
                          f"(row: {json.dumps(row)})")


def load_rows(path, errors):
    name = os.path.basename(path)
    try:
        with open(path) as f:
            rows = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        errors.append(f"{name}: unreadable ({e})")
        return None
    if not isinstance(rows, list):
        errors.append(f"{name}: top-level JSON is not a row array")
        return None
    return rows


def check_file(path, spec, scale, errors):
    name = os.path.basename(path)
    rows = load_rows(path, errors)
    if rows is None:
        return
    if not rows:
        if not spec.get("allow_empty", False):
            errors.append(f"{name}: serialized no table rows")
        return
    if "rows" in spec:
        check_rows_bound(name, rows, spec["rows"], errors)
    schemas = spec.get("row_schemas")
    if schemas is None and "required_columns" in spec:
        schemas = [spec["required_columns"]]
    numeric_columns = spec.get("numeric_columns", [])
    for i, row in enumerate(rows):
        for col in numeric_columns:
            if col in row and parse_number(row[col]) is None:
                errors.append(f"{name}: row {i} column {col!r} is not "
                              f"numeric ({row[col]!r})")
        if schemas is None:
            continue
        if not any(all(c in row for c in schema) for schema in schemas):
            errors.append(f"{name}: row {i} matches no expected schema "
                          f"(keys: {sorted(row.keys())})")
    for check in spec.get("checks", []):
        run_check(name, rows, check, scale, errors)


def is_wall_clock(spec, row, column):
    for entry in spec.get("wall_clock_columns", []):
        if isinstance(entry, str):
            patterns = [entry]
        elif match_where(row, entry.get("where", {})):
            patterns = entry["columns"]
        else:
            continue
        if any(fnmatch.fnmatchcase(column, p) for p in patterns):
            return True
    return False


def compare_file(path, base_path, spec, errors, notes):
    name = os.path.basename(path)
    rows = load_rows(path, errors)
    base_rows = load_rows(base_path, errors)
    if rows is None or base_rows is None:
        return
    if len(rows) != len(base_rows):
        errors.append(f"{name}: {len(rows)} rows, base has {len(base_rows)}")
        return
    added = set()
    for i, (row, base) in enumerate(zip(rows, base_rows)):
        for col in sorted(set(base) - set(row)):
            errors.append(f"{name}: row {i} lost column {col!r}")
        added |= set(row) - set(base)
        for col in sorted(set(row) & set(base)):
            if row[col] != base[col] and not is_wall_clock(spec, base, col):
                errors.append(f"{name}: row {i} column {col!r}: "
                              f"{row[col]!r}, base {base[col]!r}")
    for col in sorted(added):
        notes.append(f"{name}: new column {col!r} (no base value)")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("files", nargs="*",
                        help="bench JSON files (default: all in "
                             "expectations, resolved against --dir)")
    parser.add_argument("--expectations",
                        default=os.path.join(REPO_ROOT, "bench",
                                             "expectations.json"))
    parser.add_argument("--dir", default=".",
                        help="directory holding the BENCH_*.json files")
    parser.add_argument("--against", metavar="BASE_DIR",
                        help="compare with the same-named artifacts in "
                             "BASE_DIR instead of checking expectations")
    parser.add_argument("--scale", type=float,
                        default=float(os.environ.get(
                            "ELASTICUTOR_BENCH_SCALE", "1.0") or 1.0),
                        help="bench time scale the artifacts were produced "
                             "at (default: ELASTICUTOR_BENCH_SCALE)")
    args = parser.parse_args()

    with open(args.expectations) as f:
        expectations = json.load(f)
    specs = expectations["files"]

    errors = []
    if args.files:
        targets = args.files
    else:
        targets = [os.path.join(args.dir, name) for name in sorted(specs)]
        # Coverage both ways: every expected file exists, and every artifact
        # present is registered.
        for path in sorted(glob.glob(os.path.join(args.dir,
                                                  "BENCH_*.json"))):
            if os.path.basename(path) not in specs:
                errors.append(f"{os.path.basename(path)}: no expectations "
                              f"registered (add it to bench/expectations"
                              f".json)")

    checked = 0
    notes = []
    for path in targets:
        name = os.path.basename(path)
        if name not in specs:
            errors.append(f"{name}: no expectations registered")
            continue
        if not os.path.exists(path):
            errors.append(f"{name}: artifact missing")
            continue
        if args.against:
            base_path = os.path.join(args.against, name)
            if not os.path.exists(base_path):
                errors.append(f"{name}: missing in {args.against}")
                continue
            compare_file(path, base_path, specs[name], errors, notes)
        else:
            check_file(path, specs[name], args.scale, errors)
        checked += 1

    what = (f"against {args.against}" if args.against
            else f"at scale {args.scale}")
    for note in notes:
        print(f"  note {note}")
    if errors:
        print(f"bench gate: {len(errors)} violation(s) over {checked} "
              f"file(s) {what}:", file=sys.stderr)
        for e in errors:
            print(f"  FAIL {e}", file=sys.stderr)
        return 1
    print(f"bench gate: {checked} file(s) OK {what}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
