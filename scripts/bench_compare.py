#!/usr/bin/env python3
"""CI perf-regression gate over the BENCH_*.json trajectory artifacts.

Usage:
  bench_compare.py --current DIR|FILE [--parent DIR] [--threshold 0.25]
  bench_compare.py --self-test

Two checks, and either fails the run (exit 1):

The absolute floor needs only --current (a directory of BENCH_*.json, or
one such file). A row that carries absorb_rate
(an absorbing fast path under churn) must have speedup_vs_rebuild >= 1: a
fast path slower than the rebuild it replaces does not pay for itself,
whatever fraction of batches it absorbs.

The drift gate compares every BENCH_*.json in --current against the file of
the same name in --parent (the parent commit's uploaded bench artifact) and
fails when any shared row drifts worse than --threshold (default 25%):

  * ns_per_op            — higher is worse;
  * rebuild_ms           — higher is worse;
  * speedup_vs_rebuild   — lower is worse;
  * speedup_vs_1thread   — lower is worse;
  * absorb_rate          — lower is worse.

Tolerances by design, so the drift gate never blocks structural change:

  * no --parent, a missing --parent directory or parent file (first run on
    a branch, artifact expired, bench added this commit) is logged and
    PASSES — the floor still runs;
  * a row present on only one side is logged and skipped;
  * a null on either side of a pair is skipped — bench_to_json.py emits
    null for "not measured", which must never compare against a number.

--self-test builds fixture pairs in a temp dir and asserts the gate
passes/fails each as specified above; CI runs it before the real compare,
mirroring lint_amem.py's self-test discipline.
"""

import argparse
import glob
import json
import os
import sys
import tempfile

# field -> True when higher values are regressions, False when lower are.
GATED_FIELDS = {
    "ns_per_op": True,
    "rebuild_ms": True,
    "speedup_vs_rebuild": False,
    "speedup_vs_1thread": False,
    # Fraction of batches the block-merge patch algebra absorbed without a
    # rebuild; a drop means churn fell back off the O(B)-write fast path.
    "absorb_rate": False,
}


# A row carrying this field is on an absorbing path, and must keep
# FLOOR_FIELD at or above FLOOR.
ABSORBING_FIELD = "absorb_rate"
FLOOR_FIELD = "speedup_vs_rebuild"
FLOOR = 1.0


def load_rows(path):
    """BENCH file -> {benchmark name: row dict}."""
    with open(path) as f:
        rows = json.load(f)
    return {r["benchmark"]: r for r in rows}


def compare_rows(fname, current, parent, threshold):
    """Compare two {name: row} maps; returns (failures, notes)."""
    failures, notes = [], []
    for name, cur in sorted(current.items()):
        if name not in parent:
            notes.append(f"{fname}: {name}: no parent row, skipped")
            continue
        par = parent[name]
        for field, higher_is_worse in GATED_FIELDS.items():
            c, p = cur.get(field), par.get(field)
            if c is None or p is None:
                # null means "not measured" on that side; never a number
                # to gate against.
                continue
            if p <= 0:
                notes.append(
                    f"{fname}: {name}: {field} parent={p}, skipped")
                continue
            drift = (c - p) / p if higher_is_worse else (p - c) / p
            if drift > threshold:
                direction = "rose" if higher_is_worse else "fell"
                failures.append(
                    f"{fname}: {name}: {field} {direction} "
                    f"{drift:+.1%} (parent {p:.4g} -> current {c:.4g}, "
                    f"threshold {threshold:.0%})")
    return failures, notes


def check_floor(fname, current):
    """Absolute floor over one {name: row} map; returns (failures, notes)."""
    failures, notes = [], []
    for name, row in sorted(current.items()):
        if row.get(ABSORBING_FIELD) is None:
            continue
        speedup = row.get(FLOOR_FIELD)
        if speedup is None:
            notes.append(f"{fname}: {name}: {ABSORBING_FIELD} without "
                         f"{FLOOR_FIELD}, floor skipped")
        elif speedup < FLOOR:
            failures.append(
                f"{fname}: {name}: {FLOOR_FIELD} {speedup:.4g} below the "
                f"floor {FLOOR:g} on an absorbing path")
    return failures, notes


def compare_dirs(current_dir, parent_dir, threshold):
    """Returns (failures, notes, compared_file_count)."""
    failures, notes = [], []
    compared = 0
    if os.path.isfile(current_dir):
        current_files = [current_dir]
    else:
        current_files = sorted(
            glob.glob(os.path.join(current_dir, "BENCH_*.json")))
    if not current_files:
        notes.append(f"no BENCH_*.json under {current_dir}; nothing to gate")
    for cpath in current_files:
        f, n = check_floor(os.path.basename(cpath), load_rows(cpath))
        failures += f
        notes += n
    if parent_dir is None:
        notes.append("no --parent given; floor only")
        return failures, notes, compared
    if not os.path.isdir(parent_dir):
        notes.append(
            f"parent artifact dir {parent_dir} missing "
            "(first run / expired artifact); passing")
        return failures, notes, compared
    for cpath in current_files:
        fname = os.path.basename(cpath)
        ppath = os.path.join(parent_dir, fname)
        if not os.path.exists(ppath):
            notes.append(f"{fname}: no parent artifact, skipped")
            continue
        f, n = compare_rows(fname, load_rows(cpath), load_rows(ppath),
                            threshold)
        failures += f
        notes += n
        compared += 1
    return failures, notes, compared


# ---------------------------------------------------------------------------
# self-test
# ---------------------------------------------------------------------------


def _write(dirpath, fname, rows):
    os.makedirs(dirpath, exist_ok=True)
    with open(os.path.join(dirpath, fname), "w") as f:
        json.dump(rows, f)


def self_test():
    base_row = {
        "benchmark": "BM_SelectiveRebuild/100000/64/0",
        "ns_per_op": 1e6,
        "rebuild_ms": 10.0,
        "speedup_vs_rebuild": None,
        "speedup_vs_1thread": 2.0,
        "absorb_rate": 0.95,
    }
    cases = 0

    def expect(desc, current_rows, parent_rows, want_fail,
               parent_missing=False, no_parent=False):
        nonlocal cases
        with tempfile.TemporaryDirectory() as tmp:
            cur = os.path.join(tmp, "cur")
            par = os.path.join(tmp, "par")
            _write(cur, "BENCH_rebuild.json", current_rows)
            if not parent_missing:
                _write(par, "BENCH_rebuild.json", parent_rows)
            failures, _, _ = compare_dirs(cur, None if no_parent else par,
                                          0.25)
            failed = bool(failures)
            assert failed == want_fail, (
                f"self-test case '{desc}': expected "
                f"{'failure' if want_fail else 'pass'}, got {failures}")
        cases += 1

    # Identical runs pass.
    expect("identical", [base_row], [base_row], want_fail=False)
    # A 2x ns_per_op regression fails.
    worse = dict(base_row, ns_per_op=2e6)
    expect("ns_per_op doubled", [worse], [base_row], want_fail=True)
    # A halved speedup fails.
    slower = dict(base_row, speedup_vs_1thread=1.0)
    expect("speedup halved", [slower], [base_row], want_fail=True)
    # Null on one side of a pair is skipped, not compared (bench_to_json
    # emits null for counters a row does not report).
    nullified = dict(base_row, speedup_vs_1thread=None)
    expect("null vs value skipped", [nullified], [base_row],
           want_fail=False)
    expect("value vs null skipped", [base_row], [nullified],
           want_fail=False)
    # Missing parent artifact passes.
    expect("missing parent artifact", [worse], [], want_fail=False,
           parent_missing=True)
    # A parent row the current run no longer has (and vice versa) passes.
    renamed = dict(base_row, benchmark="BM_SelectiveRebuild/renamed")
    expect("disjoint row names", [renamed], [base_row], want_fail=False)
    # Small drift under the threshold passes.
    wobble = dict(base_row, ns_per_op=1.2e6)
    expect("20% wobble under 25% threshold", [wobble], [base_row],
           want_fail=False)
    # A collapsed absorb rate (batches falling off the block-merge fast
    # path) fails; a small dip stays under the threshold.
    unabsorbed = dict(base_row, absorb_rate=0.5)
    expect("absorb_rate collapsed", [unabsorbed], [base_row],
           want_fail=True)
    dipped = dict(base_row, absorb_rate=0.9)
    expect("absorb_rate small dip passes", [dipped], [base_row],
           want_fail=False)
    # The floor: an absorbing row slower than the rebuild fails on its own,
    # with no parent at all, with a missing parent artifact, and even when
    # the parent was just as slow (no drift).
    absorbing = dict(base_row, speedup_vs_rebuild=1.5)
    expect("absorbing row above the floor", [absorbing], [], want_fail=False,
           no_parent=True)
    below = dict(absorbing, speedup_vs_rebuild=0.7)
    expect("absorbing row below the floor, no parent", [below], [],
           want_fail=True, no_parent=True)
    expect("absorbing row below the floor, parent missing", [below], [],
           want_fail=True, parent_missing=True)
    expect("absorbing row below the floor, no drift", [below], [below],
           want_fail=True)
    # Rows without absorb_rate (rebuild rows) have no floor.
    rebuild_row = dict(base_row, absorb_rate=None, speedup_vs_rebuild=0.5)
    expect("non-absorbing row below 1 passes", [rebuild_row], [],
           want_fail=False, no_parent=True)

    print(f"bench_compare.py --self-test: {cases} cases passed")


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--current", default=".",
                    help="dir holding this commit's BENCH_*.json, or one "
                         "such file")
    ap.add_argument("--parent", default=None,
                    help="dir holding the parent commit's BENCH_*.json; "
                         "without it only the floor runs")
    ap.add_argument("--threshold", type=float, default=0.25,
                    help="fractional drift that fails the gate")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if args.self_test:
        self_test()
        return

    failures, notes, compared = compare_dirs(args.current, args.parent,
                                             args.threshold)
    for n in notes:
        print(f"note: {n}")
    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        sys.exit(1)
    print(f"bench_compare.py: floor held; {compared} file(s) compared, "
          f"no drift beyond {args.threshold:.0%}")


if __name__ == "__main__":
    main()
