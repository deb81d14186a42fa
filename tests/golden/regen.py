"""Rerun the golden CLI cases and print every field that would move.

    python tests/golden/regen.py [--write] [CASE ...]

For each case of tests/test_golden.py (all of them by default) this runs
the command on the code in src/, compares it with the committed
reference field by field and prints each moved field as

    case path: old -> new  [within | OUTSIDE | not compared]

where the verdict is the tolerance table's, then one summary line per
case: the number of moved fields and the largest absolute move among the
compared numbers, with its field.  With --write it then
rewrites the references of the cases it ran.  It exits with status 1
when any field is outside tolerance, so it can serve as a check.  A
change that rewrites references lists every moved value in CHANGES.md.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from test_golden import (CASES, _is_number, field_diffs,  # noqa: E402
                         reference_path, run_case)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("cases", nargs="*", metavar="CASE",
                        help="cases to run (default: all)")
    parser.add_argument("--write", action="store_true",
                        help="rewrite the references of the cases run")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.cases) - set(CASES))
    if unknown:
        parser.error(f"unknown case(s) {unknown}; known: {sorted(CASES)}")

    outside = 0
    for name in args.cases or sorted(CASES):
        path = reference_path(name)
        new = run_case(name)
        if path.is_file():
            old = json.loads(path.read_text(encoding="utf-8"))
            diffs = list(field_diffs(old, new))
        else:
            diffs = [("", None, "(new reference)", "OUTSIDE")]
        for field, a, b, verdict in diffs:
            print(f"{name} {field}: {a!r} -> {b!r}  [{verdict}]")
            outside += verdict.startswith("OUTSIDE")
        moves = [(abs(b - a), field) for field, a, b, verdict in diffs
                 if verdict != "not compared" and _is_number(a) and _is_number(b)]
        if not diffs:
            print(f"{name}: unchanged")
        elif moves:
            size, where = max(moves, key=lambda m: m[0])
            print(f"{name}: {len(diffs)} field(s) moved, "
                  f"largest by {size:.2g} in {where}")
        else:
            print(f"{name}: {len(diffs)} field(s) moved")
        if args.write:
            path.write_text(json.dumps(new, indent=1) + "\n", encoding="utf-8")
    print(f"{outside} field(s) outside tolerance"
          + ("; references written" if args.write else ""))
    return 1 if outside else 0


if __name__ == "__main__":
    sys.exit(main())
