#!/usr/bin/env python3
"""Compare two recipe output trees: each recipe's manifest `results`,
`criteria` and resolved `config` echo, and its results.csv without the
`seconds` column.

    python scripts/compare_manifests.py out_a out_b

Each tree is what scripts/run_all_recipes.py writes: one directory per
recipe holding manifest.json and results.csv. Values and CSV cells must
match exactly, so a recipe-text edit that leaves every resolved value alone
reads `same`, and one that moves a value shows. Prints one line per recipe
and one per difference; a difference between two numbers (CSV cells that
parse as numbers included) shows |a - b| / max(|a|, |b|), and a recipe's
line shows the largest. Exits
1 on any difference or on a recipe present in only one tree. A reader that
closes early (`| head`) ends it quietly, with exit 1.
"""

import csv
import json
import os
import sys
from pathlib import Path

KEYS = ("results", "criteria", "config")
CSV = "results.csv"


def _diff(a, b, path):
    """Paths (with both values) at which two JSON values differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        out = []
        for k in sorted(set(a) | set(b)):
            if k not in a or k not in b:
                out.append((f"{path}.{k}", a.get(k, "<missing>"), b.get(k, "<missing>")))
            else:
                out += _diff(a[k], b[k], f"{path}.{k}")
        return out
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [d for i, (x, y) in enumerate(zip(a, b)) for d in _diff(x, y, f"{path}[{i}]")]
    return [] if a == b else [(path, a, b)]


def _rel(a, b):
    """|a - b| / max(|a|, |b|) if a and b are both numbers (or CSV cells that
    parse as numbers), else None."""
    if isinstance(a, bool) or isinstance(b, bool):
        return None
    try:
        x, y = float(a), float(b)
    except (TypeError, ValueError):
        return None
    scale = max(abs(x), abs(y))
    return abs(x - y) / scale if scale else 0.0


def _csv_rows(path: Path):
    """The rows of a results.csv with its `seconds` column dropped (None if
    the file is absent)."""
    if not path.exists():
        return None
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if rows and "seconds" in rows[0]:
        k = rows[0].index("seconds")
        rows = [r[:k] + r[k + 1:] for r in rows]
    return rows


def _recipes(root: Path) -> dict:
    out = {}
    for p in sorted(root.glob("*/manifest.json")):
        manifest = json.loads(p.read_text(encoding="utf-8"))
        out[p.parent.name] = {**{k: manifest.get(k) for k in KEYS},
                              CSV: _csv_rows(p.parent / CSV)}
    return out


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    left, right = (_recipes(Path(a)) for a in argv)
    if not left and not right:
        print("no manifests found", file=sys.stderr)
        return 1
    failed = False
    for name in sorted(set(left) | set(right)):
        if name not in left or name not in right:
            print(f"{name:24s} only in {argv[0] if name in left else argv[1]}")
            failed = True
            continue
        diffs = [(*d, _rel(*d[1:])) for k in (*KEYS, CSV)
                 for d in _diff(left[name][k], right[name][k], k)]
        rels = [r for *_, r in diffs if r is not None]
        summary = f"{len(diffs)} difference(s)" if diffs else "same"
        print(f"{name:24s} {summary}" + (f", max rel {max(rels):.1e}" if rels else ""))
        for path, a, b, r in diffs:
            print(f"    {path}: {a!r} != {b!r}" + (f" (rel {r:.1e})" if r is not None else ""))
        failed |= bool(diffs)
    return 1 if failed else 0


if __name__ == "__main__":
    try:
        code = main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout is closed: point it at devnull so the flush at exit is silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)
