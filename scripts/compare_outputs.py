"""Compare two output directories of randkf, file by file.

    python scripts/compare_outputs.py DIR_A DIR_B

Prints one line per file name found in either directory: "equal" when
the bytes match; otherwise, for a CSV with the same header and shape,
the largest relative difference over its cells, each cell's difference
taken relative to the largest magnitude in its column.  Exits 1 when a
file is missing from one side, a non-CSV file differs, a CSV's header or
shape differs, or a difference exceeds TOLERANCE; otherwise 0.
"""

from __future__ import annotations

import csv
import sys
from pathlib import Path

import numpy as np

TOLERANCE = 1e-12


def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0] if rows else [], np.array(
        [[float(v) for v in row] for row in rows[1:]])


def csv_difference(a: Path, b: Path) -> float | str:
    """Largest column-relative cell difference, or why there is none."""
    try:
        (head_a, cells_a), (head_b, cells_b) = _read_csv(a), _read_csv(b)
    except ValueError as exc:
        return f"non-numeric cell ({exc})"
    if head_a != head_b:
        return "headers differ"
    if cells_a.shape != cells_b.shape:
        return f"shapes differ: {cells_a.shape} vs {cells_b.shape}"
    if cells_a.size == 0:
        return 0.0
    same = (cells_a == cells_b) | (np.isnan(cells_a) & np.isnan(cells_b))
    with np.errstate(invalid="ignore", divide="ignore"):
        mag = np.fmax(np.abs(cells_a), np.abs(cells_b))
        scale = np.where(np.isnan(mag), 0.0, mag).max(axis=0)
        rel = np.where(same, 0.0, np.abs(cells_a - cells_b) / scale)
    # a nan on one side only, or an infinity against a number, is unequal
    rel[np.isnan(rel)] = np.inf
    return float(rel.max())


def compare(dir_a: Path, dir_b: Path) -> bool:
    ok = True
    names = sorted({p.name for d in (dir_a, dir_b) for p in d.iterdir()
                    if p.is_file()})
    for name in names:
        a, b = dir_a / name, dir_b / name
        if not (a.is_file() and b.is_file()):
            print(f"{name}: only in {dir_a if a.is_file() else dir_b}")
            ok = False
        elif a.read_bytes() == b.read_bytes():
            print(f"{name}: equal")
        elif a.suffix != ".csv":
            print(f"{name}: differs")
            ok = False
        else:
            diff = csv_difference(a, b)
            if isinstance(diff, str):
                print(f"{name}: {diff}")
                ok = False
            else:
                print(f"{name}: max relative difference {diff:.3g}")
                ok = ok and diff <= TOLERANCE
    return ok


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    return 0 if compare(Path(argv[0]), Path(argv[1])) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
