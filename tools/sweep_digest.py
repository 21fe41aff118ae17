#!/usr/bin/env python3
"""Print sha256 digests of sweep_boxes' output on two fixed lists of fronts.

    PYTHONPATH=src python3 tools/sweep_digest.py

The first line covers the m >= 4 sweep: generate_front(m, n, seed) under
benchmark_frame(m) for m = 4-7, n in SIZES and seeds 0-1, plus the tests'
lattice_front(m, seed) for m = 4-6 and seeds 0-8: 99 fronts, the lattice ones
tied on every axis. The second line covers the m = 2 staircase and the m = 3
CLM sweep: the same generate_front fronts for m = 2 and 3, plus
lattice_front(3, seed) for seeds 0-8: 45 fronts. Each front adds its breaks,
lower and upper arrays (dtype, shape and bytes) to its line's digest, or the
refusal message if the sweep's box budget refuses it. Two revisions that
print the same digests produce the same boxes in the same order.

To compare two revisions, run it on a `git archive` export of each, with
PYTHONDONTWRITEBYTECODE=1 so that no __pycache__ is left behind:

    git archive REV | tar -x -C DIR
    PYTHONDONTWRITEBYTECODE=1 PYTHONPATH=DIR/src python3 tools/sweep_digest.py

The fronts come from tests/helpers.py next to this script, so this
checkout's tool can digest an older revision's src/.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from helpers import lattice_front, random_front  # noqa: E402

from ehvi.errors import ParameterError  # noqa: E402
from ehvi.sweep import sweep_boxes  # noqa: E402

SIZES = (3, 6, 10, 15, 20, 30, 40, 50, 60)


def fronts(ms: range, lattice_ms: range):
    for m in ms:
        for n in SIZES:
            for seed in range(2):
                yield f"random_front({m}, {n}, {seed})", random_front(m, n, seed)
    for m in lattice_ms:
        for seed in range(9):
            yield f"lattice_front({m}, {seed})", lattice_front(m, seed)


def digest_line(named_fronts) -> str:
    digest = hashlib.sha256()
    count = boxes = 0
    for name, front in named_fronts:
        digest.update(name.encode())
        try:
            got = sweep_boxes(front)
        except ParameterError as exc:
            digest.update(str(exc).encode())
        else:
            for a in got:
                digest.update(f"{a.dtype}{a.shape}".encode())
                digest.update(a.tobytes())
            boxes += len(got.lower)
        count += 1
    return f"{count} fronts, {boxes} boxes, sha256 {digest.hexdigest()}"


def main() -> None:
    print(digest_line(fronts(range(4, 8), range(4, 7))))
    print(digest_line(fronts(range(2, 4), range(3, 4))))


if __name__ == "__main__":
    main()
