#!/usr/bin/env python3
"""Print one sha256 over sweep_boxes' output on a fixed list of m >= 4 fronts.

    PYTHONPATH=src python3 tools/sweep_digest.py

The fronts are generate_front(m, n, seed) under benchmark_frame(m) for m = 4-7,
n in SIZES and seeds 0-1, plus the tests' lattice_front(m, seed) for m = 4-6
and seeds 0-8: 99 fronts, the lattice ones tied on every axis. Each front adds
its breaks, lower and upper arrays (dtype, shape and bytes) to the digest, or
the refusal message if the sweep's box budget refuses it. Two revisions that
print the same digest produce the same boxes in the same order.
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


def fronts():
    for m in range(4, 8):
        for n in SIZES:
            for seed in range(2):
                yield f"random_front({m}, {n}, {seed})", random_front(m, n, seed)
    for m in range(4, 7):
        for seed in range(9):
            yield f"lattice_front({m}, {seed})", lattice_front(m, seed)


def main() -> None:
    digest = hashlib.sha256()
    count = boxes = 0
    for name, front in fronts():
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
    print(f"{count} fronts, {boxes} boxes, sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
