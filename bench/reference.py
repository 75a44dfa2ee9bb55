"""A fixed computation, independent of triadica, that gauges the machine.

run.py starts this script as a fresh process after every measured job and
divides the job times of a run by the median time of these runs, so that the
machine's drift in speed, which on a shared host lasts minutes and moves every
job alike, cancels out of the reported figures.  It does what the jobs do in
kind: start an interpreter, import the standard modules the command line
imports, and run exact Gauss-Jordan elimination over `Fraction`.  Nothing in
it depends on the code under test, so a change to triadica cannot move it.

It prints the rank and a checksum of the reduced matrix, which run.py
compares with EXPECTED.
"""

import argparse  # noqa: F401  (imported, as by the command line)
import json
import random
from fractions import Fraction

SIZE = 24
EXPECTED = "rank 24"


def rref(rows):
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]),
                     None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for i, row in enumerate(rows):
            if i != rank and row[col]:
                f = row[col]
                rows[i] = [a - f * b for a, b in zip(row, rows[rank])]
        rank += 1
    return rank, rows


def main() -> None:
    rng = random.Random(1311)
    matrix = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9))
               for _ in range(SIZE)] for _ in range(SIZE)]
    text = json.dumps([[str(x) for x in row] for row in matrix])
    rank, reduced = rref([[Fraction(x) for x in row]
                          for row in json.loads(text)])
    assert all(reduced[i][j] == (i == j) for i in range(rank)
               for j in range(SIZE))
    print(f"rank {rank}")


if __name__ == "__main__":
    main()
