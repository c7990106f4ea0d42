"""Answers computed apart from the engine, to check its outputs.

Each oracle works from the live rows (``{relation: {row: multiplicity}}``)
with plain Python joins and NumPy, sharing no code with the engine's
planner, triggers or rings.  Inputs are small integers, so every value is
an exact float and the comparisons are exact.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Sequence, Tuple

import numpy as np

Live = Dict[str, Dict[tuple, int]]


def apply_rows(live: Live, relation: str, rows, multiplicity: int) -> None:
    """Add ``multiplicity`` copies of each row to ``live`` (in place)."""
    table = live.setdefault(relation, {})
    for row in rows:
        count = table.get(row, 0) + multiplicity
        if count:
            table[row] = count
        else:
            del table[row]


def hash_join(schemas, live: Live, order: Sequence[str]):
    """Natural join of ``order``'s relations by successive hash joins;
    returns ``(columns, [(values, multiplicity), ...])``."""
    columns: list = []
    rows = [((), 1)]
    for rel in order:
        schema = schemas[rel]
        shared = [a for a in schema if a in columns]
        probe = [schema.index(a) for a in shared]
        fresh = [i for i, a in enumerate(schema) if a not in columns]
        index = defaultdict(list)
        for row, mult in live.get(rel, {}).items():
            index[tuple(row[i] for i in probe)].append(
                (tuple(row[i] for i in fresh), mult)
            )
        left = [columns.index(a) for a in shared]
        joined = []
        for values, mult in rows:
            for extra, m in index.get(tuple(values[i] for i in left), ()):
                joined.append((values + extra, mult * m))
        columns += [schema[i] for i in fresh]
        rows = joined
    return columns, rows


def moment_matrix(schemas, live: Live, order, variables) -> np.ndarray:
    """``Zᵀ·diag(m)·Z`` over the join, ``Z = [1, variables...]`` per row —
    the extended cofactor matrix the cofactor ring maintains."""
    columns, rows = hash_join(schemas, live, order)
    width = len(variables) + 1
    if not rows:
        return np.zeros((width, width))
    values = np.array([v for v, _ in rows], dtype=float)
    picks = [columns.index(v) for v in variables]
    z = np.empty((len(rows), width))
    z[:, 0] = 1.0
    z[:, 1:] = values[:, picks]
    m = np.array([mult for _, mult in rows], dtype=float)
    return z.T @ (z * m[:, None])


def star_sum(schemas, live: Live, key: str, summed: Tuple[str, str]) -> float:
    """Closed-form SUM of ``summed = (relation, attribute)`` over a star
    join on ``key``: per key value, the summed relation's weighted sum
    times every other relation's multiplicity total."""
    rel_summed, attr = summed
    pos = schemas[rel_summed].index(attr)
    total = 0
    per_key = {}
    for rel, schema in schemas.items():
        k = schema.index(key)
        sums: Dict[object, int] = defaultdict(int)
        for row, mult in live.get(rel, {}).items():
            sums[row[k]] += mult * row[pos] if rel == rel_summed else mult
        per_key[rel] = sums
    for value, weighted in per_key[rel_summed].items():
        product = weighted
        for rel, sums in per_key.items():
            if rel != rel_summed:
                product *= sums.get(value, 0)
        total += product
    return float(total)


class KeyMoments:
    """Per-key ``(n, Σx, Σx²)`` of each relation ``X(A, x)`` of the
    serving star ``Q(A) = R(A,B) ⋈ S(A,C) ⋈ T(A,D)``, kept as writes
    arrive, giving each key's cofactor matrix in closed form."""

    def __init__(self, relations: Sequence[str]):
        self.relations = tuple(relations)
        self.stats = {rel: defaultdict(lambda: [0, 0, 0]) for rel in relations}

    def apply(self, relation: str, rows: Dict[tuple, int]) -> None:
        """Add ``{(a, x): multiplicity}`` rows to ``relation``."""
        stats = self.stats[relation]
        for (a, x), mult in rows.items():
            entry = stats[a]
            entry[0] += mult
            entry[1] += mult * x
            entry[2] += mult * x * x

    def matrix(self, key) -> np.ndarray:
        """The 4×4 extended cofactor matrix of ``key`` (1, B, C, D)."""
        n, s, q = zip(*(
            self.stats[rel].get(key, (0, 0, 0)) for rel in self.relations
        ))
        out = np.zeros((4, 4))
        out[0, 0] = n[0] * n[1] * n[2]
        for i in range(3):
            out[0, i + 1] = out[i + 1, 0] = s[i] * _prod(n, skip=(i,))
            out[i + 1, i + 1] = q[i] * _prod(n, skip=(i,))
            for j in range(i + 1, 3):
                value = s[i] * s[j] * _prod(n, skip=(i, j))
                out[i + 1, j + 1] = out[j + 1, i + 1] = value
        return out


def _prod(values, skip) -> int:
    out = 1
    for i, v in enumerate(values):
        if i not in skip:
            out *= v
    return out


def same(got: np.ndarray, expected: np.ndarray) -> bool:
    """Exact equality of two result matrices (all values are exact)."""
    return got.shape == expected.shape and bool(np.array_equal(got, expected))
