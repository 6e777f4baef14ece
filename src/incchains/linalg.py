"""Exact matrix ranks over the rationals and over prime fields.

Boundary matrices of the complexes handled here are sparse with unit
entries, so rational ranks are computed by integer elimination: unit
pivots first (chosen to limit fill-in), then a fraction-free elimination
on whatever dense core remains.  Prime-field ranks use vectorized
Gauss elimination.
"""

from __future__ import annotations

import heapq

import numpy as np

__all__ = ["rank_int_exact", "rank_modp", "rank_dense_exact"]


def rank_dense_exact(matrix):
    """Rank of an integer matrix over the rationals, by fraction-free elimination."""
    m = [list(row) for row in matrix]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    prev = 1
    row = 0
    for col in range(ncols):
        pivot = None
        for r in range(row, nrows):
            if m[r][col]:
                if pivot is None or abs(m[r][col]) < abs(m[pivot][col]):
                    pivot = r
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        p = m[row][col]
        for r in range(row + 1, nrows):
            if not m[r][col]:
                # still rescale for Bareiss consistency
                for c in range(col + 1, ncols):
                    m[r][c] = m[r][c] * p // prev
                continue
            f = m[r][col]
            for c in range(col + 1, ncols):
                m[r][c] = (m[r][c] * p - f * m[row][c]) // prev
            m[r][col] = 0
        prev = p
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank


def rank_int_exact(rows, ncols):
    """Rank over the rationals of a sparse integer matrix.

    ``rows`` is a list of {column: value} dicts.  Unit pivots are
    eliminated first, shortest row first, each on its least-used unit
    column to limit fill-in; any remaining block goes through dense
    fraction-free elimination.  A heap keyed by row length finds the next
    pivot row (entries left by rows changed since are skipped), and a
    column index means a pivot touches only the rows holding its column.
    """
    live = {}
    col_rows = {}
    for ri, r in enumerate(rows):
        if r:
            live[ri] = dict(r)
            for c in r:
                col_rows.setdefault(c, set()).add(ri)
    version = dict.fromkeys(live, 0)
    heap = [(len(r), ri, 0) for ri, r in live.items()]
    heapq.heapify(heap)
    rank = 0
    while heap:
        _, ri, ver = heapq.heappop(heap)
        if version.get(ri) != ver:
            continue  # pivoted, emptied or changed since this entry was pushed
        pivot_row = live[ri]
        units = [c for c, v in pivot_row.items() if v == 1 or v == -1]
        if not units:
            continue  # left for the dense block unless a later pivot changes it
        c = min(units, key=lambda k: (len(col_rows[k]), k))
        pv = pivot_row[c]
        del live[ri], version[ri]
        for col in pivot_row:
            col_rows[col].discard(ri)
        rank += 1
        for ti in col_rows.pop(c):
            r = live[ti]
            scale = r[c] * pv  # pv is +-1, so r[c] / pv == r[c] * pv
            for col, v in pivot_row.items():
                old = r.get(col)
                if old is None:
                    r[col] = -scale * v
                    col_rows.setdefault(col, set()).add(ti)
                else:
                    new = old - scale * v
                    if new:
                        r[col] = new
                    else:
                        del r[col]
                        if col != c:
                            col_rows[col].discard(ti)
            if r:
                version[ti] += 1
                heapq.heappush(heap, (len(r), ti, version[ti]))
            else:
                del live[ti], version[ti]
    if not live:
        return rank
    cols = sorted({c for r in live.values() for c in r})
    idx = {c: j for j, c in enumerate(cols)}
    dense = [[0] * len(cols) for _ in live]
    for i, r in enumerate(live.values()):
        for c, v in r.items():
            dense[i][idx[c]] = v
    return rank + rank_dense_exact(dense)


def rank_modp(matrix, p):
    """Rank of an integer matrix over the field with p elements (p prime)."""
    a = np.array(matrix, dtype=np.int64) % p
    if a.size == 0:
        return 0
    nrows, ncols = a.shape
    rank = 0
    row = 0
    for col in range(ncols):
        pivots = np.nonzero(a[row:, col])[0]
        if pivots.size == 0:
            continue
        r = row + int(pivots[0])
        if r != row:
            a[[row, r]] = a[[r, row]]
        inv = pow(int(a[row, col]), p - 2, p)
        a[row] = (a[row] * inv) % p
        mask = np.nonzero(a[:, col])[0]
        mask = mask[mask != row]
        if mask.size:
            a[mask] = (a[mask] - np.outer(a[mask, col], a[row])) % p
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank
