"""Exact matrix ranks over the rationals and over prime fields.

Boundary matrices of the complexes handled here are sparse with unit
entries, so one sparse eliminator serves every field, in the style of
structured Gaussian elimination (LaMacchia and Odlyzko, 1990): unit
pivots first, chosen to limit fill-in.  Over F_p every nonzero residue is
a unit.  Over the rationals a block left without a +-1 entry is cleared
on its smallest-magnitude entry, scaling the rows it clears so that all
arithmetic stays in Python integers.
"""

from __future__ import annotations

import heapq
from math import gcd

__all__ = ["rank_int_exact"]


def rank_int_exact(rows, ncols, field_char=0):
    """Rank of a sparse integer matrix over Q (``field_char`` 0) or over F_p.

    ``rows`` is a list of {column: nonzero value} dicts; over F_p the
    values are reduced mod p first.  Unit pivots are eliminated first,
    shortest row first, each on its least-used unit column to limit
    fill-in.  A heap keyed by row length finds the next pivot row (entries
    left by rows changed since are skipped), and a column index means a
    pivot touches only the rows holding its column.  Over Q, once no live
    row has a +-1 entry, the smallest-magnitude entry is the pivot.
    """
    p = field_char
    live = {}
    col_rows = {}
    for ri, r in enumerate(rows):
        r = {c: v % p for c, v in r.items() if v % p} if p else dict(r)
        if r:
            live[ri] = r
            for c in r:
                col_rows.setdefault(c, set()).add(ri)
    version = dict.fromkeys(live, 0)
    heap = [(len(r), ri, 0) for ri, r in live.items()]
    heapq.heapify(heap)
    rank = 0
    while live:
        if heap:
            _, ri, ver = heapq.heappop(heap)
            if version.get(ri) != ver:
                continue  # pivoted, emptied or changed since this entry was pushed
            pivot_row = live[ri]
            units = list(pivot_row) if p else [
                c for c, v in pivot_row.items() if v == 1 or v == -1
            ]
            if not units:
                continue  # waits for the non-unit step unless a later pivot changes it
            c = min(units, key=lambda k: (len(col_rows[k]), k))
        else:
            # only over Q: every live row was popped without a +-1 entry
            _, _, _, ri, c = min(
                (abs(v), len(r), len(col_rows[c]), ri, c)
                for ri, r in live.items()
                for c, v in r.items()
            )
            pivot_row = live[ri]
        pv = pivot_row[c]
        inv = pow(pv, -1, p) if p else None
        del live[ri], version[ri]
        for col in pivot_row:
            col_rows[col].discard(ri)
        rank += 1
        for ti in col_rows.pop(c):
            r = live[ti]
            f = r[c]
            scaled = False
            if p:
                scale = f * inv % p
            else:
                # r <- (|pv| / g) * r - (sign(pv) * f / g) * pivot_row clears column c
                g = gcd(pv, f)
                scale = f // g if pv > 0 else -f // g
                if g != abs(pv):
                    mult = abs(pv) // g
                    for col in r:
                        r[col] *= mult
                    scaled = True
            for col, v in pivot_row.items():
                old = r.get(col)
                if old is None:
                    r[col] = -scale * v % p if p else -scale * v
                    col_rows.setdefault(col, set()).add(ti)
                else:
                    new = old - scale * v
                    if p:
                        new %= p
                    if new:
                        r[col] = new
                    else:
                        del r[col]
                        if col != c:
                            col_rows[col].discard(ti)
            if r:
                if scaled:
                    content = gcd(*r.values())
                    if content > 1:
                        for col in r:
                            r[col] //= content
                version[ti] += 1
                heapq.heappush(heap, (len(r), ti, version[ti]))
            else:
                del live[ti], version[ti]
    return rank
