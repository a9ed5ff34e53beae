"""Reference multivariable minor gcd: the shared-prefix recursive fold.

``minors._enumerate_minor_gcd`` gives each k-row subset its own Laplace
expansion and visits the cyclic row windows before the other subsets.
This module keeps the fold it replaced, unchanged: a recursive walk over
the row subsets in lexicographic order that shares the expansion of
common row prefixes and stops once the running gcd reaches the floor.
Both return the unit-normal gcd, so the tests can check that they agree.
"""

from __future__ import annotations

from alexpoly.minors import Row
from alexpoly.ring import LaurentPoly, gcd, normalize


def _enumerate_minor_gcd(rows: list[Row], k: int, nvars: int,
                         floor: LaurentPoly | None = None) -> LaurentPoly:
    m = len(rows)
    n = len(rows[0])
    one = LaurentPoly.one(nvars)
    floor = one if floor is None else normalize(floor)
    zero = LaurentPoly.zero(nvars)
    running = zero

    def expand(state: dict[tuple[int, ...], LaurentPoly], row: Row,
               depth: int) -> dict[tuple[int, ...], LaurentPoly]:
        new: dict[tuple[int, ...], LaurentPoly] = {}
        for cols, det in state.items():
            for c in range(n):
                if c in cols:
                    continue
                entry = row[c]
                if entry.is_zero:
                    continue
                ncols = tuple(sorted(cols + (c,)))
                pos = ncols.index(c)
                term = entry * det
                if (depth + pos) % 2:
                    term = -term
                acc = new.get(ncols)
                new[ncols] = term if acc is None else acc + term
        return {cols: det for cols, det in new.items() if not det.is_zero}

    def recurse(start: int, state: dict[tuple[int, ...], LaurentPoly],
                depth: int) -> bool:
        nonlocal running
        if depth == k:
            for det in state.values():
                running = gcd(running, det)
                if running == floor:
                    return True
            return False
        for i in range(start, m - (k - depth) + 1):
            nxt = expand(state, rows[i], depth)
            if nxt and recurse(i + 1, nxt, depth + 1):
                return True
        return False

    recurse(0, {(): one}, 0)
    return normalize(running)
