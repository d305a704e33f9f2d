"""The bounds tests i <= f(i) <= i + n and i < f(i) < i + n on a raw window,
for tests that build candidate windows and keep the bounded ones, and for
tests that check `is_theta` against its definition.  The package tests bounds
only inside the `BoundedAffinePerm` constructor, which every construction
runs, and reads strict bounds off the cycles.  `is_normal` is the engine's
normal form written out, for tests of code that reads only normal windows.
`drop` deletes one fixed residue, a reference for the one-pass removal."""


def is_bounded(w: tuple[int, ...]) -> bool:
    n = len(w)
    return all(i <= w[i] <= i + n for i in range(n))


def is_strictly_bounded(w: tuple[int, ...]) -> bool:
    n = len(w)
    return all(i < w[i] < i + n for i in range(n))


def is_normal(w: tuple[int, ...]) -> bool:
    """n >= 2, no fixed residue (f(i) = i or i + n) and no simple factor
    (f(i) = i + 1 or f(i) = i + n - 1)."""
    n = len(w)
    return n >= 2 and all(w[i] - i not in (0, 1, n - 1, n) for i in range(n))


def drop(w: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Delete position p and the residue r = w[p] mod n, mapping every other
    value y to y - y//n - [y mod n > r]: the period n-1 window on the
    positions and residues left.  When w[p] is p or p + n, this is the
    restriction of f to the residues other than p.

    The map is one floor division, y - (y + n-1-r)//n, since y mod n + n-1-r
    reaches n exactly when y mod n > r.  Window values are distinct, so w[p]
    is skipped by value."""
    n = len(w)
    v = w[p]
    c = n - 1 - v % n
    return tuple([y - (y + c) // n for y in w if y != v])
