"""The bounds tests i <= f(i) <= i + n and i < f(i) < i + n on a raw window,
for tests that build candidate windows and keep the bounded ones, and for
tests that check `is_theta` against its definition.  The package tests bounds
only inside the `BoundedAffinePerm` constructor, which every construction
runs, and reads strict bounds off the cycles.  `is_normal` is the engine's
normal form written out, for tests of code that reads only normal windows."""


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
