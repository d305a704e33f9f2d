"""The bounds tests i <= f(i) <= i + n and i < f(i) < i + n on a raw window,
for tests that build candidate windows and keep the bounded ones, and for
tests that check `is_theta` against its definition.  The package tests bounds
only inside the `BoundedAffinePerm` constructor, which every construction
runs, and reads strict bounds off the cycles."""


def is_bounded(w: tuple[int, ...]) -> bool:
    n = len(w)
    return all(i <= w[i] <= i + n for i in range(n))


def is_strictly_bounded(w: tuple[int, ...]) -> bool:
    n = len(w)
    return all(i < w[i] < i + n for i in range(n))
