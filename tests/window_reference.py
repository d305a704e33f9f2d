"""The bounds test i <= f(i) <= i + n on a raw window, for tests that build
candidate windows and keep the bounded ones.  The package tests bounds only
inside the `BoundedAffinePerm` constructor, which every construction runs."""


def is_bounded(w: tuple[int, ...]) -> bool:
    n = len(w)
    return all(i <= w[i] <= i + n for i in range(n))
