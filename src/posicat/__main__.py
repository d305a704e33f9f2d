"""`python -m posicat`: the command-line interface of `posicat.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
