"""`python -m ptlab`: the same command line as the `ptlab` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
