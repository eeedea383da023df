"""``python -m sqgreen``: the command-line interface of :mod:`sqgreen.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
