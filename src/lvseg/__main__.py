"""``python -m lvseg``: the same command line as the ``lvseg`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
