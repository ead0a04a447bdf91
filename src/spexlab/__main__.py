"""``python -m spexlab``: the same command line as the ``spexlab`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
