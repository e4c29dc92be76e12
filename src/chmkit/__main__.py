"""``python -m chmkit``: the command-line front end, as ``chmkit``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
