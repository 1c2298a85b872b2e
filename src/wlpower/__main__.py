"""``python -m wlpower``: the same command line as the ``wlpower`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
