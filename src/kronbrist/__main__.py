"""``python -m kronbrist``: the command line of ``kronbrist.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
