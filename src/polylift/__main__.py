"""`python -m polylift`: the command-line interface of `polylift.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
