"""``python -m fairmon``: the same command line as the ``fairmon``
script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
