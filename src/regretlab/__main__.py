"""``python -m regretlab``: the same command line as the ``regretlab`` script."""

import sys

from .cli import main

__all__: list[str] = []

if __name__ == "__main__":
    sys.exit(main())
