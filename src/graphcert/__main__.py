"""``python -m graphcert``: the ``graphcert`` command line, see :mod:`graphcert.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
