"""``python -m symcover``: the same command line as the ``symcover`` script."""

import sys

from .cli import main

sys.exit(main())
