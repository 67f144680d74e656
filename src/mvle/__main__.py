"""``python -m mvle``: the command line of :mod:`mvle.cli`."""

import sys

from .cli import main

sys.exit(main())
