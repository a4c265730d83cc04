"""``python -m corrint``: the command-line interface of ``corrint.cli``."""
import sys

from .cli import main

sys.exit(main())
