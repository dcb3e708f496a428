"""Run the command-line interface as `python -m iswpt`."""

import sys

from .cli import main

sys.exit(main())
