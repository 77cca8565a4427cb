"""``python -m hpng``: the command line front end, also from a source checkout."""

import sys

from .cli import main

sys.exit(main())
