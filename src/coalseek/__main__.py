"""``python -m coalseek``: the ``coalseek`` command."""

import sys

from .cli import main

sys.exit(main())
