"""``python -m polarb``: the same command line as the ``polarb`` script, with
the same exit codes (0 success, 1 failed verification, 2 usage error)."""

import sys

from .shell import main

sys.exit(main())
