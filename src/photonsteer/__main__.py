"""``python -m photonsteer …`` runs the command line, as the ``photonsteer`` script does."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
