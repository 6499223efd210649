"""Entry point for `python -m voroscape`; see cli.py for the subcommands."""

import sys

from .cli import main

# guarded, so a spawned worker that re-imports the main module runs nothing
if __name__ == "__main__":
    sys.exit(main())
