"""python -m dosloop: the dosloop command, without its installed script."""
import sys

from .cli import main

sys.exit(main())
