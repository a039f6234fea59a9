"""``python -m extsq``: the same command line as the ``extsq`` script."""
from .cli import main

raise SystemExit(main())
