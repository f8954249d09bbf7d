"""``python -m sparsehg``: the command line of the ``sparsehg`` script."""
from .cli import main

main()
