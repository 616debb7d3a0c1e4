"""``python -m roughkb``: the command line, as the ``roughkb`` script runs it."""

from .kbio import main

if __name__ == "__main__":
    main()
