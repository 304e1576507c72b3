"""``python -m varnamer``: the command line the ``varnamer`` script runs."""

from .cli import main

if __name__ == "__main__":
    main()
