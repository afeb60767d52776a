"""`python -m wqcm`: the command-line interface of `wqcm.cli`."""

from .cli import main

if __name__ == "__main__":
    main()
