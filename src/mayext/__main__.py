"""`python -m mayext`: the mayext command line."""

from .cli_runner import main

if __name__ == "__main__":
    main()
