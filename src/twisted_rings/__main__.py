"""Command-line entry point: python -m twisted_rings ARGS."""

from .cli import main

if __name__ == "__main__":
    main()
