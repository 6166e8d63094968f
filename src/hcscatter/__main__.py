"""``python -m hcscatter``: the same command line as the installed
``hcscatter`` script."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
