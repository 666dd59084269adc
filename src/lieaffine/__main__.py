"""``python -m lieaffine``: the command-line front end (``lieaffine.cli``)."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
