"""``python -m gkmalg``: the command-line interface."""

from .cli import entry

entry()
