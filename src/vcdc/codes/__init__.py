"""Bundled parity-check matrices in alist format, and the one code lookup.

Generated once by tools/make_codes.py and committed; the library never
synthesizes codes at runtime.
"""

import os
from importlib import resources

from ..codebook import parse_alist


def load(name):
    """The ParityCheckMatrix of ``name``, a str or path: the alist file at
    that path when one exists; else, when ``name`` has no path separator,
    the bundled code of that name, with or without ``.alist``; else the
    FileNotFoundError of opening ``name``."""
    path = str(name)
    if not os.path.exists(path) and os.path.sep not in path:
        bundled = resources.files(__package__).joinpath(f"{path.removesuffix('.alist')}.alist")
        if bundled.is_file():
            return parse_alist(bundled.read_text("ascii"))
    with open(path, "r", encoding="ascii") as fh:
        return parse_alist(fh.read())
