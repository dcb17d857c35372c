"""Bundled parity-check matrices in alist format.

Generated once by tools/make_codes.py and committed; the library never
synthesizes codes at runtime.
"""

from importlib import resources

from ..codebook import parse_alist


def load(name):
    """Parse the bundled code ``name`` into a ParityCheckMatrix."""
    return parse_alist(resources.files(__package__).joinpath(f"{name}.alist").read_text("ascii"))
