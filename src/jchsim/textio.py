"""Atomic text output shared by every artifact writer."""

import os


def write_text_atomic(path, text):
    """Write via a temp file and rename, so readers never see a partial file."""
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)
