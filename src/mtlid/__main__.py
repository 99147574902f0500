"""The `mtlid` command, as installed and as `python -m mtlid`.

It sets each BLAS thread variable the environment leaves unset to 1 before
numpy loads, so that OpenBLAS starts no threads of its own: the helper
thread that inference and training share (see `train._helper`) already
uses the second core, and two BLAS threads under each of two Python
threads oversubscribe it. A
value the user sets wins. Code that imports `mtlid` as a library keeps
its own BLAS setting; only this entry point sets one.
"""

from __future__ import annotations

import os
import sys

from . import BLAS_THREAD_VARS


def main() -> int:
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    from .cli import main as cli_main  # after the variables: this loads numpy

    return cli_main()


if __name__ == "__main__":
    sys.exit(main())
