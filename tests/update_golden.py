"""Rewrite tests/data/golden.json, the sha256 of every pipeline artifact for
the golden inputs, from this tree, with the Python and numpy versions that
made them. Run it only when a change alters artifact bytes on purpose, and
say in CHANGES.md which digests changed and why:

    PYTHONPATH=src python tests/update_golden.py
"""

import json
import platform
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np

from test_acceptance import GOLDEN, golden_digests


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(StringIO()):
        digests = golden_digests(Path(tmp))
    record = {"python": platform.python_version(), "numpy": np.__version__, "digests": digests}
    GOLDEN.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main()
