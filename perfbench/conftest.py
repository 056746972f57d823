"""Lets `python3 -m pytest perfbench` import hadcl from this checkout's src/,
as perfbench/run.py does."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
