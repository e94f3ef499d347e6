"""The benchmark's modules import each other by bare name, as when
``perfbench/run.py`` runs as a script."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
