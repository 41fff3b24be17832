import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = Path(__file__).resolve().parent / "data" / "demo_stdout"


@pytest.mark.parametrize(
    "demo",
    [
        "01_fields_and_polynomials.py",
        "02_canonical_forms.py",
        "03_self_duality.py",
        "04_classification.py",
    ],
)
def test_demo_runs(demo):
    # each demo prints exactly its recorded output, byte for byte
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    expected = (EXPECTED / demo).with_suffix(".txt").read_text(encoding="utf-8")
    assert proc.stdout == expected
