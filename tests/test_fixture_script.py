"""scripts/generate_fixture.py regenerates the bundled pipeline fixture byte for byte."""

from __future__ import annotations

import importlib.util
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "tests" / "fixtures" / "pipeline"


def test_generate_fixture_reproduces_bundled_fixture(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("generate_fixture", ROOT / "scripts" / "generate_fixture.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "FIXTURE_DIR", tmp_path)
    script.main()
    diff = subprocess.run(["diff", "-r", str(FIXTURE), str(tmp_path)], capture_output=True, text=True)
    assert diff.returncode == 0, diff.stdout + diff.stderr
