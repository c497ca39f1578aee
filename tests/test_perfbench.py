"""The benchmark's quick mode still runs against the program.

perfbench patches the program's functions by name (the tracer) and calls
some of them directly (its self-tests), so a rename or a signature change in
`src/` can break it without any other test noticing. The quick run happens
in a temporary copy of `perfbench/`, `BENCHMARK.json` and `src/`, so the
checkout's `perfbench/work` and `perfbench/results` are never touched.
"""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_quick_mode_is_ok(tmp_path):
    skip = shutil.ignore_patterns("work", "results", "__pycache__")
    for name in ("perfbench", "src"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--quick"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-4000:]
    assert "quick mode: ok" in proc.stdout
