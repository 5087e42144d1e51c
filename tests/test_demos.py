"""The three demos under demos/ print exactly what they printed when this pin
was taken: each runs in-process and its stdout is hashed, in file order."""

import contextlib
import hashlib
import io
import runpy
from pathlib import Path

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
DEMOS_SHA256 = "600cc5ce7e66181e0e13079687a84f98d3b15f52ab28c2dd88a0b3f8b7090031"


def test_demos_output_is_pinned():
    h = hashlib.sha256()
    for path in DEMOS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            runpy.run_path(str(path), run_name="__main__")
        h.update(f"{path.name}\n{out.getvalue()}".encode())
    assert [p.name for p in DEMOS] == ["distribution_bound.py", "path_bounds.py", "tree_bounds.py"]
    assert h.hexdigest() == DEMOS_SHA256
