"""The tracing contract of ``perfbench/traced.py``.

The tracer replaces functions on the package's modules by name, so a renamed
function breaks it, and a ``from module import name`` inside the package
would call past its wrapper.  Both would go unnoticed until a traced
benchmark run.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from test_cli import TOY16

ROOT = Path(__file__).resolve().parent.parent
TRACED = ROOT / "perfbench" / "traced.py"


def load_traced():
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class CheckingTracer:
    """Records what ``install`` would wrap without replacing anything."""

    def __init__(self):
        self.names = []

    def wrap(self, module, attr, name, counts=None):
        fn = getattr(module, attr, None)
        assert callable(fn), f"{module.__name__}.{attr} is missing or not callable"
        self.names.append(name)


def test_every_wrapped_attribute_exists():
    tracer = CheckingTracer()
    load_traced().install(tracer)
    assert "decompose.union_as_intersection" in tracer.names
    assert "sweep.win_table" in tracer.names


def test_traced_run_sees_the_rewrite_and_the_win_tables(tmp_path):
    table = tmp_path / "toy16.csv"
    table.write_text(TOY16, encoding="utf-8")
    spans_path = tmp_path / "spans.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [
            sys.executable,
            str(TRACED),
            str(spans_path),
            "--",
            "analyze",
            "--json",
            "--data",
            str(table),
            "--threads",
            "1",
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["bound"] == 13
    spans = json.loads(spans_path.read_text(encoding="utf-8"))["spans"]
    names = [span[0] for span in spans]
    assert names.count("decompose.union_as_intersection") == 1
    assert "sweep.win_table" in names
    # The frontier thinning and the gap survey's fold run through the helpers.
    for layer in ("sweep.maximal", "sweep.players_in_all", "sweep.min_member_weight"):
        assert layer in names
