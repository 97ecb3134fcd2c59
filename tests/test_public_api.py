"""The package's public surface."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import votedim
from cli_runner import invoke


def test_every_exported_name_resolves():
    missing = [name for name in votedim.__all__ if not hasattr(votedim, name)]
    assert missing == []
    assert len(set(votedim.__all__)) == len(votedim.__all__)


def test_numpy_is_the_only_dependency():
    # Read as text: ``tomllib`` is not in Python 3.10, which requires-python allows.
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    block = re.search(r"^dependencies = \[(.*?)\]", pyproject, re.M | re.S).group(1)
    assert re.findall(r'"([^"]*)"', block) == ["numpy>=2.0"]


def test_readme_library_example_runs(capsys):
    # The first python block of README.md is the documented library use.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out == "24\n24 core-boost\n"


def test_exported_names_load_numpy_only_when_the_rewrite_is_used():
    # The union rewrite walks the players; only the veto refinement, which
    # tables its expressions, loads the sweep engine and numpy.
    code = """
import sys
import votedim
assert "numpy" not in sys.modules
try:
    votedim.no_such_name
except AttributeError:
    pass
else:
    raise SystemExit("no AttributeError")
assert votedim.GapSummary is votedim.decompose.GapSummary
rule = votedim.build_eu_rule(votedim.builtin_table("2014"))
assert len(votedim.analyze_rule(rule).games) == 24
assert "numpy" not in sys.modules
game = votedim.unit_game(2, 3)
assert votedim.refine_by_vetoes(game, game).games == (game,)
assert "numpy" in sys.modules
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_modules_import_no_dataclasses_fractions_or_eager_json():
    # Every command pays for what its modules import: records are slots
    # classes, the Lisbon fractions are integer pairs, and ``json`` loads
    # inside the one function that writes a JSON report.
    found = set()
    for path in sorted(Path(votedim.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        in_function = {
            id(node)
            for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(fn)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                found.add((path.name, module.split(".")[0], id(node) in in_function))
    assert {f for f in found if f[1] in ("dataclasses", "fractions")} == set()
    assert {f for f in found if f[1] == "json"} == {("cli.py", "json", True)}


# Functions in ``src/votedim`` that no command and no exported name reaches,
# each with the reason it stays.  Anything else unreached is dead code.
UNREACHED = {
    # ``perfbench/traced.py`` wraps or reads these eight, and
    # ``tests/test_traced.py`` asserts that they exist (ROADMAP item 9).
    "sweep.win_table": "wrapped by perfbench/traced.py",
    "sweep.evaluate_many": "wrapped by perfbench/traced.py",
    "sweep.up_closure": "wrapped by perfbench/traced.py",
    "sweep.table_members": "wrapped by perfbench/traced.py",
    "sweep.players_in_all": "wrapped by perfbench/traced.py; used by tests/table_rewrite.py",
    "sweep.min_member_weight": "wrapped by perfbench/traced.py; used by tests/table_rewrite.py",
    "sweep.Table.bit_count": "read by perfbench/traced.py on _maximal_bits' result",
    "decompose.Decomposition.common_core_players": "read by perfbench/traced.py",
    "sweep.weights_of": "called only by evaluate_many and min_member_weight",
    "games.GameExpr.fold": "abstract: WeightedGame and Node override it",
    "games.Record._fields": "called only by Record.__eq__ and __hash__, which no command uses",
}


def _defined_functions() -> dict:
    """Every non-dunder ``def`` in the package: (file, first line) -> qualified name.

    The first line is the first decorator's, as in ``co_firstlineno``.
    """
    found = {}

    def visit(node, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = prefix
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{prefix}{child.name}."
            if isinstance(child, ast.FunctionDef):
                if not re.fullmatch(r"__\w+__", child.name):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[(str(path), first)] = f"{path.stem}.{prefix}{child.name}"
            visit(child, path, inner)

    for path in sorted(Path(votedim.__file__).resolve().parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, "")
    return found


def test_src_holds_only_reached_code():
    # Every command on the bundled data, and the one exported name that no
    # command calls, under a profiler that records each Python call.  The
    # refinement's target is an AND over an OR, so its re-check takes both joins.
    certs = Path(votedim.__file__).resolve().parent / "certs"
    commands = {
        ("analyze", "--json", "--data", "builtin:2018", "--exclude", "United Kingdom",
         "--threads", "1"): 0,
        ("analyze", "--data", "builtin:2014"): 0,
        ("analyze", "--swap-roles", "--data", "builtin:2014"): 3,
        ("verify", "--data", "builtin:2014"): 0,
        ("lower-bound", "verify", "--data", "builtin:2014",
         "--coalitions", str(certs / "eu2014_7.txt")): 0,
        ("lower-bound", "search", "--data", "builtin:2014", "--budget", "32", "--seed", "1"): 0,
    }
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    exit_codes = {}
    sys.setprofile(profile)
    try:
        for args in commands:
            exit_codes[args] = invoke(args).exit_code
        g, h = votedim.WeightedGame((1, 1, 0), 2), votedim.WeightedGame((0, 1, 1), 2)
        target = votedim.all_of(votedim.unit_game(2, 3), votedim.any_of(g, h))
        votedim.refine_by_vetoes(target, votedim.unit_game(2, 3))
    finally:
        sys.setprofile(None)
    assert exit_codes == commands
    reached = {(str(Path(c.co_filename).resolve()), c.co_firstlineno) for c in codes}
    defined = _defined_functions()
    assert {name for key, name in defined.items() if key not in reached} == set(UNREACHED)
