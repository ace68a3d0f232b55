"""The package's own imports keep its layers apart: the loader knows neither the
mechanism nor the reports, the reports know neither the loader nor the command
line, and only the command line renders a report, through the report builders
alone."""

import ast
from pathlib import Path

import groupbuy

PACKAGE = Path(groupbuy.__file__).parent


def internal_imports(path: Path) -> set:
    """The names of the groupbuy modules that the source file at ``path`` imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names if a.name.startswith("groupbuy."))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] != "groupbuy":
                continue
            inner = module if node.level else module.partition(".")[2]
            if inner:  # from .x import y, from groupbuy.x import y
                found.add(inner.split(".")[0])
            else:  # from . import x, from groupbuy import x
                found.update(a.name for a in node.names)
    return found


IMPORTS = {path.stem: internal_imports(path) for path in sorted(PACKAGE.glob("*.py"))}


def test_scenario_imports_neither_mechanism_nor_report():
    assert "auction" in IMPORTS["scenario"]  # the walk sees relative imports
    assert not IMPORTS["scenario"] & {"mechanism", "report"}


def test_report_imports_neither_cli_nor_scenario():
    assert not IMPORTS["report"] & {"cli", "scenario"}


def test_only_cli_imports_report():
    assert [name for name, imports in IMPORTS.items() if "report" in imports] == ["cli"]


def names_imported_from(path: Path, module: str) -> set:
    """The names that the source file at ``path`` imports from the groupbuy module
    ``module``, with the module's own name if it imports the whole module."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(module for a in node.names if a.name == f"groupbuy.{module}")
        elif isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if source in (module, f"groupbuy.{module}"):
                found.update(a.name for a in node.names)
            elif source in ("", "groupbuy"):
                found.update(a.name for a in node.names if a.name == module)
    return found


def test_cli_imports_only_the_report_builders():
    # every line cli prints comes from a builder; no number, subset or class helper
    names = names_imported_from(PACKAGE / "cli.py", "report")
    assert names and not names & {"fmt", "braces", "vec", "class_label", "report"}
    assert all(name.endswith(("_report", "_note")) for name in names), names


def test_imported_names_are_seen_in_each_import_form(tmp_path):
    source = tmp_path / "example.py"
    source.write_text(
        "from .report import fmt, run_report\nfrom groupbuy.report import braces\n"
        "from .schedule import vec\n"
    )
    assert names_imported_from(source, "report") == {"fmt", "run_report", "braces"}
    source.write_text("import groupbuy.report\n")
    assert names_imported_from(source, "report") == {"report"}
    source.write_text("from . import report, cli\n")
    assert names_imported_from(source, "report") == {"report"}


def test_absolute_and_relative_imports_are_both_seen(tmp_path):
    source = tmp_path / "example.py"
    source.write_text(
        "import json\nimport groupbuy.schedule\nfrom groupbuy.report import fmt\n"
        "from . import cli\nfrom .numeric import EXACT\nfrom groupbuy import mechanism\n"
    )
    assert internal_imports(source) == {"schedule", "report", "cli", "numeric", "mechanism"}
