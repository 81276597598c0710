"""README's library quick start runs as printed, its API list is sgmix.__all__,
and its config paragraph names every field ExperimentConfig settles itself."""
import ast
import contextlib
import dataclasses
import io
import re
from pathlib import Path

import sgmix

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def section(heading: str) -> str:
    return README.split(heading + "\n", 1)[1].split("\n#", 1)[0]


def test_readme_quick_start_runs_and_prints_what_it_shows():
    code, shown = re.search(r"```python\n(.*?)```\n\nIt prints\n\n```\n(.*?)```",
                            section("## Quick start (library)"), re.DOTALL).groups()
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(code, "README.md", "exec"), {})
    assert printed.getvalue() == shown


def test_readme_api_list_matches_exports():
    documented = []
    for names in re.findall(r"^\| `\w+` \| (.*) \|$", section("### Library API"), re.MULTILINE):
        documented += re.findall(r"`(\w+)`", names)
    assert len(documented) == 31
    assert sorted(sgmix.__all__) == sorted(documented)
    for name in documented:
        assert getattr(sgmix, name) is not None
    for demo in sorted((ROOT / "demos").glob("*.py")):
        for node in ast.walk(ast.parse(demo.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "sgmix":
                imported = {alias.name for alias in node.names}
                assert imported <= set(documented), (demo.name, imported - set(documented))


def test_readme_config_paragraph_names_every_settled_field():
    paragraph = next(p for p in README.split("\n\n") if p.startswith("`ExperimentConfig` keeps"))
    settled = [f.name for f in dataclasses.fields(sgmix.ExperimentConfig) if not f.init]
    assert len(settled) == 3
    for name in settled:
        assert f"`{name}`" in paragraph, name
