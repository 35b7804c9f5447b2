"""The mutants of ``tools/mutants.py`` stay live.

A full mutation run takes minutes, so it stays outside the test suite; these
checks take milliseconds.  A rewrite that loses a mutant's snippet, a
replacement that no longer parses where the snippet sits, or a renamed test
that a mutant still targets, fails here first.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load_mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


MUTANTS = _load_mutants()


def test_mutant_names_are_unique():
    names = [name for name, *_ in MUTANTS]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize(
    "name, rel, snippet, replacement, targets", MUTANTS, ids=[name for name, *_ in MUTANTS]
)
def test_each_snippet_occurs_once_and_each_target_exists(name, rel, snippet, replacement, targets):
    found = (ROOT / rel).read_text().count(snippet)
    assert found == 1, f"{name}: snippet occurs {found} times in {rel}"
    assert snippet != replacement
    assert targets
    for target in targets:
        path, _, test = target.partition("::")
        assert (ROOT / path).is_file(), f"{name}: no file {path}"
        if test:
            tree = ast.parse((ROOT / path).read_text())
            defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
            assert test.split("[")[0] in defined, f"{name}: no test {target}"


@pytest.mark.parametrize(
    "name, rel, snippet, replacement", [m[:4] for m in MUTANTS], ids=[name for name, *_ in MUTANTS]
)
def test_each_mutant_still_parses(name, rel, snippet, replacement):
    # a mutant that breaks the syntax stops its tests from running, which
    # the mutation run reports as an error after minutes, not as a kill
    ast.parse((ROOT / rel).read_text().replace(snippet, replacement), filename=rel)
