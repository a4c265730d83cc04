"""The mutant list stays in step with the source.

``mutants.json`` lists string replacements that each weaken one verdict
condition; ``run_mutants.py`` runs the suite against each on demand.  Here
every target must still occur exactly once in ``src/``, in the file its
entry names, so that an edit of the source cannot leave a mutant that no
longer applies; and the test an entry names as ``killed_by`` must still be
defined, so that a renamed test cannot leave a stale name behind.
"""
import ast
import json

from _perfbench import ROOT

MUTANTS = json.loads((ROOT / "tests" / "mutants.json").read_text())


def test_mutant_names_are_distinct():
    names = [m["name"] for m in MUTANTS]
    assert len(set(names)) == len(names)


def test_every_mutant_target_occurs_once_in_src():
    sources = [p.read_text() for p in sorted((ROOT / "src").rglob("*.py"))]
    for mutant in MUTANTS:
        assert mutant["replacement"] != mutant["target"], mutant["name"]
        assert sum(text.count(mutant["target"]) for text in sources) == 1, mutant["name"]
        assert (ROOT / mutant["file"]).read_text().count(mutant["target"]) == 1, mutant["name"]


def test_every_killing_test_is_defined():
    for mutant in MUTANTS:
        path, _, name = mutant["killed_by"].partition("::")
        tree = ast.parse((ROOT / path).read_text())
        tests = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        assert name in tests, mutant["name"]
