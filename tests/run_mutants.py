"""Run the mutants listed in ``mutants.json`` against the test suite, each
in a temporary copy of the checkout.

A mutant replaces one string of one source file, where it must occur
exactly once, to weaken one verdict condition.  The suite kills the mutant
when it fails on the copy.  The file is not a test module, so pytest does
not collect it; ``test_mutants.py`` only checks that every target string
still occurs once in ``src/`` and that the test each entry names as
``killed_by`` still exists.  Run it from anywhere:

    python tests/run_mutants.py                  # every mutant, whole suite
    python tests/run_mutants.py NAME [NAME ...]  # the named mutants

It prints one line per mutant (killed, SURVIVED, or the suite's exit code
when the run broke) and exits 1 when any mutant survived.  Standard library
only; each copy leaves nothing behind.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = Path(__file__).with_name("mutants.json")
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", "results")


def load() -> list[dict]:
    return json.loads(MUTANTS.read_text())


def mutate(root: Path, mutant: dict) -> None:
    """Apply one mutant to the checkout at ``root``."""
    path = root / mutant["file"]
    text = path.read_text()
    if text.count(mutant["target"]) != 1:
        raise SystemExit(f"{mutant['name']}: target does not occur exactly once in {mutant['file']}")
    path.write_text(text.replace(mutant["target"], mutant["replacement"]))


def run(mutant: dict) -> int:
    """The suite's exit code on a copy of the checkout with the mutant applied."""
    with tempfile.TemporaryDirectory(prefix="corrint-mutant-") as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=SKIP)
        mutate(copy, mutant)
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        proc = subprocess.run([sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-x", "-q"],
                              cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        return proc.returncode


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    args = parser.parse_args(argv)
    mutants = load()
    unknown = set(args.names) - {m["name"] for m in mutants}
    if unknown:
        parser.error(f"unknown mutants: {', '.join(sorted(unknown))}")
    survived = False
    for mutant in mutants:
        if args.names and mutant["name"] not in args.names:
            continue
        code = run(mutant)
        outcome = {0: "SURVIVED", 1: "killed"}.get(code, f"broken run (pytest exit {code})")
        survived |= code == 0
        print(f"{mutant['name']}: {outcome}", flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
