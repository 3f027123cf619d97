"""Rewrite tests/golden_corpus.json from the code as it stands.

Each command of _helpers.GOLDEN_COMMANDS runs through cli.main in a
temporary directory that holds _helpers.golden_inputs; the file maps the
command line to its exit code and the SHA-256 of its stdout, its stderr
and its --out file.  Run from the repository root:

    PYTHONPATH=src python tests/golden_regen.py

A change that moves reports on purpose regenerates the file; the entries
that changed are the ones to list with it.
"""
import json
import sys
import tempfile

from _helpers import GOLDEN_CORPUS, golden_records


def main() -> int:
    with tempfile.TemporaryDirectory() as directory:
        records = golden_records(directory)
    old = json.loads(GOLDEN_CORPUS.read_text()) if GOLDEN_CORPUS.exists() else {}
    GOLDEN_CORPUS.write_text(json.dumps(records, indent=1) + "\n")
    for argv in sorted(set(old) | set(records)):
        if old.get(argv) != records.get(argv):
            print(f"changed: {argv}")
    print(f"{len(records)} commands written to {GOLDEN_CORPUS.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
