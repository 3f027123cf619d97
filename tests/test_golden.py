"""The checked-in report corpus: every command of _helpers.GOLDEN_COMMANDS
gives the exit code and the stdout, stderr and --out bytes recorded in
tests/golden_corpus.json.  Its reports hold only exact or grid values, so
they are compared by hash on every platform; tests/golden_regen.py
rewrites the file."""
import json

from _helpers import GOLDEN_COMMANDS, GOLDEN_CORPUS, golden_records


def test_reports_match_the_corpus(tmp_path):
    want = json.loads(GOLDEN_CORPUS.read_text())
    assert list(want) == [" ".join(argv) for argv in GOLDEN_COMMANDS]
    got = golden_records(tmp_path)
    moved = [argv for argv in want if got[argv] != want[argv]]
    assert not moved, f"{len(moved)} reports moved: {moved}"


def test_corpus_reaches_every_input_exit_code():
    codes = {record["exit"] for record in json.loads(GOLDEN_CORPUS.read_text()).values()}
    assert codes == {0, 1, 2}
