"""CLI byte identity: every argv of tests/golden/cli.tsv keeps its exit code
and the SHA-256s of its stdout and stderr.  Library bit identity: every call
of tests/golden/library.tsv keeps its float.hex, hash or refusal.

`python tests/golden/regen.py` rewrites both corpora, `--show ARGV` prints
one argv's full output and `--call EXPR` one call's full result.  A change
that moves a line lists it in CHANGES.md.
"""

import pytest

from golden import regen


def _recorded(corpus):
    header, *lines = corpus.read_text(encoding="utf-8").splitlines()[1:]
    if header != f"# {regen.versions()}":
        pytest.skip(f"{corpus.name} was made with {header[2:]}; this is {regen.versions()}")
    return lines


def _moved(recorded, made):
    want, got = (dict(line.split("\t", 1) for line in lines) for lines in (recorded, made))
    return "\n".join(f"{key!r}: {want.get(key)!r} -> {got.get(key)!r}"
                     for key in sorted(want.keys() | got.keys()) if want.get(key) != got.get(key))


def test_cli_output_matches_the_golden_corpus(tmp_path):
    recorded = _recorded(regen.CORPUS)
    regen.write_inputs(tmp_path)
    with regen.environment():
        made = [regen.line(argv, tmp_path) for argv in regen.argvs()]
    moved = _moved(recorded, made)
    assert not moved, f"lines moved (python tests/golden/regen.py --show ARGV):\n{moved}"


def test_library_results_match_the_golden_corpus():
    recorded = _recorded(regen.LIBRARY)
    moved = _moved(recorded, regen.library_lines())
    assert not moved, f"lines moved (python tests/golden/regen.py --call EXPR):\n{moved}"
