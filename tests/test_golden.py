"""CLI byte identity: every argv of tests/golden/cli.tsv keeps its exit code
and the SHA-256s of its stdout and stderr.

`python tests/golden/regen.py` rewrites the corpus and `--show ARGV` prints
one argv's full output.  A change that moves a line lists it in CHANGES.md.
"""

import pytest

from golden import regen


def test_cli_output_matches_the_golden_corpus(tmp_path):
    header, *recorded = regen.CORPUS.read_text(encoding="utf-8").splitlines()[1:]
    if header != f"# {regen.versions()}":
        pytest.skip(f"the corpus was made with {header[2:]}; this is {regen.versions()}")
    regen.write_inputs(tmp_path)
    with regen.environment():
        made = [regen.line(argv, tmp_path) for argv in regen.argvs()]
    want, got = (dict(line.split("\t", 1) for line in lines) for lines in (recorded, made))
    moved = [f"{argv!r}: {want.get(argv)!r} -> {got.get(argv)!r}"
             for argv in sorted(want.keys() | got.keys()) if want.get(argv) != got.get(argv)]
    assert not moved, "lines moved (python tests/golden/regen.py --show ARGV):\n" + "\n".join(moved)
