"""Replay of the recorded output digests: every run stays byte-identical."""

import json

from output_digests import DATA, digests, matrix

RECORDED = json.loads(DATA.read_text())


def test_the_record_covers_the_matrix():
    assert [argv for argv, _ in RECORDED] == matrix()


def test_every_recorded_run_is_byte_identical():
    argvs = [argv for argv, _ in RECORDED]
    changed = [" ".join(argv) for (argv, want), got in zip(RECORDED, digests(argvs)) if got != want]
    assert not changed, f"{len(changed)} of {len(argvs)} runs changed their output: {changed}"
