"""The CLI's stdout, stderr and exit codes against the committed digests of
``golden_corpus.py``: one test per group, so a failure names its group."""

import json

import pytest

import golden_corpus


@pytest.fixture(scope="module")
def expected():
    return json.loads(golden_corpus.DIGEST_FILE.read_text(encoding="utf-8"))


def test_corpus_groups_are_the_committed_ones(expected):
    assert list(golden_corpus.GROUPS) == list(expected)


@pytest.mark.parametrize("group", list(golden_corpus.GROUPS))
def test_cli_output_matches_its_golden_digest(group, expected):
    assert golden_corpus.digest(group) == expected.get(group)
