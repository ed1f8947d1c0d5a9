"""The law suite's records against the digests that
tests/freeze_records_digest.py writes: tests/records_digest.json for 281
contexts and, as the slow tier, tests/envelope_digest.json for the four
envelope instances. A change that should keep every record must leave each
context's digest, or its error, as frozen."""

import json

import pytest

from freeze_records_digest import (DIGEST_FILE, ENVELOPE_FILE, envelope_digests,
                                   record_digests)


def changed_labels(path, got):
    with open(path) as fh:
        want = json.load(fh)
    return sorted(label for label in want.keys() | got.keys()
                  if got.get(label) != want.get(label))


def test_records_match_the_frozen_digest():
    got = record_digests()
    assert len(got) == 281
    assert not changed_labels(DIGEST_FILE, got)


@pytest.mark.slow
def test_envelope_records_match_the_frozen_digest():
    got = envelope_digests()
    assert len(got) == 4
    assert not changed_labels(ENVELOPE_FILE, got)
