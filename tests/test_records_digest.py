"""The law suite's records on 281 contexts against tests/records_digest.json,
which tests/freeze_records_digest.py writes: a change that should keep every
record must leave each context's digest, or its error, as frozen."""

import json

from freeze_records_digest import DIGEST_FILE, record_digests


def test_records_match_the_frozen_digest():
    with open(DIGEST_FILE) as fh:
        want = json.load(fh)
    got = record_digests()
    assert len(got) == 281
    changed = sorted(label for label in want.keys() | got.keys()
                     if got.get(label) != want.get(label))
    assert not changed
