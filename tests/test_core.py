from gossim.core import digest_for


def test_digest_is_stable_and_version_specific():
    assert digest_for(7) == digest_for(7)
    assert digest_for(7) != digest_for(8)
    # 128-bit hex digest
    assert len(digest_for(1)) == 32
    int(digest_for(1), 16)
