"""The package's public surface."""

import votedim


def test_every_exported_name_resolves():
    missing = [name for name in votedim.__all__ if not hasattr(votedim, name)]
    assert missing == []
    assert len(set(votedim.__all__)) == len(votedim.__all__)
