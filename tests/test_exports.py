"""The package's public surface."""

import pelltuples


def test_all_names_resolve_once():
    # a deletion must take its export with it
    names = pelltuples.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(pelltuples, name), name
