import lvseg


def test_every_exported_name_resolves():
    missing = [name for name in lvseg.__all__ if not hasattr(lvseg, name)]
    assert missing == []
    assert len(set(lvseg.__all__)) == len(lvseg.__all__)
