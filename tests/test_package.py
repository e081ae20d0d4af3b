import drloci


def test_every_public_name_resolves():
    # a name removed from a module but left in __all__ breaks `from drloci import *`
    missing = [name for name in drloci.__all__ if not hasattr(drloci, name)]
    assert missing == []
    assert len(set(drloci.__all__)) == len(drloci.__all__)
