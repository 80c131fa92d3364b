import basinflow


def test_public_names_resolve():
    # every exported name is an attribute, and a star import binds them all
    missing = [name for name in basinflow.__all__ if not hasattr(basinflow, name)]
    assert missing == []
    assert len(set(basinflow.__all__)) == len(basinflow.__all__)
    namespace = {}
    exec("from basinflow import *", namespace)
    assert set(basinflow.__all__) <= namespace.keys()
