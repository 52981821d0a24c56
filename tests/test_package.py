import avfield


def test_public_names_resolve():
    assert len(set(avfield.__all__)) == len(avfield.__all__)
    for name in avfield.__all__:
        assert hasattr(avfield, name), name
    namespace = {}
    exec("from avfield import *", namespace)  # raises on a stale export
    assert set(avfield.__all__) <= set(namespace)
