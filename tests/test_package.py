import cycpsi


def test_every_exported_name_resolves():
    assert [name for name in cycpsi.__all__ if not hasattr(cycpsi, name)] == []
    assert len(set(cycpsi.__all__)) == len(cycpsi.__all__)


def test_star_import():
    namespace = {}
    exec("from cycpsi import *", namespace)
    assert set(cycpsi.__all__) <= set(namespace)
