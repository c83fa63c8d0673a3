"""The package's public export list."""
import dhge


def test_every_exported_name_resolves():
    namespace = {}
    exec("from dhge import *", namespace)
    assert [name for name in dhge.__all__ if name not in namespace] == []
    assert len(set(dhge.__all__)) == len(dhge.__all__)
