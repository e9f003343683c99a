import suffixfree


def test_star_import_binds_every_exported_name():
    # A name left in __all__ after its definition is removed breaks
    # "from suffixfree import *" with an AttributeError.
    namespace: dict = {}
    exec("from suffixfree import *", namespace)
    for name in suffixfree.__all__:
        assert namespace[name] is getattr(suffixfree, name)
