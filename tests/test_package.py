import depnet


def test_public_names_unique_and_importable():
    """A name half removed from the package (dropped from its module but
    still exported, or exported twice) fails here."""
    assert len(depnet.__all__) == len(set(depnet.__all__))
    namespace: dict = {}
    exec("from depnet import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(depnet.__all__)
