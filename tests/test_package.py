import spectralca


def test_every_export_imports_once():
    names = spectralca.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(spectralca, name)] == []
