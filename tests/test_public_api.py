"""The package's public surface: every exported name resolves, once."""
import sinemodel


def test_all_names_are_attributes_and_unique():
    missing = [name for name in sinemodel.__all__ if not hasattr(sinemodel, name)]
    assert missing == []
    assert len(set(sinemodel.__all__)) == len(sinemodel.__all__)
