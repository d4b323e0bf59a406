import lempertpoles


def test_every_exported_name_resolves():
    # a name left in __all__ after its definition is deleted would break
    # `from lempertpoles import *`
    missing = [name for name in lempertpoles.__all__ if not hasattr(lempertpoles, name)]
    assert missing == []
