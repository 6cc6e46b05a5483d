"""Guards on the public surface of the package."""

import inspect

import mayext


def test_no_private_parameters_in_public_signatures():
    # test hooks belong in the tests (monkeypatching), not in the API;
    # exception classes are skipped, they take only a message
    checked, offenders = 0, []
    for name in mayext.__all__:
        obj = getattr(mayext, name)
        if not callable(obj) or (isinstance(obj, type) and issubclass(obj, Exception)):
            continue
        params = inspect.signature(obj).parameters
        offenders += [f"{name}({param})" for param in params if param.startswith("_")]
        checked += 1
    assert checked > 0
    assert offenders == []
