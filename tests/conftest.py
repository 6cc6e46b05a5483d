"""Shared fixtures."""

import contextlib

import pytest

from mayext import may_core


@pytest.fixture()
def reversed_generators(monkeypatch):
    """Context manager under which basis enumeration walks the generators
    in reverse canonical order.

    It yields the list of t_max values the reversed generator list was
    built for, so a caller can check that the permutation was really used.
    """
    original = may_core.generators_bounded

    @contextlib.contextmanager
    def reversed_order():
        calls = []

        def reversed_bounded(ctx, t_max):
            calls.append(t_max)
            return original(ctx, t_max)[::-1]

        with monkeypatch.context() as patch:
            patch.setattr(may_core, "generators_bounded", reversed_bounded)
            yield calls

    return reversed_order
