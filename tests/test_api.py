"""The public API: every exported name exists, so a deleted class cannot
leave a stale export behind."""

import mahlercf


def test_every_exported_name_resolves():
    missing = [name for name in mahlercf.__all__ if not hasattr(mahlercf, name)]
    assert missing == []
    assert len(set(mahlercf.__all__)) == len(mahlercf.__all__)


def test_star_import_succeeds():
    namespace = {}
    exec("from mahlercf import *", namespace)
    assert set(mahlercf.__all__) <= set(namespace)
