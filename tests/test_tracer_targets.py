"""The benchmark tracer finds its targets by name; a rename in ``src/`` must
fail here, not only in a traced benchmark run."""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import symcover.cli  # noqa: F401  (Tracer.install looks modules up in sys.modules)

sys.path.insert(0, str(Path(__file__).parent.parent / "bench"))

from tracer import TARGETS, Tracer  # noqa: E402


def owner_of(module: str, qualname: str):
    owner = importlib.import_module(f"symcover.{module}")
    *outer, attr = qualname.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def namespaces():
    """Every symcover module namespace and traced class, as plain dicts."""
    owners = [m for key, m in sys.modules.items()
              if key == "symcover" or key.startswith("symcover.")]
    owners += [owner_of(module, qualname)[0] for module, qualname in TARGETS]
    return [(owner, dict(vars(owner))) for owner in owners]


def test_every_target_resolves_in_its_owner():
    for module, qualname in TARGETS:
        owner, attr = owner_of(module, qualname)
        assert attr in owner.__dict__, f"symcover.{module}.{qualname}"


def test_install_then_uninstall_restores_every_target():
    originals = [(owner, attr, owner.__dict__[attr])
                 for owner, attr in (owner_of(m, q) for m, q in TARGETS)]
    before = namespaces()
    limit = sys.getrecursionlimit()
    tracer = Tracer()
    try:
        tracer.install()
        for owner, attr, original in originals:
            assert owner.__dict__[attr] is not original, attr
    finally:
        tracer.uninstall()
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original, attr
    assert namespaces() == before
    assert sys.getrecursionlimit() == limit
