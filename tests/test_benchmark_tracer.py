"""The benchmark's span tracer patches ltcl functions by name; renaming one
of them must fail here rather than break a traced benchmark pass."""
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    originals = [owner.__dict__[attr] for owner, attr, _, _ in tracer.PATCHES]
    spans = tracer.Tracer()
    spans.install()
    try:
        patched = [owner.__dict__[attr] for owner, attr, _, _ in tracer.PATCHES]
    finally:
        spans.uninstall()
    assert all(new is not old for new, old in zip(patched, originals))
    assert [owner.__dict__[attr] for owner, attr, _, _ in tracer.PATCHES] == originals
