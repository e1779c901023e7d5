"""The benchmark's tracer rebinds names of the package by attribute."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_hooked_name_is_defined_on_its_owner(monkeypatch):
    # Tracer.installed() reads owner.__dict__[attr]; a refactor that drops
    # or moves a hooked name would make every traced benchmark run fail
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    missing = [(name, getattr(owner, "__name__", owner), attr)
               for name, owner, attr, _ in tracing.hook_table()
               if attr not in owner.__dict__]
    assert not missing
