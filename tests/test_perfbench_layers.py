"""The benchmark's per-layer tracer still finds every name it wraps."""

from pathlib import Path

from redsim import agents, dqn

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_layers_install_and_unpatch(monkeypatch):
    # install() wraps names at each module that looks them up, so a refactor
    # that drops one of those imports breaks the traced benchmark run.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import spans

    greedy = agents.greedy_action
    tracer = spans.Tracer()
    try:
        layers.install(tracer)
        assert agents.greedy_action is not greedy
    finally:
        tracer.unpatch_all()
    assert agents.greedy_action is greedy and dqn.greedy_action is greedy
