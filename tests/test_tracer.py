"""The names bench/tracer.py wraps: its traced run replaces delcap
functions at the names their callers bound, so renaming one of them, or
changing its leading arguments, must fail here as well as in a traced
benchmark run."""

import importlib.util
from pathlib import Path

import delcap.bounds
import delcap.cli
import delcap.tables

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_traced_commands_record_every_wrapped_layer(capsys, monkeypatch):
    tracer = load_tracer()
    # install rebinds module attributes; monkeypatch puts each back
    for module in (delcap.bounds, delcap.cli, delcap.tables):
        for name, value in list(vars(module).items()):
            if callable(value):
                monkeypatch.setattr(module, name, value)
    recorder = tracer.Recorder()
    tracer.install(recorder)
    for argv in (["table", "--l-max", "5"],
                 ["sweep", "--kind", "c4", "--L", "5"]):
        assert delcap.cli.main(argv) == 0
    capsys.readouterr()
    metrics = tracer.layer_metrics(recorder, wall_s=1.0)
    assert metrics["channel.fixed.calls"] > 0
    assert metrics["channel.binomial.cold_builds"] == 1
    assert metrics["baa.solves"] > 0
