"""The ``repro trace`` CLI subcommand end-to-end."""

import json

import pytest

from repro.cli import main
from repro.observability import LAYERS


def test_cli_trace_netpipe(tmp_path, capsys):
    out = tmp_path / "trace.json"
    assert main(["trace", "--stack", "mpich2_nmad_pioman",
                 "--workload", "netpipe", "--size", "64K",
                 "--reps", "1", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    for layer in LAYERS:
        assert layer in text
    assert "per-layer latency breakdown" in text
    assert "messages traced end-to-end" in text
    assert "polls per received message" in text
    with open(out) as fh:
        doc = json.load(fh)
    layers = {e["args"]["name"] for e in doc["traceEvents"]
              if e["ph"] == "M" and e["name"] == "process_name"}
    assert set(LAYERS) <= layers


def test_cli_trace_overlap(tmp_path, capsys):
    out = tmp_path / "ov.json"
    assert main(["trace", "--workload", "overlap", "--size", "64K",
                 "--reps", "1", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "overlap" in text
    assert json.load(open(out))["traceEvents"]


def test_cli_trace_ring_sink(tmp_path, capsys):
    out = tmp_path / "ring.json"
    assert main(["trace", "--size", "64K", "--reps", "2",
                 "--sink", "ring", "--ring-capacity", "128",
                 "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "ring sink: 128 retained" in text
    assert "evicted" in text
    assert "breakdown is partial" in text
    assert json.load(open(out))["traceEvents"]


def test_cli_trace_jsonl_sink_round_trips(tmp_path, capsys):
    out = tmp_path / "t.json"
    spill = tmp_path / "records.jsonl"
    assert main(["trace", "--size", "64K", "--reps", "1",
                 "--sink", "jsonl", "--jsonl", str(spill),
                 "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "jsonl sink" in text
    # the breakdown came from the reloaded spill file, so it is complete
    assert "messages traced end-to-end" in text
    assert spill.exists()
    with open(spill) as fh:
        rows = [json.loads(line) for line in fh]
    assert rows and all("category" in row for row in rows)
    assert json.load(open(out))["traceEvents"]


def test_cli_trace_sampling(capsys, tmp_path):
    out = tmp_path / "s.json"
    assert main(["trace", "--size", "64K", "--reps", "1",
                 "--sample", "pioman=50", "--out", str(out)]) == 0
    assert "sampled out" in capsys.readouterr().out


def test_cli_profile_pingpong(tmp_path, capsys):
    folded = tmp_path / "p.folded"
    perfetto = tmp_path / "p.json"
    assert main(["profile", "mpich2_nmad", "pingpong", "--size", "64K",
                 "--reps", "2", "--folded", str(folded),
                 "--perfetto", str(perfetto)]) == 0
    text = capsys.readouterr().out
    assert "span profile:" in text
    assert "total simulated busy time" in text
    assert "engine:" in text

    # folded-stack values (ns) sum to the reported busy time (us)
    busy_us = float(next(line for line in text.splitlines()
                         if "total simulated busy time" in line)
                    .split(":")[1].split("us")[0])
    total_ns = 0
    with open(folded) as fh:
        for line in fh:
            stack, value = line.rsplit(" ", 1)
            assert ";" in stack
            total_ns += int(value)
    assert abs(total_ns / 1e3 - busy_us) < 1.0   # within report rounding

    doc = json.load(open(perfetto))
    slices = [e for e in doc["traceEvents"]
              if e["ph"] == "X" and "self_us" in e.get("args", {})]
    assert slices, "expected enriched span slices in the Perfetto export"


def test_cli_profile_collbench_ring(tmp_path, capsys):
    assert main(["profile", "mpich2_nmad", "collbench", "--np", "8",
                 "--coll", "allreduce", "--size", "1K", "--reps", "1",
                 "--sink", "ring", "--ring-capacity", "256",
                 "--folded", str(tmp_path / "c.folded"),
                 "--perfetto", str(tmp_path / "c.json")]) == 0
    text = capsys.readouterr().out
    assert "collbench/allreduce p=8" in text
    assert "ring sink: 256 retained" in text
    assert "coll.allreduce[" in text


def test_cli_profile_rejects_bad_args(tmp_path):
    with pytest.raises(SystemExit):
        main(["profile", "mpich2_nmad", "collbench", "--coll", "nosuch"])
    with pytest.raises(SystemExit):
        main(["profile", "nosuchstack", "pingpong"])


_BAD_SINK_ARGS = {
    "ring_capacity_0": (["--sink", "ring", "--ring-capacity", "0"],
                        "--ring-capacity"),
    "ring_capacity_negative": (["--sink", "ring", "--ring-capacity", "-3"],
                               "--ring-capacity"),
    "stride_0": (["--sample", "nic=0"], "--sample"),
    "entities_not_ints": (["--sample-entities", "x"], "--sample-entities"),
    "entities_empty_item": (["--sample-entities", "0,,1"],
                            "--sample-entities"),
    "jsonl_missing_dir": (["--sink", "jsonl", "--jsonl",
                           "{tmp}/missing/x.jsonl"], "--jsonl"),
}


def _command(command, tmp_path):
    if command == "trace":
        return ["trace", "--reps", "1", "--out", str(tmp_path / "t.json")]
    return ["profile", "mpich2_nmad", "pingpong", "--reps", "1",
            "--folded", str(tmp_path / "p.folded"),
            "--perfetto", str(tmp_path / "p.json")]


@pytest.mark.parametrize("case", sorted(_BAD_SINK_ARGS))
@pytest.mark.parametrize("command", ["trace", "profile"])
def test_cli_bad_sink_arguments_exit_with_one_line(command, case, tmp_path):
    argv, option = _BAD_SINK_ARGS[case]
    argv = [a.format(tmp=tmp_path) for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(_command(command, tmp_path) + argv)
    message = exc.value.code
    assert isinstance(message, str)
    assert option in message and "\n" not in message


@pytest.mark.parametrize("command", ["trace", "profile"])
def test_cli_jsonl_sink_closed_when_the_run_raises(command, tmp_path,
                                                   monkeypatch):
    from repro.runtime import MPIRuntime

    sinks = []

    def failing_run(runtime, program, **kw):
        sinks.append(runtime.sim.trace)
        raise RuntimeError("rank program failed")

    monkeypatch.setattr(MPIRuntime, "run", failing_run)
    with pytest.raises(RuntimeError):
        main(_command(command, tmp_path)
             + ["--sink", "jsonl", "--jsonl", str(tmp_path / "r.jsonl")])
    (sink,) = sinks
    assert sink._fh.closed


def test_cli_perf_renders_campaign_telemetry(tmp_path, capsys):
    rows = [{"points": 276, "cache_hits": 0, "cache_misses": 276,
             "wall_seconds": 61.5, "executed_seconds": 118.25, "workers": 2},
            {"points": 276, "cache_hits": 276, "cache_misses": 0,
             "wall_seconds": 0.75, "executed_seconds": 0.0, "workers": 2}]
    (tmp_path / "telemetry.jsonl").write_text(
        "".join(json.dumps(row) + "\n" for row in rows) + "{torn")
    assert main(["perf", "--cache-dir", str(tmp_path), "--last", "1"]) == 0
    text = capsys.readouterr().out
    assert "campaign telemetry (1 of 2 run(s)" in text
    (last,) = [line.split() for line in text.splitlines()
               if line.lstrip().startswith("2 ")]
    assert last == ["2", "276", "276", "0", "0.75", "0.00", "2"]


def test_cli_perf_rejects_last_below_one(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["perf", "--cache-dir", str(tmp_path), "--last", "0"])
    assert "must be >= 1" in capsys.readouterr().err


def test_cli_perf_no_data_fails(tmp_path, capsys):
    assert main(["perf", "--cache-dir", str(tmp_path / "nocache")]) == 1
    assert "no perf telemetry" in capsys.readouterr().out
