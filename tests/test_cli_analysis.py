"""CLI commands, and the per-rail traffic counters of a traced run."""

import re

import pytest

from repro.cli import _parse_size, main
from repro.observability import attach_metrics
from repro.simulator import Trace


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_parse_size():
    assert _parse_size("4") == 4
    assert _parse_size("64K") == 64 * 1024
    assert _parse_size("2M") == 2 << 20
    assert _parse_size(" 1k ") == 1024


def test_cli_stacks(capsys):
    assert main(["stacks"]) == 0
    out = capsys.readouterr().out
    assert "mpich2_nmad" in out
    assert "MVAPICH2" in out


def test_cli_netpipe(capsys):
    assert main(["netpipe", "--sizes", "4,1K", "--reps", "2"]) == 0
    out = capsys.readouterr().out
    assert "latency_us" in out
    assert "MPICH2:Nem:Nmad" in out


def test_cli_netpipe_intra(capsys):
    assert main(["netpipe", "--sizes", "4", "--reps", "2", "--intra"]) == 0
    assert "intra-node" in capsys.readouterr().out


def test_cli_overlap(capsys):
    assert main(["overlap", "--size", "64K", "--compute", "100",
                 "--reps", "2"]) == 0
    out = capsys.readouterr().out
    assert "sending time" in out


def test_cli_nas(capsys):
    assert main(["nas", "--kernel", "ep", "--cls", "A", "--procs", "4"]) == 0
    out = capsys.readouterr().out
    assert "EP class A" in out
    assert "projected execution time" in out


def test_cli_nas_runs_steady_unless_a_count_is_forced(capsys):
    assert main(["nas", "--kernel", "cg", "--procs", "8"]) == 0
    assert "2/15 iterations simulated (steady, period 1)" in \
        capsys.readouterr().out
    assert main(["nas", "--kernel", "ep", "--procs", "4"]) == 0
    assert "1/1 iterations simulated (capped)" in capsys.readouterr().out
    assert main(["nas", "--kernel", "cg", "--procs", "8",
                 "--sim-iters", "4"]) == 0
    assert "4/15 iterations simulated (fixed count)" in \
        capsys.readouterr().out


def test_cli_nas_square_adjustment(capsys):
    assert main(["nas", "--kernel", "bt", "--cls", "A", "--procs", "8"]) == 0
    assert "9 processes" in capsys.readouterr().out


def test_cli_unknown_stack(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["netpipe", "--stack", "nope"])
    assert exc.value.code == 2
    assert "unknown stack 'nope'" in capsys.readouterr().err


def test_cli_unknown_experiment():
    with pytest.raises(SystemExit, match="unknown experiment"):
        main(["campaign", "fig99"])


#: outside input the argparse types reject, each a one-line usage error
_BAD_INPUT = [
    ["netpipe", "--sizes", "4,64Q"],
    ["trace", "--size=-5"],
    ["netpipe", "--sizes=-5"],
    ["overlap", "--size=-1M"],
    ["netpipe", "--reps", "0"],
    ["overlap", "--reps", "0"],
    ["race", "--reps", "0"],
    ["topo", "sweep", "flat", "--reps", "0"],
    ["nas", "--procs", "0"],
    ["profile", "mpich2_nmad", "collbench", "--np", "0"],
    ["topo", "sweep", "flat", "--nprocs", "0"],
    ["campaign", "--workers", "0"],
    ["nas", "--sim-iters", "0"],
]


@pytest.mark.parametrize("argv", _BAD_INPUT, ids=" ".join)
def test_cli_rejects_bad_input_with_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines()
              if "error:" in line]
    assert len(errors) == 1 and errors[0].startswith(f"repro {argv[0]}: ")


# ---------------------------------------------------------------------------
# static analysis: repro check
# ---------------------------------------------------------------------------

def violation_pkg(tmp_path):
    root = tmp_path / "pkg"
    root.mkdir()
    (root / "__init__.py").write_text("")
    (root / "a.py").write_text(
        "import random\n\n\ndef jitter():\n    return random.random()\n")
    return str(root)


def test_cli_check_sarif_format(capsys):
    assert main(["check", "--format", "sarif"]) == 0
    out = capsys.readouterr().out
    assert '"version": "2.1.0"' in out
    assert "RPC009" in out      # contract catalog listed even when clean


def test_cli_check_json_output_file(tmp_path, capsys):
    out_file = tmp_path / "check.json"
    assert main(["check", "--format", "json",
                 "--output", str(out_file)]) == 0
    assert "written to" in capsys.readouterr().out
    import json
    assert json.loads(out_file.read_text())["tool"] == "repro-check"


def test_cli_check_clean_on_real_package(capsys):
    assert main(["check"]) == 0
    assert "clean" in capsys.readouterr().out


def test_cli_check_list_contracts(capsys):
    assert main(["check", "--list-contracts"]) == 0
    listed = re.findall(r"^\s+(RPC\d{3})\s", capsys.readouterr().out, re.M)
    assert listed == [f"RPC{n:03d}" for n in (1, 2, 3, 5, 6, 7, 8, 9, 10)]


def test_cli_check_flags_fixture_violation(tmp_path, capsys):
    assert main(["check", violation_pkg(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "RPC003" in out and "1 violation(s)" in out


def test_cli_check_baseline_ratchet(tmp_path, capsys):
    root = violation_pkg(tmp_path)
    baseline = str(tmp_path / "baseline.json")
    assert main(["check", root, "--update-baseline", baseline]) == 0
    assert main(["check", root, "--baseline", baseline]) == 0
    assert "1 baselined" in capsys.readouterr().out


def test_cli_check_sarif_artifact(tmp_path, capsys):
    out_file = tmp_path / "check.sarif"
    assert main(["check", violation_pkg(tmp_path), "--format", "sarif",
                 "--output", str(out_file)]) == 1
    import json
    doc = json.loads(out_file.read_text())
    assert doc["runs"][0]["results"][0]["ruleId"] == "RPC003"


# ---------------------------------------------------------------------------
# per-rail traffic
# ---------------------------------------------------------------------------

def traced_run():
    from repro import config
    from repro.runtime import run_mpi

    trace = Trace(categories={"nic.tx"})
    metrics = attach_metrics(trace)

    def program(comm):
        if comm.rank == 0:
            yield from comm.send(1, tag=0, size=1 << 20)
            yield from comm.send(1, tag=1, size=64)
        else:
            yield from comm.recv(src=0, tag=0)
            yield from comm.recv(src=0, tag=1)

    run_mpi(program, 2, config.mpich2_nmad(rails=("ib", "mx")),
            cluster=config.xeon_pair(), trace=trace)
    return trace, metrics


def test_trace_metrics_count_every_frame_per_rail():
    trace, metrics = traced_run()
    registry = metrics.registry
    rails = registry.labels_of("nic.tx_frames")
    frames = {rail: registry.counter("nic.tx_frames", rail).value
              for rail in rails}
    sent = {rail: registry.counter("nic.tx_bytes", rail).value
            for rail in rails}
    records = trace.filter("nic.tx")
    assert sum(frames.values()) == len(records)
    assert sum(sent.values()) == sum(r.data["size"] for r in records)
    assert sum(sent.values()) > 1 << 20
    assert frames["ib"] >= 3  # rts + cts + data + eager
    assert sent == metrics.bytes_per_rail()
