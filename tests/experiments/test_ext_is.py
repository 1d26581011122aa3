"""The IS datatype extension experiment."""

from repro.campaign import execute_point
from repro.cli import main
from repro.experiments import ext_is_datatypes
from repro.workloads.nas import KERNELS
from tests.experiments.campaign_data import module_data


def test_ext_is_runs_and_shows_datatype_cost():
    data = module_data("ext_is_datatypes")
    strided = data["tables"]["strided (datatypes)"]
    contig = data["tables"]["contiguous"]
    for s, c in zip(strided, contig):
        assert s > c                     # pack/unpack costs time
        assert s < c * 1.5               # but is not the dominant term


def test_temporary_kernel_is_cleaned_up():
    [point, *_] = [p for p in ext_is_datatypes.points(fast=True)
                   if p.params["kernel"] == "is-contig"]
    execute_point(point.config())
    assert "is-contig" not in KERNELS


def test_main_prints(capsys):
    assert main(["campaign", "ext_is_datatypes", "--fast", "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "NAS IS" in out
    assert "pack/unpack" in out
