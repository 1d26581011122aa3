"""Stack/cluster configuration presets."""

import pytest

from repro import config
from repro.runtime import MPIRuntime


def test_all_presets_build():
    specs = [
        config.mpich2_nmad(),
        config.mpich2_nmad(rails=("ib", "mx")),
        config.mpich2_nmad_pioman(),
        config.mpich2_nmad_netmod(),
        config.mvapich2(),
        config.openmpi_ib(),
        config.openmpi_pml_mx(),
        config.openmpi_btl_mx(),
    ]
    names = [s.name for s in specs]
    assert len(set(names)) == len(names)  # distinct display names


def test_nmad_default_strategy_by_rail_count():
    assert config.mpich2_nmad().strategy == "aggreg"
    assert config.mpich2_nmad(rails=("ib", "mx")).strategy == "split_balance"
    assert config.mpich2_nmad(rails=("ib",), strategy="default").strategy == "default"


def test_pioman_flag_reflected_in_name():
    assert "PIOMan" in config.mpich2_nmad_pioman().name
    assert "PIOMan" not in config.mpich2_nmad().name


def test_netmod_mode():
    assert config.mpich2_nmad_netmod().mode == "netmod"
    assert config.mpich2_nmad().mode == "direct"


def test_native_presets_have_costs():
    for spec in (config.mvapich2(), config.openmpi_ib(),
                 config.openmpi_pml_mx(), config.openmpi_btl_mx()):
        assert spec.kind == "native"
        assert spec.native_costs is not None


def test_compute_efficiency_property():
    assert config.mpich2_nmad().compute_efficiency == 1.0
    assert config.mvapich2().compute_efficiency == 1.0
    assert config.openmpi_ib().compute_efficiency == pytest.approx(0.92)


def test_cluster_specs():
    pair = config.xeon_pair()
    assert pair.n_nodes == 2
    assert pair.rail_names() == ("ib", "mx")
    g5k = config.grid5000()
    assert g5k.n_nodes == 10
    assert g5k.rail_names() == ("ib",)
    assert g5k.node.flops_per_core == pytest.approx(1.0e9)


def test_registration_cache_defaults():
    # NewMadeleine registers on the fly (paper 4.1.1); the comparators
    # keep a pin-down registration cache (Liu et al.)
    for spec in (config.mpich2_nmad(), config.mpich2_nmad_pioman()):
        rt = MPIRuntime(2, spec)
        assert [s.core.registrar.cache for s in rt.stacks] == [False, False]
    for spec in (config.mvapich2(), config.openmpi_ib(),
                 config.openmpi_pml_mx(), config.openmpi_btl_mx()):
        rt = MPIRuntime(2, spec, cluster=config.xeon_pair())
        assert [s.registrar.cache for s in rt.stacks] == [True, True]


def test_stack_table_keywords_override_the_preset():
    assert config.stack("mpich2_nmad_multirail").rails == ("ib", "mx")
    assert config.stack("mpich2_nmad_multirail", rails=("mx",)).rails \
        == ("mx",)
    assert config.stack("mpich2_nmad_manual_poll").progress == "manual_poll"
    assert config.stack("mpich2_nmad_pioman").progress == "pioman"


def test_build_stack_resolves_only_table_names():
    from repro.campaign import build_stack, stack_ref

    assert build_stack(stack_ref("mpich2_nmad", rails=["ib", "mx"])) \
        == config.mpich2_nmad(rails=("ib", "mx"))
    # a callable of the config module that is not a stack preset
    with pytest.raises(ValueError, match="unknown stack preset"):
        build_stack(stack_ref("xeon_pair"))


def test_default_cluster_covers_the_stack_rails():
    """A preset on mx runs without an explicit cluster."""
    rt = MPIRuntime(4, config.openmpi_btl_mx())
    assert rt.cluster_spec.rail_names() == ("ib", "mx")
    # an IB stack keeps the one-rail default cluster
    assert MPIRuntime(4, config.mpich2_nmad()).cluster_spec \
        == config.ClusterSpec(n_nodes=4)
