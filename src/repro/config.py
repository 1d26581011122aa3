"""Stack and cluster configuration: the knobs of every experiment.

A :class:`StackSpec` describes one MPI implementation under test; a
:class:`ClusterSpec` describes the machines.  :data:`STACKS` is the one
table of stack presets: ``repro stacks`` lists it, every ``--stack``
flag and every campaign ``stack_ref`` resolves through it.

===========================  ================================================
preset                       configuration
===========================  ================================================
``mpich2_nmad``              MPICH2:Nem:Nmad (CH3-direct over NewMadeleine)
``mpich2_nmad_pioman``       MPICH2:Nem:Nmad:PIOMan
``mpich2_nmad_netmod``       plain network-module path (ablation, Fig. 2)
``mpich2_nmad_multirail``    CH3-direct over IB + MX (Fig. 5)
``mpich2_nmad_manual_poll``  PIOMan stack, ``manual_poll`` progress engine
``mpich2_nmad_dedicated``    PIOMan stack, ``dedicated_thread`` engine
``mpich2_nmad_regcache``     CH3-direct with an 8 MiB IB registration cache
``mvapich2``                 MVAPICH2 1.0.3
``openmpi_ib``               Open MPI 1.2.7 (openib)
``openmpi_pml_mx``           Open MPI PML/CM over MX
``openmpi_btl_mx``           Open MPI BTL over MX
===========================  ================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Dict, Optional, Tuple

from repro.comparators import presets as comparator_presets
from repro.comparators.native import NativeCosts
from repro.hardware import presets as hw
from repro.hardware.netgraph import TopologySpec
from repro.hardware.params import NICParams, NodeParams
from repro.mpich2.ch3 import CH3Costs
from repro.mpich2.nemesis.shm import ShmCosts
from repro.nmad.core import NmadCosts
from repro.pioman import PIOManParams


#: the NIC model of each rail name on the point-to-point testbed
RAIL_NICS: Dict[str, NICParams] = {"ib": hw.IB_CONNECTX, "mx": hw.MX_MYRI10G}


@dataclass(frozen=True)
class ClusterSpec:
    """Machines: node count/shape and the rails connecting them."""

    n_nodes: int
    node: NodeParams = hw.XEON_NODE
    rails: Tuple[NICParams, ...] = (hw.IB_CONNECTX,)
    #: when set, the named rails (all by default) become
    #: :class:`~repro.hardware.netgraph.RoutedFabric`\ s over this
    #: link/switch graph instead of flat full-bisection switches
    topology: Optional[TopologySpec] = None
    topo_rails: Tuple[str, ...] = ()

    def rail_names(self) -> Tuple[str, ...]:
        return tuple(r.name for r in self.rails)

    def covering(self, stack: "StackSpec") -> "ClusterSpec":
        """This cluster plus a Xeon-testbed NIC for each rail ``stack``
        drives that it lacks: a default cluster fits every preset."""
        have = self.rail_names()
        extra = tuple(RAIL_NICS[r] for r in stack.rails if r not in have)
        return replace(self, rails=self.rails + extra) if extra else self


@dataclass(frozen=True)
class StackSpec:
    """One MPI implementation configuration."""

    name: str
    kind: str = "nmad"                       # "nmad" | "native"
    rails: Tuple[str, ...] = ("ib",)         # rails this stack drives
    strategy: str = "aggreg"                 # nmad scheduling strategy
    mode: str = "direct"                     # "direct" | "netmod"
    pioman: bool = False
    #: progress-engine kind (repro.pioman.engines.ENGINE_KINDS) when
    #: ``pioman`` is on
    progress: str = "pioman"
    #: IB pin-down registration cache capacity in bytes (Liu et al.
    #: cs/0310059); 0 keeps today's on-the-fly registration
    ib_reg_cache: int = 0
    nmad_costs: NmadCosts = field(default_factory=NmadCosts)
    ch3_costs: CH3Costs = field(default_factory=CH3Costs)
    shm_costs: ShmCosts = field(default_factory=ShmCosts)
    pioman_params: PIOManParams = field(default_factory=PIOManParams)
    native_costs: Optional[NativeCosts] = None
    driver_window: int = 2

    @property
    def compute_efficiency(self) -> float:
        if self.kind == "native" and self.native_costs is not None:
            return self.native_costs.compute_efficiency
        return 1.0

    def with_(self, **kw) -> "StackSpec":
        """A modified copy (ablation helper)."""
        return replace(self, **kw)


# ---------------------------------------------------------------------------
# paper configurations
# ---------------------------------------------------------------------------

def mpich2_nmad(rails: Tuple[str, ...] = ("ib",), strategy: Optional[str] = None,
                pioman: bool = False, **kw) -> StackSpec:
    """MPICH2 with the CH3-direct NewMadeleine integration."""
    if strategy is None:
        strategy = "split_balance" if len(rails) > 1 else "aggreg"
    suffix = "+".join(rails) + (":PIOMan" if pioman else "")
    return StackSpec(name=f"MPICH2:Nem:Nmad:{suffix}", kind="nmad",
                     rails=rails, strategy=strategy, mode="direct",
                     pioman=pioman, **kw)


def mpich2_nmad_pioman(rails: Tuple[str, ...] = ("ib",), **kw) -> StackSpec:
    return mpich2_nmad(rails=rails, pioman=True, **kw)


def mpich2_nmad_netmod(rails: Tuple[str, ...] = ("ib",), **kw) -> StackSpec:
    """The unmodified network-module path: cell copies + nested handshakes."""
    return StackSpec(name=f"MPICH2:Nem:netmod:{'+'.join(rails)}", kind="nmad",
                     rails=rails, strategy="aggreg", mode="netmod", **kw)


def mvapich2(**kw) -> StackSpec:
    return StackSpec(name="MVAPICH2", kind="native", rails=("ib",),
                     native_costs=comparator_presets.MVAPICH2_IB, **kw)


def openmpi_ib(**kw) -> StackSpec:
    return StackSpec(name="Open MPI", kind="native", rails=("ib",),
                     native_costs=comparator_presets.OPENMPI_IB, **kw)


def openmpi_pml_mx(**kw) -> StackSpec:
    return StackSpec(name="Open MPI:PML:MX", kind="native", rails=("mx",),
                     native_costs=comparator_presets.OPENMPI_PML_MX, **kw)


def openmpi_btl_mx(**kw) -> StackSpec:
    return StackSpec(name="Open MPI:BTL:MX", kind="native", rails=("mx",),
                     native_costs=comparator_presets.OPENMPI_BTL_MX, **kw)


#: the stack presets: name -> factory (keywords override the preset's)
STACKS: Dict[str, Callable[..., StackSpec]] = {
    "mpich2_nmad": mpich2_nmad,
    "mpich2_nmad_pioman": mpich2_nmad_pioman,
    "mpich2_nmad_netmod": mpich2_nmad_netmod,
    "mpich2_nmad_multirail": partial(mpich2_nmad, rails=("ib", "mx")),
    # progress-engine / registration-cache variants (docs/PROGRESS.md)
    "mpich2_nmad_manual_poll": partial(mpich2_nmad_pioman,
                                       progress="manual_poll"),
    "mpich2_nmad_dedicated": partial(mpich2_nmad_pioman,
                                     progress="dedicated_thread"),
    "mpich2_nmad_regcache": partial(mpich2_nmad, ib_reg_cache=8 << 20),
    "mvapich2": mvapich2,
    "openmpi_ib": openmpi_ib,
    "openmpi_pml_mx": openmpi_pml_mx,
    "openmpi_btl_mx": openmpi_btl_mx,
}


def stack(name: str, **kw) -> StackSpec:
    """Build the preset ``name`` of :data:`STACKS`; ``kw`` override it."""
    try:
        factory = STACKS[name]
    except KeyError:
        raise ValueError(f"unknown stack preset {name!r}; "
                         f"available: {', '.join(sorted(STACKS))}") from None
    return factory(**kw)


# ---------------------------------------------------------------------------
# paper testbeds
# ---------------------------------------------------------------------------

def xeon_pair(rails: Tuple[NICParams, ...] = (hw.IB_CONNECTX, hw.MX_MYRI10G)) -> ClusterSpec:
    """The point-to-point testbed: 2 dual-quadcore Xeon boxes."""
    return ClusterSpec(n_nodes=2, node=hw.XEON_NODE, rails=rails)


def grid5000(n_nodes: int = 10) -> ClusterSpec:
    """The NAS testbed: Opteron nodes with one IB 10G NIC each."""
    return ClusterSpec(n_nodes=n_nodes, node=hw.OPTERON_NODE,
                       rails=(hw.IB_10G_SDR,))
