"""Topology-aware network fabrics: explicit link/switch graphs.

The flat :class:`~repro.hardware.nic.Fabric` models a rail as a
full-bisection switch — every frame crosses one `wire_latency` and
never contends with traffic between *other* node pairs.  This module
adds structured fabrics: a :class:`NetGraph` of vertices (node routers
and switches) joined by directed :class:`Link`\\ s, each with its own
serialization bandwidth and hop latency, and a :class:`RoutedFabric`
that walks every frame hop-by-hop through the graph.

The charge model is **store-and-forward**: on every traversed link a
frame waits for the link to drain (`queued`), occupies it for
``size / link.bandwidth`` seconds (`dur`), then propagates for
``link.latency``.  Concurrent frames from *any* source contend on
shared links, so congestion — and everything downstream of it
(collective-algorithm crossovers moving with topology, adaptive
multirail splits) — emerges from the structure instead of being
sampled.  See ``docs/TOPOLOGY.md``.

Topologies
----------
``ring``      n node routers in a cycle, shortest-direction routing
``mesh2d``    rows x cols grid, dimension-ordered (X then Y) routing
``torus2d``   mesh2d with wraparound, shortest direction per dimension
``fattree``   k-ary fat-tree (k/2 edge + k/2 agg per pod, (k/2)^2
              cores, k^3/4 hosts), deterministic up/down routing

All routing is deterministic: the same (src, dst) always yields the
same link sequence, so simulations stay replayable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.hardware.nic import Fabric, Frame
from repro.hardware.params import NICParams
from repro.simulator import Simulator

__all__ = ["TopologySpec", "parse_topology", "Link", "NetGraph",
           "RoutedFabric", "BackgroundTraffic", "ring", "mesh2d", "torus2d",
           "fattree"]

#: EWMA weight of the newest per-frame queueing sample (see
#: :meth:`RoutedFabric.observed_source_delay`)
_OBS_ALPHA = 0.5


# ---------------------------------------------------------------------------
# topology description (pure data, JSON-clean)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TopologySpec:
    """Pure-data description of one rail's network structure.

    ``link_bandwidth``/``hop_latency`` default to the rail NIC's
    serialization bandwidth and half its wire latency, so a topology
    can be attached to any rail preset without re-tuning.
    """

    kind: str                                 # ring|mesh2d|torus2d|fattree
    dims: Tuple[int, ...] = ()                # (n,) | (rows, cols) | (k,)
    link_bandwidth: Optional[float] = None    # B/s; None = rail bandwidth
    hop_latency: Optional[float] = None       # s; None = wire_latency / 2

    def __post_init__(self) -> None:
        if self.kind not in ("ring", "mesh2d", "torus2d", "fattree"):
            raise ValueError(f"unknown topology kind {self.kind!r}")
        want = {"ring": 1, "mesh2d": 2, "torus2d": 2, "fattree": 1}[self.kind]
        if len(self.dims) != want or any(d < 2 for d in self.dims):
            raise ValueError(
                f"{self.kind} needs {want} dimension(s) >= 2, got {self.dims}")
        if self.kind == "fattree" and self.dims[0] % 2:
            raise ValueError("fat-tree arity k must be even")

    @property
    def capacity(self) -> int:
        """How many compute nodes the topology can attach."""
        if self.kind == "fattree":
            k = self.dims[0]
            return k * k * k // 4
        n = 1
        for d in self.dims:
            n *= d
        return n

    @property
    def name(self) -> str:
        if self.kind == "fattree":
            return f"fattree:{self.dims[0]}"
        if self.kind == "ring":
            return f"ring:{self.dims[0]}"
        return f"{self.kind}:{self.dims[0]}x{self.dims[1]}"

    def to_dict(self) -> Dict[str, Any]:
        """JSON-clean form (campaign points, cache keys)."""
        out: Dict[str, Any] = {"kind": self.kind, "dims": list(self.dims)}
        if self.link_bandwidth is not None:
            out["link_bandwidth"] = self.link_bandwidth
        if self.hop_latency is not None:
            out["hop_latency"] = self.hop_latency
        return out

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "TopologySpec":
        return TopologySpec(
            kind=data["kind"], dims=tuple(data["dims"]),
            link_bandwidth=data.get("link_bandwidth"),
            hop_latency=data.get("hop_latency"))


def parse_topology(text: str) -> Optional[TopologySpec]:
    """Parse a CLI topology spec: ``flat``, ``ring:8``, ``torus2d:4x4``,
    ``mesh2d:2x4``, ``fattree:4``.  ``flat`` returns None (no graph)."""
    text = text.strip().lower()
    if text in ("flat", "none", ""):
        return None
    kind, sep, dims_text = text.partition(":")
    if not sep:
        raise ValueError(f"bad topology {text!r}; expected KIND:DIMS "
                         "(e.g. ring:8, torus2d:4x4, fattree:4) or 'flat'")
    try:
        dims = tuple(int(d) for d in dims_text.split("x"))
    except ValueError:
        raise ValueError(f"bad topology dims {dims_text!r}") from None
    return TopologySpec(kind=kind, dims=dims)


# ---------------------------------------------------------------------------
# graph primitives
# ---------------------------------------------------------------------------

class Link:
    """One directed link: a serializing resource with hop latency."""

    __slots__ = ("name", "src", "dst", "bandwidth", "latency",
                 "busy_until", "frames", "bytes", "busy_time",
                 "queue_delay", "queued_now", "max_queued")

    def __init__(self, src: str, dst: str, bandwidth: float, latency: float):
        self.name = f"{src}>{dst}"
        self.src = src
        self.dst = dst
        self.bandwidth = bandwidth
        self.latency = latency
        self.busy_until = 0.0
        # running stats (read by metrics/CLI reports)
        self.frames = 0
        self.bytes = 0
        self.busy_time = 0.0
        self.queue_delay = 0.0
        self.queued_now = 0
        self.max_queued = 0

    def __repr__(self) -> str:
        return f"Link({self.name})"


class NetGraph:
    """A rail's link/switch graph plus its routing function.

    Vertices are strings: ``n<i>`` for node routers (direct networks:
    ring/mesh/torus), ``h<i>``/``e<i>``/``a<i>``/``c<i>`` for fat-tree
    hosts, edge, aggregation and core switches.  ``route(src, dst)``
    returns the directed links a frame traverses between the attachment
    points of two compute nodes.
    """

    def __init__(self, spec: TopologySpec, params: NICParams):
        self.spec = spec
        bw = spec.link_bandwidth if spec.link_bandwidth is not None \
            else params.bandwidth
        lat = spec.hop_latency if spec.hop_latency is not None \
            else params.wire_latency / 2
        self._bw = bw
        self._lat = lat
        self._links: Dict[Tuple[str, str], Link] = {}
        self.switches: List[str] = []
        build = getattr(self, f"_build_{spec.kind}")
        build()

    # -- construction --------------------------------------------------
    def _add(self, a: str, b: str) -> None:
        """One bidirectional connection = two directed links."""
        for src, dst in ((a, b), (b, a)):
            if (src, dst) not in self._links:
                self._links[(src, dst)] = Link(src, dst, self._bw, self._lat)

    def _link(self, src: str, dst: str) -> Link:
        return self._links[(src, dst)]

    def _build_ring(self) -> None:
        n = self.spec.dims[0]
        for i in range(n):
            self._add(f"n{i}", f"n{(i + 1) % n}")

    def _build_mesh2d(self) -> None:
        rows, cols = self.spec.dims
        for r in range(rows):
            for c in range(cols):
                if c + 1 < cols:
                    self._add(f"n{r * cols + c}", f"n{r * cols + c + 1}")
                if r + 1 < rows:
                    self._add(f"n{r * cols + c}", f"n{(r + 1) * cols + c}")

    def _build_torus2d(self) -> None:
        rows, cols = self.spec.dims
        for r in range(rows):
            for c in range(cols):
                self._add(f"n{r * cols + c}", f"n{r * cols + (c + 1) % cols}")
                self._add(f"n{r * cols + c}", f"n{((r + 1) % rows) * cols + c}")

    def _build_fattree(self) -> None:
        k = self.spec.dims[0]
        half = k // 2
        # hosts: h<i>; per pod p: edge e<p*half+j>, agg a<p*half+j>;
        # cores c<g*half+j> for g in range(half)
        for p in range(k):
            for j in range(half):
                edge = f"e{p * half + j}"
                for h in range(half):
                    self._add(f"h{(p * half + j) * half + h}", edge)
                for g in range(half):
                    self._add(edge, f"a{p * half + g}")
            for j in range(half):
                agg = f"a{p * half + j}"
                for g in range(half):
                    self._add(agg, f"c{j * half + g}")
        self.switches = sorted(
            {v for pair in self._links for v in pair if v[0] != "h"})

    # -- introspection -------------------------------------------------
    @property
    def links(self) -> List[Link]:
        """Every directed link, in deterministic (src, dst) order."""
        return [self._links[key] for key in sorted(self._links)]

    def attachment(self, node_id: int) -> str:
        """The graph vertex a compute node's NIC feeds into."""
        if self.spec.kind == "fattree":
            return f"h{node_id}"
        return f"n{node_id}"

    # -- routing -------------------------------------------------------
    def route(self, src: int, dst: int) -> List[Link]:
        """The directed links from node ``src`` to node ``dst``.

        Deterministic and loop-free; an empty route means the nodes
        share an attachment point (self-send).
        """
        if src == dst:
            return []
        router = getattr(self, f"_route_{self.spec.kind}")
        path = router(src, dst)
        return [self._link(a, b) for a, b in zip(path, path[1:])]

    def _route_ring(self, src: int, dst: int) -> List[str]:
        n = self.spec.dims[0]
        fwd = (dst - src) % n
        step = 1 if fwd <= n - fwd else -1   # tie -> clockwise
        path, cur = [f"n{src}"], src
        while cur != dst:
            cur = (cur + step) % n
            path.append(f"n{cur}")
        return path

    def _route_mesh2d(self, src: int, dst: int) -> List[str]:
        rows, cols = self.spec.dims
        sr, sc = divmod(src, cols)
        dr, dc = divmod(dst, cols)
        path = [f"n{src}"]
        # dimension order: X (column) first, then Y (row)
        r, c = sr, sc
        while c != dc:
            c += 1 if dc > c else -1
            path.append(f"n{r * cols + c}")
        while r != dr:
            r += 1 if dr > r else -1
            path.append(f"n{r * cols + c}")
        return path

    def _route_torus2d(self, src: int, dst: int) -> List[str]:
        rows, cols = self.spec.dims
        sr, sc = divmod(src, cols)
        dr, dc = divmod(dst, cols)
        path = [f"n{src}"]
        r, c = sr, sc
        step_c = self._torus_step(sc, dc, cols)
        while c != dc:
            c = (c + step_c) % cols
            path.append(f"n{r * cols + c}")
        step_r = self._torus_step(sr, dr, rows)
        while r != dr:
            r = (r + step_r) % rows
            path.append(f"n{r * cols + c}")
        return path

    @staticmethod
    def _torus_step(a: int, b: int, dim: int) -> int:
        """Shortest wraparound direction; ties go positive."""
        fwd = (b - a) % dim
        return 1 if fwd <= dim - fwd else -1

    def _route_fattree(self, src: int, dst: int) -> List[str]:
        k = self.spec.dims[0]
        half = k // 2
        s_edge, d_edge = src // half, dst // half
        s_pod, d_pod = src // (half * half), dst // (half * half)
        path = [f"h{src}", f"e{s_edge}"]
        if s_edge != d_edge:
            # up-path picked by the destination id: every (src, dst)
            # pair deterministically shares one agg (and one core)
            agg = dst % half
            path.append(f"a{s_pod * half + agg}")
            if s_pod != d_pod:
                core = agg * half + (dst // half) % half
                path.append(f"c{core}")
                path.append(f"a{d_pod * half + agg}")
            path.append(f"e{d_edge}")
        path.append(f"h{dst}")
        return path

    # -- description ---------------------------------------------------
    def describe(self) -> Dict[str, Any]:
        """Shape summary: counts, diameter, mean route length."""
        cap = self.spec.capacity
        hops = [len(self.route(s, d))
                for s in range(cap) for d in range(cap) if s != d]
        return {
            "name": self.spec.name,
            "nodes": cap,
            "switches": len(self.switches),
            "links": len(self._links),
            "link_bandwidth": self._bw,
            "hop_latency": self._lat,
            "diameter_hops": max(hops) if hops else 0,
            "mean_hops": sum(hops) / len(hops) if hops else 0.0,
        }

    def ascii_art(self) -> str:
        """Terminal sketch of the structure (grids and tree levels)."""
        if self.spec.kind in ("mesh2d", "torus2d"):
            rows, cols = self.spec.dims
            wrap = self.spec.kind == "torus2d"
            lines = []
            for r in range(rows):
                cells = "--".join(f"[{r * cols + c:>3}]" for c in range(cols))
                lines.append(("~" if wrap else " ") + cells
                             + ("~" if wrap else ""))
                if r + 1 < rows:
                    lines.append(("   " + "|     " * cols).rstrip())
            if wrap:
                lines.append("(~ = wraparound links on both dimensions)")
            return "\n".join(lines)
        if self.spec.kind == "ring":
            n = self.spec.dims[0]
            return ("/-" + "--".join(f"[{i}]" for i in range(n)) + "-\\\n"
                    + "\\" + "-" * (5 * n) + "/")
        k = self.spec.dims[0]
        half = k // 2
        return "\n".join([
            f"core : {' '.join(f'c{i}' for i in range(half * half))}",
            f"agg  : {' '.join(f'a{i}' for i in range(k * half))}",
            f"edge : {' '.join(f'e{i}' for i in range(k * half))}",
            f"hosts: h0..h{k * k * k // 4 - 1} ({half} per edge switch)",
        ])


# ---------------------------------------------------------------------------
# routed fabric
# ---------------------------------------------------------------------------

class RoutedFabric(Fabric):
    """A rail whose deliveries walk a :class:`NetGraph` hop by hop.

    The NIC still charges injection (gap + size/bandwidth + DMA) and
    one ``wire_latency`` to reach the rail — identical to the flat
    fabric — then each routed link charges store-and-forward
    serialization plus hop latency, contending with every other frame
    crossing it.  Fault injection, when armed, applies at final
    delivery exactly as on the flat fabric.
    """

    def __init__(self, sim: Simulator, params: NICParams, spec: TopologySpec):
        super().__init__(sim, params)
        self.graph = NetGraph(spec, params)
        self.topology = spec
        # per-source-node EWMA of the queueing delay frames experience
        # across their whole route (feeds adaptive multirail splits)
        self._observed: Dict[int, float] = {}

    # -- congestion feedback -------------------------------------------
    def observed_source_delay(self, node_id: int) -> float:
        """EWMA of recent per-frame link-queueing delay from ``node_id``.

        Zero until a frame from that node completes a route; the flat
        :class:`Fabric` always reports zero, so contention-aware
        strategies degrade gracefully to the static split.
        """
        return self._observed.get(node_id, 0.0)

    def _observe(self, node_id: int, queued: float) -> None:
        old = self._observed.get(node_id, 0.0)
        self._observed[node_id] = (1 - _OBS_ALPHA) * old + _OBS_ALPHA * queued

    # -- delivery ------------------------------------------------------
    def deliver(self, frame: Frame) -> None:
        """Entry point at injection-end + wire_latency: start routing."""
        route = self.graph.route(frame.src, frame.dst)
        self._traverse(frame, route, 0, 0.0, self._complete)

    def _complete(self, frame: Frame, queued_total: float) -> None:
        self._observe(frame.src, queued_total)
        super().deliver(frame)

    def _discard(self, frame: Frame, queued_total: float) -> None:
        """Terminal hop of background traffic: charge links, no delivery."""

    def _traverse(self, frame: Frame, route: List[Link], i: int,
                  queued_total: float,
                  done: Callable[[Frame, float], None]) -> None:
        if i == len(route):
            done(frame, queued_total)
            return
        link = route[i]
        sim = self.sim
        start = max(sim.now, link.busy_until)
        queued = start - sim.now
        ser = frame.size / link.bandwidth
        link.busy_until = start + ser
        link.frames += 1
        link.bytes += frame.size
        link.busy_time += ser
        link.queue_delay += queued
        link.queued_now += 1
        if link.queued_now > link.max_queued:
            link.max_queued = link.queued_now
        if sim.tracing:
            sim.record(
                "link.xmit", rail=self.name, link=link.name, src=frame.src,
                dst=frame.dst, size=frame.size, kind=frame.kind,
                frame=frame.frame_id, dur=ser, queued=queued,
                depth=link.queued_now, hop=i, hops=len(route),
            )
        sim.at(start + ser, self._leave_link, link)
        sim.at(start + ser + link.latency, self._traverse, frame, route,
               i + 1, queued_total + queued, done)

    @staticmethod
    def _leave_link(link: Link) -> None:
        link.queued_now -= 1

    # -- link stats ----------------------------------------------------
    def link_report(self) -> List[Dict[str, Any]]:
        """Per-link stats of every link that carried traffic."""
        out = []
        for link in self.graph.links:
            if link.frames == 0:
                continue
            out.append({
                "link": link.name, "frames": link.frames,
                "bytes": link.bytes, "busy_time": link.busy_time,
                "queue_delay": link.queue_delay,
                "max_queued": link.max_queued,
            })
        return out


class BackgroundTraffic:
    """A deterministic traffic generator riding a :class:`RoutedFabric`.

    Injects ``count`` frames of ``size`` bytes from ``src`` to ``dst``
    every ``period`` seconds, starting at ``start``.  The frames charge
    every link on the route (contending with real traffic) but are
    discarded at the destination attachment point — pure interference,
    used to induce congestion in experiments and tests.
    """

    def __init__(self, fabric: RoutedFabric, src: int, dst: int, size: int,
                 period: float, count: int, start: float = 0.0):
        if not isinstance(fabric, RoutedFabric):
            raise TypeError("background traffic needs a RoutedFabric")
        if count < 1 or size < 1 or period <= 0:
            raise ValueError("count/size must be >= 1 and period > 0")
        self.fabric = fabric
        self.src = src
        self.dst = dst
        self.size = size
        self.period = period
        self.count = count
        self.start = start
        self.injected = 0

    def install(self) -> "BackgroundTraffic":
        sim = self.fabric.sim
        route = self.fabric.graph.route(self.src, self.dst)
        for i in range(self.count):
            frame = Frame(src=self.src, dst=self.dst, size=self.size,
                          kind="bg")
            sim.at(self.start + i * self.period, self._inject, frame, route)
        return self

    def _inject(self, frame: Frame, route: List[Link]) -> None:
        self.injected += 1
        self.fabric._traverse(frame, route, 0, 0.0, self.fabric._discard)


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def ring(n: int, **kw: Any) -> TopologySpec:
    return TopologySpec("ring", (n,), **kw)


def mesh2d(rows: int, cols: int, **kw: Any) -> TopologySpec:
    return TopologySpec("mesh2d", (rows, cols), **kw)


def torus2d(rows: int, cols: int, **kw: Any) -> TopologySpec:
    return TopologySpec("torus2d", (rows, cols), **kw)


def fattree(k: int, **kw: Any) -> TopologySpec:
    return TopologySpec("fattree", (k,), **kw)


#: named presets for the CLI and experiment grids
PRESETS: Dict[str, TopologySpec] = {
    "ring8": ring(8),
    "ring16": ring(16),
    "mesh4x4": mesh2d(4, 4),
    "torus4x4": torus2d(4, 4),
    "torus2x4": torus2d(2, 4),
    "fattree4": fattree(4),
}
