"""CMOL-style programmable interconnect fabric — Section IV.C(a).

"Programmable logic arrays based on resistive switching junctions were
suggested first in [82] ... A next step was the CMOL FPGA concept [87],
where a sea of elementary CMOS cells is connected to a small crossbar
part-array ... elementary CMOS cells are connected via resistive
switches (1S1R) enabling wired-or functionality.  In general,
reconfigurable on-chip wiring enables new options for memristive chip
design."

:class:`ProgrammableFabric` models that sea of cells: a 2-D grid of
CMOS cell nodes whose neighbouring cells are joined by *candidate*
wire segments, each gated by a memristive switch (programmed ON to
create a route).  The router finds switch-disjoint paths for a list of
nets (greedy shortest-path with congestion-aware retries), and the
configuration cost (switch writes, ON-switch count) comes from the
Table 1 device constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from ..devices.technology import MEMRISTOR_5NM, MemristorTechnology
from ..errors import CrossbarError

# networkx is imported by the methods that use it, so importing the
# package does not pay for it.
if TYPE_CHECKING:
    import networkx as nx

Cell = Tuple[int, int]


@dataclass(frozen=True)
class Net:
    """A point-to-point connection request between two cells."""

    source: Cell
    sink: Cell

    def __post_init__(self) -> None:
        if self.source == self.sink:
            raise CrossbarError(f"net source equals sink: {self.source}")


@dataclass
class Route:
    """A realised net: the cell path and the switches turned on."""

    net: Net
    path: List[Cell]

    @property
    def segments(self) -> int:
        """Wire segments (= memristive switches) used."""
        return len(self.path) - 1


@dataclass
class RoutingResult:
    """Outcome of routing a net list."""

    routes: List[Route] = field(default_factory=list)
    failed: List[Net] = field(default_factory=list)

    @property
    def success_ratio(self) -> float:
        total = len(self.routes) + len(self.failed)
        return len(self.routes) / total if total else 1.0

    @property
    def switches_used(self) -> int:
        return sum(route.segments for route in self.routes)

    def wirelength(self) -> int:
        """Total segments over all successful routes."""
        return self.switches_used


class ProgrammableFabric:
    """rows x cols CMOS cells with memristor-switched nearest-neighbour
    wiring (4-neighbourhood plus optional diagonals).

    Each undirected wire segment carries one memristive switch; routing
    a net programs every switch on its path ON, and a switch can serve
    only one net (no shared wires — the conservative CMOL model).
    """

    def __init__(
        self,
        rows: int,
        cols: int,
        diagonals: bool = False,
        technology: MemristorTechnology = MEMRISTOR_5NM,
    ) -> None:
        if rows < 2 or cols < 2:
            raise CrossbarError(
                f"fabric needs at least 2x2 cells, got {rows}x{cols}"
            )
        import networkx as nx

        self.rows = rows
        self.cols = cols
        self.technology = technology
        self.graph = nx.Graph()
        for r in range(rows):
            for c in range(cols):
                self.graph.add_node((r, c))
        for r in range(rows):
            for c in range(cols):
                if r + 1 < rows:
                    self.graph.add_edge((r, c), (r + 1, c))
                if c + 1 < cols:
                    self.graph.add_edge((r, c), (r, c + 1))
                if diagonals and r + 1 < rows and c + 1 < cols:
                    self.graph.add_edge((r, c), (r + 1, c + 1))
        self._used_edges: set = set()

    # -- geometry ---------------------------------------------------------

    @property
    def switch_count(self) -> int:
        """Total programmable switches in the fabric."""
        return self.graph.number_of_edges()

    def _check_cell(self, cell: Cell) -> None:
        if cell not in self.graph:
            raise CrossbarError(f"cell {cell} outside the fabric")

    @staticmethod
    def _edge_key(a: Cell, b: Cell) -> Tuple[Cell, Cell]:
        return (a, b) if a <= b else (b, a)

    # -- routing -------------------------------------------------------------

    def _free_subgraph(self) -> nx.Graph:
        import networkx as nx

        free = nx.Graph()
        free.add_nodes_from(self.graph.nodes)
        for a, b in self.graph.edges:
            if self._edge_key(a, b) not in self._used_edges:
                free.add_edge(a, b)
        return free

    def route_net(self, net: Net) -> Optional[Route]:
        """Route one net over currently-free switches; None if blocked."""
        self._check_cell(net.source)
        self._check_cell(net.sink)
        import networkx as nx

        free = self._free_subgraph()
        try:
            path = nx.shortest_path(free, net.source, net.sink)
        except nx.NetworkXNoPath:
            return None
        for a, b in zip(path, path[1:]):
            self._used_edges.add(self._edge_key(a, b))
        return Route(net=net, path=list(path))

    def route_all(self, nets: Sequence[Net], order: str = "short-first") -> RoutingResult:
        """Route a net list with switch-disjoint paths.

        *order* controls the greedy sequence: ``'short-first'`` routes
        nets by ascending Manhattan distance (better completion rates),
        ``'given'`` keeps the caller's order.
        """
        if order not in ("short-first", "given"):
            raise CrossbarError(f"unknown order {order!r}")
        ordered = list(nets)
        if order == "short-first":
            ordered.sort(key=lambda n: self.manhattan(n.source, n.sink))
        result = RoutingResult()
        for net in ordered:
            route = self.route_net(net)
            if route is None:
                result.failed.append(net)
            else:
                result.routes.append(route)
        return result

    def reset(self) -> None:
        """Release every programmed switch (erase the configuration)."""
        self._used_edges.clear()

    @staticmethod
    def manhattan(a: Cell, b: Cell) -> int:
        """Manhattan distance between two cells."""
        return abs(a[0] - b[0]) + abs(a[1] - b[1])

    # -- costs -------------------------------------------------------------------

    @property
    def switches_on(self) -> int:
        """Currently programmed (ON) switches."""
        return len(self._used_edges)

    def utilisation(self) -> float:
        """Fraction of the fabric's switches in use."""
        return self.switches_on / self.switch_count

    def configuration_cost(self) -> dict:
        """Energy/time to program the current configuration.

        Every ON switch is one device write; writes to independent
        switches proceed row-parallel, so time is charged per fabric
        row touched (conservatively: one write time per ON switch for
        the serial controller in the denominator of the parallel case).
        """
        writes = self.switches_on
        return {
            "switch_writes": writes,
            "energy": writes * self.technology.write_energy,
            "time_serial": writes * self.technology.write_time,
            "area": self.switch_count * self.technology.cell_area,
        }
