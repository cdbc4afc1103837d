"""Static placement of kernel instructions onto the ALU array.

The TRIPS execution model is statically placed, dynamically issued
(SPDI): a scheduler assigns every instruction of a mapped block to a node
before execution.  This module implements a deterministic placement
heuristic in the spirit of the paper's software schedulers:

* each unrolled iteration gets a *region* — a small contiguous window of
  nodes sized by the kernel's inherent ILP, so producer→consumer hops stay
  short;
* regions stripe across the array (row-major), so iterations spread over
  all rows and each row's SMC bank/streaming channel feeds the iterations
  living in that row;
* within a region, instructions are placed onto the least-loaded node, in
  topological order, subject to per-node reservation-station capacity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..isa.kernel import Kernel
from ..obs.metrics import METRICS
from ..perf.phases import PHASES, perf_counter
from .fastcore import active_core, map_core
from .params import MachineParams


@dataclass
class Placement:
    """Placement of ``iterations`` copies of a kernel onto the array.

    ``node_of[(iteration, iid)]`` is the node index (row-major) of each
    instruction instance; ``home_row[iteration]`` is the row whose SMC
    bank and streaming channel serve that iteration's regular memory
    traffic.
    """

    iterations: int
    node_of: Dict[Tuple[int, int], int]
    home_row: List[int]
    slots_used: Dict[int, int]
    #: per-iteration node assignment in kernel-body order — the same
    #: information as ``node_of``, laid out for the template-cloning
    #: window expansion (replayed iterations share one list object).
    #: Derived, so excluded from equality.
    node_rows: List[List[int]] = field(default_factory=list, compare=False)

    def max_slot_usage(self) -> int:
        return max(self.slots_used.values(), default=0)


def region_width(kernel: Kernel, params: MachineParams) -> int:
    """Nodes per iteration region.

    Wide enough for the kernel's inherent ILP *and* for its reservation
    -station footprint (so consecutive iterations tile the array instead
    of cascading spills into each other's regions).
    """
    ilp_width = int(round(kernel.inherent_ilp())) or 1
    capacity_width = -(-len(kernel.body) // params.slots_per_node)  # ceil
    width = max(1, ilp_width, capacity_width)
    return min(params.nodes, width)


def _place_one_iteration(
    kernel: Kernel,
    params: MachineParams,
    u: int,
    width: int,
    slots_used: Dict[int, int],
    node_of: Dict[Tuple[int, int], int],
) -> List[int]:
    """Greedily place iteration ``u``; mutate ``slots_used``/``node_of``.

    Chain-affine greedy placement: an instruction prefers the node of
    one of its producers (keeping dependence chains local, so results
    forward without network hops — what the TRIPS schedulers optimize),
    spilling to the least-loaded node of the iteration's region when the
    producer nodes are saturated.  "Saturated" uses a per-node running
    chain budget so a single node does not swallow a whole wide graph.

    Returns the chosen node per instruction, in body order.
    """
    nodes = params.nodes
    capacity = params.slots_per_node
    start = (u * width) % nodes
    region = [(start + k) % nodes for k in range(width)]
    # Per-iteration load balance target: no node should hold much more
    # than its fair share of this iteration's instructions.
    fair_share = max(2, 2 * -(-len(kernel.body) // max(1, width)))
    iter_load: Dict[int, int] = {}
    assignment: List[int] = []

    for inst in kernel.body:  # body is topologically ordered
        chosen = -1
        best_load = None
        for p in inst.dataflow_sources():
            candidate = node_of[(u, p)]
            load = iter_load.get(candidate, 0)
            if slots_used[candidate] < capacity and load < fair_share:
                if best_load is None or load < best_load:
                    chosen = candidate
                    best_load = load
        if chosen < 0:
            # Least-loaded non-full node in the region; widen the
            # region (without re-adding nodes) when all are full.
            while True:
                candidates = [
                    n for n in region if slots_used[n] < capacity
                ]
                if candidates:
                    chosen = min(
                        candidates,
                        key=lambda n: (iter_load.get(n, 0), slots_used[n]),
                    )
                    break
                if len(region) >= nodes:
                    raise ValueError(
                        f"placement overflow: {kernel.name} x "
                        f"(iteration {u}) exceeds reservation capacity"
                    )
                nxt = (region[-1] + 1) % nodes
                while nxt in region:
                    nxt = (nxt + 1) % nodes
                region.append(nxt)
        node_of[(u, inst.iid)] = chosen
        slots_used[chosen] += 1
        iter_load[chosen] = iter_load.get(chosen, 0) + 1
        assignment.append(chosen)
    return assignment


def place_iterations(
    kernel: Kernel, params: MachineParams, iterations: int
) -> Placement:
    """Place ``iterations`` unrolled copies of ``kernel`` onto the grid.

    Raises ``ValueError`` when the request exceeds total reservation-station
    capacity; callers pick ``iterations`` with :func:`max_unroll`.

    Under the ``array`` engine core the greedy pass runs the
    array-scored, region-signature-memoized variant in
    :mod:`repro.machine.fastcore.map_core`; otherwise every iteration
    runs :func:`_place_one_iteration` in turn.  That object loop is the
    executable specification the array placement is pinned to.  Wall
    time is credited to the ``placement`` phase either way, so the
    mapping phase breakdown separates placement from window expansion.
    """
    if not PHASES.enabled:
        return _place_iterations_impl(kernel, params, iterations)
    started = perf_counter()
    try:
        return _place_iterations_impl(kernel, params, iterations)
    finally:
        PHASES.add("placement", perf_counter() - started)


def _place_iterations_impl(
    kernel: Kernel, params: MachineParams, iterations: int
) -> Placement:
    if active_core() == "array":
        return map_core.place_iterations_array(kernel, params, iterations)
    width = region_width(kernel, params)
    nodes = params.nodes
    capacity = params.slots_per_node
    total_needed = iterations * len(kernel.body)
    if total_needed > nodes * capacity:
        raise ValueError(
            f"cannot place {iterations} x {len(kernel.body)} instructions: "
            f"capacity is {nodes * capacity} slots"
        )

    slots_used: Dict[int, int] = {n: 0 for n in range(nodes)}
    node_of: Dict[Tuple[int, int], int] = {}
    home_row: List[int] = []
    node_rows: List[List[int]] = []

    for u in range(iterations):
        start = (u * width) % nodes
        home_row.append((start // params.cols) % params.rows)
        try:
            assignment = _place_one_iteration(
                kernel, params, u, width, slots_used, node_of
            )
        except ValueError:
            raise ValueError(
                f"placement overflow: {kernel.name} x "
                f"{iterations} exceeds reservation capacity"
            ) from None
        node_rows.append(assignment)
    if METRICS.enabled:
        METRICS.inc("placement.windows_placed")
        METRICS.inc("placement.instances_placed", iterations)
    return Placement(
        iterations=iterations,
        node_of=node_of,
        home_row=home_row,
        slots_used=slots_used,
        node_rows=node_rows,
    )


def max_unroll(kernel: Kernel, params: MachineParams, overhead_per_iter: int = 0) -> int:
    """Largest iteration count mappable at once in the SIMD (S-*) modes.

    The paper unrolls "as much as possible, as determined by the number of
    the reservation stations, so as to reduce the number of
    revitalizations", subject to the S-morph unroll limit.
    """
    per_iter = len(kernel.body) + overhead_per_iter
    if per_iter == 0:
        return 1
    fit = params.mapping_capacity // per_iter
    return max(1, min(fit, params.simd_max_unroll))
