"""Array-scored placement and template-cloned window expansion.

The ``map`` phase of the block-style pipeline is two pure functions —
``place_iterations`` (greedy placement of unrolled iterations) and
``map_window`` (expansion into machine instruction instances) — and both
are bit-exactly reproducible, so they admit the same oracle-gated
rewrite as the engine cores:

* :func:`place_iterations_array` runs the identical greedy pass but
  keeps an incrementally-maintained numpy score array over the
  iteration's region — composite key ``iter_load * (capacity + 1) +
  slots`` with saturated nodes masked high — whose ``argmin`` lands on
  the same node as the object scorer's tuple ``min``; producer
  preference resolves through the in-progress assignment list, operand
  sources are classified once per kernel instead of once per instance
  per iteration, and ``node_of`` is assembled in one bulk
  ``dict(zip(...))`` at the end.
* :func:`expand_window` builds one relative-uid instance *template* for
  the whole window and clones it per iteration.  The consumer wiring,
  priorities and operand counts of an iteration's uid block depend only
  on the kernel and config — never on the placement — so a clone just
  rebases uids by the block offset, resolves nodes through the
  iteration's assignment, and advances regular-memory addresses by the
  per-iteration stride.

Both functions are pinned to the object implementations by the
equivalence suite; ``repro.machine.placement`` / ``repro.machine.mapping``
select them when the ``array`` engine core is active.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, List, Tuple

import numpy as np

from ...obs.metrics import METRICS


def _greedy_place(
    body_len: int,
    producer_pos: List[List[int]],
    start: int,
    width: int,
    nodes: int,
    capacity: int,
    fair_share: int,
    slots: List[int],
) -> Tuple[List[int], List[int]]:
    """One iteration of the greedy pass over ``slots`` (mutated).

    Mirrors ``placement._place_one_iteration`` decision-for-decision.
    The spill step reads ``score.argmin()`` from a region-ordered score
    array updated as instructions land, instead of re-ranking a
    candidate list per decision; entries past the region (and saturated
    nodes) sit at ``big``, so a ``big`` minimum means "widen".  Raises
    ``ValueError`` on overflow.
    """
    big = (capacity + 1) ** 2  # above any live (load, slots) composite
    scale = capacity + 1
    region = [(start + k) % nodes for k in range(width)]
    rindex = {n: i for i, n in enumerate(region)}
    score = np.full(nodes, big, dtype=np.int64)
    for i, n in enumerate(region):
        s = slots[n]
        if s < capacity:
            score[i] = s  # iter_load starts at zero
    r = len(region)
    iter_load: Dict[int, int] = {}
    assignment: List[int] = []
    append = assignment.append

    for pos in range(body_len):
        chosen = -1
        best_load = None
        for ppos in producer_pos[pos]:
            candidate = assignment[ppos]
            load = iter_load.get(candidate, 0)
            if slots[candidate] < capacity and load < fair_share:
                if best_load is None or load < best_load:
                    chosen = candidate
                    best_load = load
        if chosen < 0:
            while True:
                i = int(score.argmin())
                if score[i] < big:
                    chosen = region[i]
                    break
                if r >= nodes:
                    raise ValueError("placement overflow")
                nxt = (region[-1] + 1) % nodes
                while nxt in rindex:
                    nxt = (nxt + 1) % nodes
                region.append(nxt)
                rindex[nxt] = r
                s = slots[nxt]
                if s < capacity:
                    score[r] = iter_load.get(nxt, 0) * scale + s
                r += 1
        append(chosen)
        s = slots[chosen] + 1
        slots[chosen] = s
        load = iter_load.get(chosen, 0) + 1
        iter_load[chosen] = load
        score[rindex[chosen]] = big if s >= capacity else load * scale + s
    return region, assignment


def place_iterations_array(kernel, params, iterations: int):
    """Array-scored twin of ``placement.place_iterations``' object loop.

    Placement of one iteration is a deterministic function of the kernel
    and the slot state of the nodes its greedy pass reads (the final,
    possibly widened region), so repeated iterations are memoized by
    *region signature* — ``(start node, slots over that region at
    entry)``.  Signatures recur every time the unroll wraps the array,
    turning the greedy pass from O(iterations) to O(distinct
    signatures).  Same error messages and ``placement.*`` metrics, plus
    ``placement.memo_replays``; returns an equal
    :class:`~repro.machine.placement.Placement` (``node_rows`` shares
    one list object per memo replay).
    """
    from ..placement import Placement, region_width

    width = region_width(kernel, params)
    nodes = params.nodes
    capacity = params.slots_per_node
    body = kernel.body
    body_len = len(body)
    if iterations * body_len > nodes * capacity:
        raise ValueError(
            f"cannot place {iterations} x {body_len} instructions: "
            f"capacity is {nodes * capacity} slots"
        )

    # Body order and dataflow sources are immutable per kernel, so the
    # producer-position table is computed once per kernel instance no
    # matter how many windows a sweep places.
    producer_pos = getattr(kernel, "_producer_pos", None)
    if producer_pos is None:
        pos_of = {inst.iid: pos for pos, inst in enumerate(body)}
        producer_pos = kernel._producer_pos = [
            [pos_of[p] for p in inst.dataflow_sources()] for inst in body
        ]
    fair_share = max(2, 2 * -(-body_len // max(1, width)))

    slots = [0] * nodes
    home_row: List[int] = []
    node_rows: List[List[int]] = []
    #: start node -> [(entry slot signature, region, assignment)]
    memo: Dict[int, list] = {}
    fresh = 0

    for u in range(iterations):
        start = (u * width) % nodes
        home_row.append((start // params.cols) % params.rows)
        replay = None
        for signature, region, assignment in memo.get(start, ()):
            if all(slots[n] == s for n, s in zip(region, signature)):
                replay = assignment
                break
        if replay is not None:
            for n in replay:
                slots[n] += 1
            node_rows.append(replay)
            continue
        entry_slots = slots.copy()
        try:
            region, assignment = _greedy_place(
                body_len, producer_pos, start, width, nodes, capacity,
                fair_share, slots,
            )
        except ValueError:
            raise ValueError(
                f"placement overflow: {kernel.name} x "
                f"{iterations} exceeds reservation capacity"
            ) from None
        memo.setdefault(start, []).append(
            (tuple(entry_slots[n] for n in region), region, assignment)
        )
        node_rows.append(assignment)
        fresh += 1

    if METRICS.enabled:
        METRICS.inc("placement.windows_placed")
        METRICS.inc("placement.instances_placed", iterations)
        METRICS.inc("placement.memo_replays", iterations - fresh)

    iids = [inst.iid for inst in body]
    node_of = dict(zip(
        ((u, iid) for u in range(iterations) for iid in iids),
        chain.from_iterable(node_rows),
    ))
    return Placement(
        iterations=iterations,
        node_of=node_of,
        home_row=home_row,
        slots_used={n: slots[n] for n in range(nodes)},
        node_rows=node_rows,
    )


def expand_window(kernel, config, params, U, record_offset, placement):
    """Template-to-SoA twin of the ``mapping.map_window`` expansion.

    An iteration's uid block always has the same shape — body instances
    in kernel order, then regular-memory loads, then stores — and its
    consumer wiring is *positional* (store and dataflow consumer uids
    are block-relative offsets fixed by the kernel), so everything but
    nodes, rows and addresses is computed once.  The window is emitted
    *lazy*: the per-block template goes straight into the engine's
    structure-of-arrays buffers (:func:`_attach_soa` — per-uid columns
    are U-fold tiles of template columns plus numpy gathers over the
    placement matrix) and is retained as a
    :class:`~repro.machine.mapping._LazyExpansion` payload, so
    :class:`~repro.machine.mapping.Instance` objects only ever exist if
    something touches ``window.instances`` — the object-core engines or
    introspection — in which case the deferred clone loop produces the
    identical instance stream (same uids, consumer order, addresses,
    priorities) as the eager object expansion.
    """
    from ..mapping import (
        MappedWindow, _LazyExpansion, _expansion_plan,
    )

    (body_plan, top_priority, table_bases, space_bases,
     chunk_words) = _expansion_plan(kernel, config, params)
    from ..mapping import _OUTPUT_REGION, _RECORD_REGION

    record_base = _RECORD_REGION + record_offset * kernel.record_in
    out_base = _OUTPUT_REGION + record_offset * kernel.record_out
    record_in = kernel.record_in
    smc = config.smc_stream
    B = len(body_plan)
    pos_of = {entry[0]: pos for pos, entry in enumerate(body_plan)}
    n_loads = len(chunk_words) if smc else record_in
    block = B + n_loads + len(kernel.outputs)

    # ---- one template for all iterations --------------------------------
    # Body rows hold everything but the node (resolved through the
    # iteration's assignment); load and store rows carry the body
    # position their node resolves through, and *relative* addresses
    # (record word index / output slot) so the same template serves both
    # the offset-0 SoA address columns and deferred materialization at
    # whatever offset the window sits at by then.
    body_cons: List[List[int]] = [[] for _ in range(B)]
    in_consumers: List[List[int]] = [[] for _ in range(record_in)]
    const_consumers: Dict[int, List[int]] = {}
    for pos, (_iid, _kind, _latency, _address, _words, _useful, _depth,
              _producers, rec_srcs, const_slots, _operands) \
            in enumerate(body_plan):
        for w in rec_srcs:
            in_consumers[w].append(pos)
        for slot in const_slots:
            const_consumers.setdefault(slot, []).append(pos)
    lmw_rows: List[tuple] = []   # (n_words, word consumer lists)
    load_rows: List[tuple] = []  # (word index, node body-pos, consumers)
    if smc:
        for words in chunk_words:
            lmw_rows.append(
                (len(words), [in_consumers[w] for w in words])
            )
    else:
        for w in range(record_in):
            consumers = in_consumers[w]
            node_pos = consumers[0] if consumers else pos_of[0]
            load_rows.append((w, node_pos, consumers))
    rel = B + n_loads
    store_rows: List[tuple] = []  # (output slot, producer body-pos)
    for producer, out_slot in kernel.outputs:
        ppos = pos_of[producer]
        store_rows.append((out_slot, ppos))
        body_cons[ppos].append(rel)
        rel += 1
    # Dataflow edges last — matching the object expansion's second pass,
    # so each producer's consumers list holds its stores first.
    for (iid, _kind, _latency, _address, _words, _useful, _depth,
         producers, _rec_srcs, _const_slots, _operands) in body_plan:
        cpos = pos_of[iid]
        for producer in producers:
            body_cons[pos_of[producer]].append(cpos)
    body_rows = [
        (kind, latency, body_cons[pos], operands, useful, words, address,
         depth, iid)
        for pos, (iid, kind, latency, address, words, useful, depth,
                  _producers, _rec_srcs, _const_slots, operands)
        in enumerate(body_plan)
    ]
    if config.operand_revitalize:
        cr_rows = []
    else:
        cr_rows = sorted(const_consumers.items())

    # ---- lazy window: SoA now, Instance objects only on demand ----------
    window = MappedWindow(
        kernel=kernel,
        config=config,
        params=params,
        iterations=U,
        instances=None,
        const_reads=None,
        placement=placement,
        machine_instructions=U * (block + len(cr_rows)),
        table_bases=table_bases,
        space_bases=space_bases,
        record_base=record_base,
        out_base=out_base,
        record_offset=record_offset,
    )
    window._lazy = _LazyExpansion(
        body_rows=body_rows,
        lmw_rows=lmw_rows,
        load_rows=load_rows,
        store_rows=store_rows,
        cr_rows=cr_rows,
        block=block,
        top_priority=top_priority,
    )
    _attach_soa(window, body_rows, lmw_rows, load_rows, store_rows,
                cr_rows, block, top_priority)
    return window


def _attach_soa(window, body_rows, lmw_rows, load_rows, store_rows,
                cr_rows, block, top_priority):
    """Emit the dataflow core's ``WindowSoA`` straight from the template.

    ``dataflow_core.build_soa`` flattens a finished window by walking
    its ``U * block`` instances.  Every per-uid column it produces is
    either a U-fold tile of a per-block template column or a numpy
    gather over the placement matrix, so the template expansion can
    attach the SoA directly and engine runs over the window never flatten
    anything.  Field-for-field identical to ``build_soa(window)``.
    LOAD/STORE addresses live in the SoA as offset-0 columns plus an
    affine per-record stride (``addr_at0 + record_offset * stride``), so
    rebasing the window costs nothing here; register-file constant
    deliveries are precomputed as ``(consumer uid, arrival)`` pairs
    (FIFO regfile-port grants are ``k // ports`` for same-cycle
    requests).
    """
    from ..mapping import (
        LDI, LMW, LOAD, LUT, STORE, _OUTPUT_REGION, _RECORD_REGION,
    )
    from .dataflow_core import (
        WindowSoA, _address_info, _route_tables, _wire_edges,
    )

    params = window.params
    config = window.config
    kernel = window.kernel
    U = window.iterations
    node_rows = window.placement.node_rows
    home_rows = window.placement.home_row
    smc = config.smc_stream
    cols = params.cols
    B = len(body_rows)
    n_lmw = len(lmw_rows)
    n_stores = len(store_rows)
    n = U * block

    # ---- per-block template columns (uids are u-major blocks) -----------
    mem_kind = [LMW] * n_lmw if smc else [LOAD] * len(load_rows)
    n_mem = len(mem_kind)
    tpl_kind = [row[0] for row in body_rows] + mem_kind + [STORE] * n_stores
    tpl_lat = [row[1] for row in body_rows] + [1] * (n_mem + n_stores)
    tpl_operands = ([row[3] for row in body_rows] + [0] * n_mem
                    + [1] * n_stores)
    tpl_useful = ([row[4] for row in body_rows]
                  + [False] * (n_mem + n_stores))
    tpl_words = ([row[5] for row in body_rows]
                 + ([r[0] for r in lmw_rows] if smc else [0] * n_mem)
                 + [0] * n_stores)
    tpl_depth = ([row[7] for row in body_rows] + [top_priority] * n_mem
                 + [0] * n_stores)
    tpl_kiid = [row[8] for row in body_rows] + [-1] * (n_mem + n_stores)
    lut_code = 0 if config.l0_data else 3
    code_of = {LUT: lut_code, LDI: 3, LMW: 2, LOAD: 4, STORE: 1}
    tpl_code = [code_of.get(kind, 0) for kind in tpl_kind]

    soa = WindowSoA()
    soa.n = n
    soa.kinds = tpl_kind * U
    soa.latencies = tpl_lat * U
    soa.operands = tpl_operands * U
    soa.useful = tpl_useful * U
    soa.lmw_words = tpl_words * U
    soa.depths = tpl_depth * U
    soa.kiids = tpl_kiid * U
    soa.codes = tpl_code * U
    soa.has_l1 = any(code >= 3 for code in tpl_code)
    u_idx = np.repeat(np.arange(U, dtype=np.int64), block)
    soa.iters = u_idx.tolist()
    soa.addresses_by_seed = {}

    # ---- LOAD/STORE address columns: offset-0 base + affine stride ------
    # Static addresses (LUT table / LDI space bases) ride along with
    # stride 0, so ``addr_at0 + offset * stride`` is every instance's
    # ``address`` field at the window's current offset.
    tpl_addr0 = ([row[6] for row in body_rows]
                 + ([0] * n_lmw if smc
                    else [_RECORD_REGION + r[0] for r in load_rows])
                 + [_OUTPUT_REGION + slot for slot, _ppos in store_rows])
    tpl_stride = ([0] * B
                  + ([0] * n_lmw if smc
                     else [kernel.record_in] * len(load_rows))
                  + [kernel.record_out] * n_stores)
    stride = np.tile(np.asarray(tpl_stride, dtype=np.int64), U)
    soa.addr_stride = stride
    soa.addr_at0 = (
        np.tile(np.asarray(tpl_addr0, dtype=np.int64), U) + u_idx * stride
    )
    soa.mem_addr_by_offset = {}

    # ---- nodes / rows / edges: gathers over the placement matrix --------
    A = np.asarray(node_rows, dtype=np.int64)
    home_arr = np.asarray(home_rows, dtype=np.int64)
    if smc:
        mem_nodes = np.repeat((home_arr * cols)[:, None], n_lmw, axis=1)
    else:
        mem_nodes = A[:, [r[1] for r in load_rows]]
    store_nodes = A[:, [r[1] for r in store_rows]]
    nodes2d = np.concatenate([A, mem_nodes, store_nodes], axis=1)
    rows2d = nodes2d // cols
    if smc and block > B:
        # LMW interfaces and SMC-bound stores account at the home row.
        rows2d[:, B:] = home_arr[:, None]
    nodes_flat = nodes2d.reshape(-1)
    soa.nodes_of = nodes_flat.tolist()
    soa.rows = rows2d.reshape(-1).tolist()
    edge_of = np.asarray(
        [params.route_to_row_edge(node) for node in range(params.nodes)],
        dtype=np.int64,
    )
    soa.edges = edge_of[nodes_flat].tolist()

    # ---- dataflow edges: one gather over the tiled consumer lists -------
    hops_table, delay_table = _route_tables(params)
    tpl_flat: List[int] = []
    tpl_counts: List[int] = []
    for row in body_rows:
        tpl_flat.extend(row[2])
        tpl_counts.append(len(row[2]))
    if smc:
        tpl_counts.extend([0] * n_lmw)
    else:
        for _a_const, _node_pos, cons in load_rows:
            tpl_flat.extend(cons)
            tpl_counts.append(len(cons))
    tpl_counts.extend([0] * n_stores)
    counts = np.tile(np.asarray(tpl_counts, dtype=np.int64), U)
    if tpl_flat:
        flat_cuids = (
            np.asarray(tpl_flat, dtype=np.int64)[None, :]
            + (np.arange(U, dtype=np.int64) * block)[:, None]
        ).reshape(-1).tolist()
    else:
        flat_cuids = []
    soa.cons, soa.hops_of = _wire_edges(
        nodes_flat, counts, flat_cuids, n, hops_table, delay_table
    )

    # ---- LMW word consumers, LUT/LDI address columns, ready set ---------
    lmw_cons = soa.lmw_cons = [None] * n
    lmw_hops = soa.lmw_hops = [0] * n
    if smc and n_lmw:
        delay_list = delay_table.tolist()
        hops_list = hops_table.tolist()
        for u in range(U):
            base = u * block
            arow = node_rows[u]
            drow = delay_list[home_rows[u] * cols]
            hrow = hops_list[home_rows[u] * cols]
            for j, (_n_words, wc) in enumerate(lmw_rows):
                uid = base + B + j
                total = 0
                words = []
                for cl in wc:
                    words.append(tuple(
                        (base + c, drow[arow[c]]) for c in cl
                    ))
                    total += sum(hrow[arow[c]] for c in cl)
                lmw_cons[uid] = tuple(words)
                lmw_hops[uid] = total

    lut_rows = []  # (uid, base address, table size, iteration, kernel iid)
    ldi_rows = []  # (uid, base address, space size, iteration, kernel iid)
    lut_rels = [
        (rel, row[6], len(kernel.tables[kernel.body[row[8]].table]), row[8])
        for rel, row in enumerate(body_rows)
        if row[0] == LUT and lut_code == 3
    ]
    ldi_rels = [
        (rel, row[6], max(1, row[5]), row[8])
        for rel, row in enumerate(body_rows) if row[0] == LDI
    ]
    if lut_rels or ldi_rels:
        for u in range(U):  # uid-major, matching build_soa's scan order
            base = u * block
            for rel, address, size, iid in lut_rels:
                lut_rows.append((base + rel, address, size, u, iid))
            for rel, address, size, iid in ldi_rels:
                ldi_rows.append((base + rel, address, size, u, iid))
    soa.lut_info = _address_info(lut_rows)
    soa.ldi_info = _address_info(ldi_rows)

    rel0 = [rel for rel, left in enumerate(tpl_operands) if left == 0]
    if rel0:
        # Ascending uid (u-major, rel-ascending): the ready-set build
        # order is observable through ``active_nodes`` set iteration.
        soa.zero_uids = (
            (np.arange(U, dtype=np.int64) * block)[:, None]
            + np.asarray(rel0, dtype=np.int64)[None, :]
        ).reshape(-1).tolist()
    else:
        soa.zero_uids = []

    # ---- register-file constant deliveries ------------------------------
    # Mirrors DataflowEngine._deliver_const_reads: reads arrive
    # iteration-major in slot order, all asking the regfile ports for
    # cycle 0, so the FIFO grant of the k-th read is ``k // ports``.
    soa.n_const_reads = U * len(cr_rows)
    deliveries: List[tuple] = []
    if cr_rows:
        ports = params.regfile_read_ports
        latency = params.regfile_latency
        from_regfile = [
            params.route_from_regfile(node) for node in range(params.nodes)
        ]
        nodes_list = soa.nodes_of
        k = 0
        for u in range(U):
            base = u * block
            for _slot, cons in cr_rows:
                grant = k // ports
                k += 1
                for c in cons:
                    cuid = base + c
                    deliveries.append((
                        cuid,
                        grant + latency + from_regfile[nodes_list[cuid]],
                    ))
    soa.const_deliveries = deliveries

    depth_full = np.tile(np.asarray(tpl_depth, dtype=np.int64), U)
    order_arr = np.lexsort((np.arange(n), depth_full))
    soa.order = order_arr.tolist()
    window.issue_order = soa.order
    rank_arr = np.empty(n, dtype=np.int64)
    rank_arr[order_arr] = np.arange(n)
    soa.rank_of = rank_arr.tolist()
    if METRICS.enabled:
        METRICS.inc("fastcore.soa_fused")
    window._fastcore_soa = soa
