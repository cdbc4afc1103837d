"""Max-plus affine fast core for the MIMD record loop.

:func:`run_records` is the whole record loop of a timing-only
:meth:`MimdEngine.run`, which branches to it once per run; the object
loop (``run``'s own loop over :meth:`MimdEngine._run_record`) stays
the specification.  For a fixed trip count, ``_run_record``'s
instruction loop is a chain of ``issue = max(pc, ready(operands));
pc = issue + 1`` updates — a *max-plus (tropical) affine* function of
the few values that vary per record.  This module compiles that
function once per (engine, trip count) into an :class:`AffinePlan`
over the basis

    x = [start, pc_after_chunks, word_ready[0], ..., word_ready[R-1],
         D_0, P_0, D_1, P_1, ...]

Each plan row is a sparse ``{basis column: addend}`` map, built that
way from the start and merged by per-column max; a record evaluates a
row as ``max(x[c] + v)`` over its terms, in plain Python, with the
first term kept apart so that a one-term row is one add.  The chunk
loads stay concrete (they reserve SMC ports / L1 banks statefully, and
are the ``mimd_memory`` phase), as do the store-buffer pushes, which go
out in one call per row after the last record unless a trace or the
sanitizer observes the run.

**Staged L1 ops.**  Live instructions that take an L1 round trip
mid-loop (LDI, and LUT without an L0 data store) are not affine — the
reply depends on stateful bank ports and tags — but their *addresses*
are pure functions of ``(record_index, iid)``.  L1 op ``j`` therefore
gets an issue row, evaluated in program order from the basis filled so
far, and two basis columns filled during evaluation: its data return
``D_j``, from the real ``l1_access`` (same address and arrival cycle
as the object loop, hence identical tag and port state), and the pc
after the blocking load, ``P_j = max(issue_j + 1, D_j)``.  The plan's
symbolic pc then *rebases*: it restarts as the single term ``P_j``
instead of carrying every column that reached it.

**Pruning.**  Let ``m_j`` be the number of live instructions up to
and including L1 op ``j``.  Every live instruction moves the pc forward
by at least one cycle, and every chunk load does too, so the object
loop fixes these orderings between basis values, whatever the memory
system returns:

* ``x[1] >= x[0] + chunks`` (``chunks = len(engine._chunks)``);
* every word column ``<= x[1]`` — a chunk's pc waits for its last word;
* ``P_0 >= x[1] + m_0`` and ``P_k >= P_j + (m_k - m_j)`` for ``k > j``;
* ``D_j <= P_j`` — the blocking load waits for its data.

Give each column a *potential*: ``x[1]`` and the words 0, ``P_j`` and
``D_j`` ``m_j``, ``x[0]`` ``-chunks``.  Less their potentials,
``x[1], P_0, P_1, ...`` form a totally ordered *chain*, and every other
column lies below a known chain column.  At every merge a term
``(c, v)`` is dropped when a chain column ``c'`` known to lie above it
carries an addend ``v'`` with ``v' + potential[c'] >= v +
potential[c]``: that chain term is at least as large for every basis
the object loop can produce, so the row's max — and the simulated
timing — cannot change.  The pruning is exact, and with the rebase it
leaves almost every row one term wide (every staged row of
``blowfish|M`` and ``rijndael|M``).

The instruction-loop stall total telescopes (each op's stall terms sum
to its pc advance minus one), so the stats stay plan constants plus the
final pc.  Cycle times are Python ints, so evaluation is exact.
"""

from __future__ import annotations

from ...check.sanitizer import SANITIZER
from ...obs.trace import TRACE
from ...perf.phases import PHASES, perf_counter


class AffinePlan:
    """One compiled per-record timing function (fixed trip count)."""

    __slots__ = (
        "n_meta", "skipped", "slots", "pc_extra", "l1_steps", "out_rows",
        "lut_trips",
    )

    def __init__(self, n_meta, skipped, slots, pc_extra, l1_steps, out_rows,
                 lut_trips):
        self.n_meta = n_meta
        self.skipped = skipped
        self.slots = slots            # output slot per store row, in order
        self.pc_extra = pc_extra      # loop-control addend (plan constant)
        #: Rows are ``(column, addend, rest)``: the term ``(column,
        #: addend)`` plus the terms in ``rest``, mostly none.  Each L1
        #: op, in evaluation order, has its issue row followed by its
        #: address recipe ``(base, mult, add, mem_len)``: the address
        #: is ``base + (record_index * mult + add) % mem_len``.
        self.l1_steps = l1_steps
        #: pc after the instruction loop, pc after the stores, then one
        #: issue row per store.
        self.out_rows = out_rows
        self.lut_trips = lut_trips    # live LUT L1 trips per record


def _chain_key(base_col):
    """Sort key of a basis column against the chain.

    Chain columns get odd keys in chain order — ``x[1]`` 1, ``P_j``
    ``2j + 3`` — and every other column the even key just below the
    lowest chain column known to be at or above it: ``x[0]`` and the
    words 0, ``D_j`` ``2j + 2``.  So the chain terms that may dominate
    a term are exactly those of a larger key.
    """
    def key(col):
        if col >= base_col:
            return col - base_col + 2
        return 1 if col == 1 else 0
    return key


def _potentials(chunks, n_words, live_counts):
    """Each basis column's potential, indexed by column (see Pruning).

    ``live_counts`` holds ``m_j`` for each L1 op ``j`` in order.
    """
    potential = [-chunks, 0] + [0] * n_words
    for m in live_counts:
        potential += (m, m)  # D_j, P_j
    return potential


def _prune(row, key, potential):
    """``row`` without the terms a chain term of ``row`` dominates."""
    kept = {}
    best = None  # largest chain bound at a larger key than the current
    for col in sorted(row, key=key, reverse=True):
        addend = row[col]
        bound = addend + potential[col]
        if best is None or bound > best:
            kept[col] = addend
            if key(col) & 1:
                best = bound
    return kept


def _flat(row):
    """A row as ``(column, addend, rest)``: its first term apart from
    the others, so a one-term row evaluates as one add."""
    (col, addend), *rest = row.items()
    return col, addend, tuple(rest)


def _raise(row, other):
    """Merge ``other`` into ``row`` by per-column max."""
    for col, addend in other.items():
        if col not in row or addend > row[col]:
            row[col] = addend


def _shift(row, delta):
    return {col: addend + delta for col, addend in row.items()}


def build_plan(engine, trips):
    """Compile the record loop for one trip count."""
    meta, skipped, live_luts, outs = engine._live_meta(trips)
    kernel = engine.kernel
    l0_data = engine.config.l0_data
    l0_latency = engine.params.l0_data_latency
    base_col = 2 + kernel.record_in
    key = _chain_key(base_col)
    potential = _potentials(
        len(engine._chunks), kernel.record_in,
        [m for m, (_iid, kind, *_rest) in enumerate(meta, 1)
         if kind == 2 or (kind == 1 and not l0_data)],
    )

    # Never-executed producers read as ``start`` (basis column 0),
    # matching the reference's ``ready_at.get(p, start)``.
    at_start = {0: 0}
    ready = {}
    pc = {1: 0}  # pc starts at pc_after_chunks
    l1_steps = []
    for iid, kind, producers, word_deps, latency, base, mem_len in meta:
        # The object loop's literal 0 floor on operands_ready never
        # binds: pc >= start >= 1 (setup is at least one cycle).
        issue = dict(pc)
        for p in producers:
            _raise(issue, ready.get(p, at_start))
        for w in word_deps:
            _raise(issue, {2 + w: 0})
        issue = _prune(issue, key, potential)
        if kind == 0:
            ready[iid] = _shift(issue, latency)
            pc = _shift(issue, 1)
        elif kind == 1 and l0_data:
            ready[iid] = _shift(issue, l0_latency)
            pc = _shift(issue, 1)
        else:
            # L1 round trip: rebase on the two columns the evaluation
            # fills in, D_j (data return) and P_j (pc after the load).
            done = base_col + 2 * len(l1_steps)
            if kind == 1:
                recipe = (base, 31, iid, mem_len)
            else:
                recipe = (base, 97, iid * 13, mem_len)
            l1_steps.append(_flat(issue) + recipe)
            ready[iid] = {done: 0}
            pc = {done + 1: 0}

    rows = [pc]  # pc after the instruction loop
    for _slot, producer in outs:
        issue = pc
        if producer >= 0:
            issue = dict(pc)
            _raise(issue, ready.get(producer, at_start))
            issue = _prune(issue, key, potential)
        rows.append(issue)  # store issue; +edge happens at evaluation
        pc = _shift(issue, 1)
    rows.insert(1, pc)  # pc after the stores

    loop = kernel.loop
    static = loop.static_trips or 1
    if loop.variable:
        pc_extra = trips
    elif static > 1:
        pc_extra = static
    else:
        pc_extra = 0
    return AffinePlan(
        n_meta=len(meta),
        skipped=skipped,
        slots=[slot for slot, _producer in outs],
        pc_extra=pc_extra,
        l1_steps=l1_steps,
        out_rows=[_flat(row) for row in rows],
        lut_trips=0 if l0_data else live_luts,
    )


def run_records(engine, records, node_time):
    """Array-core replacement for :meth:`MimdEngine.run`'s record loop.

    Advances ``node_time`` (node -> cycle it is next free) over every
    record and folds the run's counts into ``engine.stats``, exactly as
    the object loop does; returns the run's useful operations.  Each
    node's row and edge, the chunk word lists, the plan dict and, for a
    static loop, its one plan and useful-op count are computed once per
    run.  Each record's chunk loads are the same stateful sequence of
    memory calls the object loop makes, credited to the ``mimd_memory``
    phase.
    """
    kernel = engine.kernel
    params = engine.params
    memory = engine.memory
    nodes = engine.nodes
    n_nodes = len(nodes)
    where = [(node, node // params.cols, params.route_to_row_edge(node))
             for node in nodes]
    chunks = [(tuple(words), len(words)) for words in engine._chunks]
    n_chunks = len(chunks)
    record_in = kernel.record_in
    record_out = kernel.record_out
    width = 2 + record_in
    plans = engine.__dict__.setdefault("_fastcore_plans", {})

    def plan_for(trips):
        plan = plans.get(trips)
        if plan is None:
            plan = plans[trips] = build_plan(engine, trips)
        return plan

    variable = kernel.loop.variable
    trip_count = kernel.trip_count
    useful_live = engine._useful_live
    if variable:
        useful = 0
    else:
        trips = kernel.loop.static_trips or 1
        plan = plan_for(trips)
        useful = useful_live(trips) * len(records)

    tracing = TRACE.enabled
    sanitize = SANITIZER.enabled
    observed = tracing or sanitize
    phases = PHASES.enabled
    # Rows have independent store buffers, and nothing in the run reads
    # a drain time before ``row_store_drain_cycle`` at its end, so each
    # row's pushes are collected in record order and sent in one call
    # after the loop.  An observed run sends them per record, as the
    # object loop does: one trace span per record, sanitizer reports in
    # record order.
    pending = [[] for _ in range(params.rows)]
    smc_stream = engine.config.smc_stream
    lmw_deliver_fast = memory.lmw_deliver_fast
    l1_access_batch = memory.l1_access_batch
    smc_store_many = memory.smc_store_many
    # Each staged L1 round trip is one fused call; a traced run takes
    # the per-access path, which emits the L1 bank events.
    l1_read = memory.l1_access if tracing else memory.l1.timed_read
    memory_s = 0.0
    executed = skipped = lut_trips = load_stalls = 0
    for index, record in enumerate(records):
        node, row, edge = where[index % n_nodes]
        start = node_time[node]
        if variable:
            trips = trip_count(record)
            plan = plan_for(trips)
            useful += useful_live(trips)

        # The basis: start, pc after the chunks, the words; each staged
        # L1 op appends its D_j and P_j.
        x = [0] * width
        x[0] = start
        if phases:
            mem_started = perf_counter()
        pc_time = start
        for words, n_words in chunks:
            request = pc_time + edge
            if smc_stream:
                deliveries = lmw_deliver_fast(
                    row, request, n_words, scattered=True
                )
            else:
                # Non-streaming chunk loads go through the L1 as one
                # batch (same per-word order, so identical grants and
                # tag state).
                base = (1 << 24) + index * record_in
                deliveries = l1_access_batch([base + w for w in words],
                                             request)
            chunk_ready = pc_time + 1
            for w, ready in zip(words, deliveries):
                back = ready + edge
                x[2 + w] = back
                if back > chunk_ready:
                    chunk_ready = back
            pc_time = chunk_ready
        if phases:
            memory_s += perf_counter() - mem_started
        x[1] = pc_time

        if plan.l1_steps:
            # Staged L1 round trips, charged to the engine phase like the
            # object loop's: resolve each op's issue cycle from the basis
            # filled so far, make the real access, and append D_j and P_j.
            append = x.append
            for col, addend, rest, base, mult, add, mem_len in plan.l1_steps:
                issue = x[col] + addend
                for c, v in rest:
                    if x[c] + v > issue:
                        issue = x[c] + v
                address = base + (index * mult + add) % mem_len
                done = l1_read(address, issue + edge) + edge
                append(done)
                append(done if done > issue + 1 else issue + 1)

        vals = [
            max(x[col] + addend, *[x[c] + v for c, v in rest]) if rest
            else x[col] + addend
            for col, addend, rest in plan.out_rows
        ]
        # Stalls telescope: each chunk load and each instruction stalls
        # its pc advance less one cycle, so the record's total is the pc
        # after the instruction loop less the start and one cycle per
        # chunk and per instruction.
        load_stalls += vals[0] - start - n_chunks - plan.n_meta
        executed += plan.n_meta
        skipped += plan.skipped
        lut_trips += plan.lut_trips

        if plan.slots:
            out_base = (1 << 26) + index * record_out
            pushes = [(out_base + slot, issue + edge)
                      for slot, issue in zip(plan.slots, vals[2:])]
            if not observed:
                pending[row] += pushes
            else:
                if phases:
                    mem_started = perf_counter()
                smc_store_many(row, pushes)
                if phases:
                    memory_s += perf_counter() - mem_started

        finish = vals[1] + plan.pc_extra
        if observed:
            engine._observe_record(node, index, start, finish)
        node_time[node] = finish

    if phases:
        mem_started = perf_counter()
    for row, pushes in enumerate(pending):
        if pushes:
            smc_store_many(row, pushes)
    if phases:
        PHASES.add("mimd_memory",
                   memory_s + perf_counter() - mem_started)
    stats = engine.stats
    stats.load_stall_cycles += load_stalls
    stats.instructions_executed += executed
    stats.instructions_skipped += skipped
    stats.lut_l1_trips += lut_trips
    return useful
