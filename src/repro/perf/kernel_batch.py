"""Batched replication kernel: all replications of a cell in lockstep.

:func:`simulate_batch` runs *R* independent replications of one
(dag, policy, parameter) cell as struct-of-arrays numpy state instead of
*R* passes through the per-replication Python loop.  It exploits a
structural property of the paper's system model: with ``rollover=False``
(the default, and the operating point of every sweep in the paper) the
simulation is **batch-synchronous** —

* jobs are only ever *assigned* at batch-arrival events, so between two
  arrivals nothing is drawn from the generator and nothing changes the
  eligible pool except completions;
* completion events draw nothing and only decrement remaining-parent
  counts, so a whole inter-arrival window of completions can be applied
  at once;
* every replication consumes exactly one batch arrival per step until its
  last assignment, so *R* replications advance in lockstep under a single
  global arrival cursor.

Worker churn (``failure_prob > 0``) keeps all three properties.  A
failure flag is drawn at assignment, with the runtimes; a failed
completion draws nothing either — it puts its job back in the eligible
pool and gives back one assignment, and the next arrival reassigns it.
So churn adds only a failure flag per running job and a count of
pending failures per replication.  Rollover does not: waiting workers
are served at completion events, between arrivals.

The event loop therefore collapses from ~events-per-replication iterations
to ~batches iterations shared by all replications, with the per-step work
vectorized across replications (frontier merges, children decrements,
duration blocks, makespan maxima).

**Bit-identity contract.**  Replication by replication, results and
generator end states equal the reference engine's
(:func:`repro.sim.engine.simulate`): each replication's generator is
advanced through the same :class:`~repro.sim.arrivals.BatchArrivals` and
:class:`~repro.sim.runtime.RuntimeSampler` refills, in the same order, at
the same event boundaries as the reference engine, and the same IEEE
double arithmetic is applied to the samples.  The load-bearing details:

* arrival chunks are refilled via
  :meth:`~repro.sim.arrivals.BatchArrivals.refill_block` at the step where
  the reference engine's first ``peek_time`` after exhaustion would refill
  (before that window's completions are processed — which draw nothing);
* runtime blocks are drawn with one
  :meth:`~repro.sim.runtime.RuntimeSampler.draw_into` per replication per
  assignment event, reproducing the reference sampler's refill boundaries
  (including the discarded buffer tails) exactly; under churn each
  assigning replication then draws its failure flags with one
  ``rng.random(take)``, the reference's draw order, and a failed job's
  finish is ``t + dur * failure_time_fraction``;
* a replication retires once every job is assigned and none of its
  running jobs can still fail; the remaining completion events change no
  result field.  Without churn the reference never peeks the arrival
  stream again, so retirement is the end.  With churn it keeps peeking
  until its last completion, so retirement *drains* the arrival stream:
  chunks are refilled until the loaded one reaches the makespan.  The
  generator end state and the :class:`~repro.sim.engine.SimResult` are
  identical.  Stalls count only while a job is unassigned, and the
  last-assignment snapshot is retaken whenever a failure had re-opened
  assignment;
* FIFO eligibility order is reconstructed exactly: the reference pops
  completions in ``(finish, job)`` heap order, which within a window is a
  sort and across windows is concatenation (a window's finishes never
  exceed its batch time, the next window's always do).  Every popped
  event gets its own insertion slot followed by one per child edge: a
  failed job is re-inserted at its event's slot, and a freed child at
  the slot of its *last* parent's edge — recovered from the window's
  pop-ordered child-edge expansion, where a stable sort groups each
  child's edges with ascending scan positions, so the end of its group
  *is* the freeing edge.  Ordering insertions by slot reproduces the
  reference insertion sequence, failures ahead of anything a later pop
  frees;
* the oblivious policy is a set policy (pop = min rank), so window-level
  set updates to a sorted rank frontier reproduce it with no ordering
  reconstruction at all.

``tests/perf/test_kernel_batch_equivalence.py`` enforces
batched-vs-reference bit-identity over random dags, both policies, both
batch-size distributions, worker churn and the paper workloads; any
divergence is a bug in this module.

**Dispatch rules.**  :func:`dispatch_batch` is the auto-dispatch hook of
:func:`repro.sim.parallel.run_chunk`, the task every replication batch
runs as (in-process or in a pool worker).  It engages only when

* the policy factory advertises a kernel dispatch class (``batch_kind``,
  resolved from the policy registry: ``"fifo"``, or ``"oblivious"`` for
  any static-permutation kind — ``oblivious``, ``prio``, ``upward-rank``,
  ``dagps``; the policies whose construction ignores the replication
  generator).  Kinds with no dispatch class (``random``, ``prio-live``)
  take the documented per-replication reference fallback instead;
* the parameters are batch-synchronous (:func:`batch_supported`: no
  request rollover, no straggler injection);
* kernel dispatch is enabled (``REPRO_NO_KERNEL`` unset — the A/B
  switch that pins every batch to the reference loop); and
* the caller is not collecting telemetry: per-event counters
  (``engine.events``, heap/pool peaks) only exist on the per-event
  reference loop, so metrics runs keep it.

Whenever :func:`dispatch_batch` declines, ``run_chunk``'s per-replication
loop runs the reference engine — the only fallback, bit-identical by
construction.  :func:`simulate_batch` itself refuses what it cannot
run in lockstep instead of falling back.  There is no silent
approximation anywhere: every path is exact.
"""

from __future__ import annotations

import os

import numpy as np

from ..sim.arrivals import BatchArrivals
from ..sim.compile import CompiledDag, as_compiled
from ..sim.engine import SimResult, _empty_result, make_policy
from ..sim.runtime import RuntimeSampler

__all__ = ["batch_supported", "dispatch_batch", "simulate_batch"]

#: Kernel dispatch classes the batch loop implements natively: policy
#: kinds whose construction ignores the replication generator and whose
#: pop order the batch kernel can reconstruct exactly.  Registered
#: static-permutation policies (``prio``, ``upward-rank``, ``dagps``)
#: normalize onto ``"oblivious"`` via their
#: :attr:`~repro.sim.policies.PolicySpec.batch_kind`.
_POLICY_KINDS = ("fifo", "oblivious")


def _normalize_kind(kind: str | None) -> str | None:
    """Map a policy kind onto its kernel dispatch class (or ``None``).

    ``"fifo"``/``"oblivious"`` pass through; any other registered kind
    resolves through its spec's ``batch_kind`` (``None`` for policies the
    batch kernel cannot compile — random draws, live reprioritization).
    Unregistered kinds are ``None``.
    """
    if kind in _POLICY_KINDS:
        return kind
    if kind is None:
        return None
    from ..sim.policies import UnknownPolicyError, policy_spec

    try:
        spec = policy_spec(kind)
    except UnknownPolicyError:
        return None
    return spec.batch_kind if spec.batch_kind in _POLICY_KINDS else None

#: Budget of per-job state cells (R * n) per slab.  A cell of the paper
#: sweep can ask for tens of thousands of replications of a
#: multi-thousand-job dag; replications are processed in slabs of
#: ``_STATE_BUDGET // n`` at a time both to bound memory and — the
#: binding constraint — to keep the randomly indexed per-job state
#: (remaining-parent counts) inside the cache hierarchy: past a few
#: million cells the per-step scatters and gathers turn memory-bound and
#: per-replication throughput degrades.
_STATE_BUDGET = 2_000_000

#: Exclusive bound of the 32-bit id and frontier encodings; past it the
#: kernel switches that array family to int64.
_INT32_LIMIT = 2**31


def _kernel_default() -> bool:
    """Whether auto-dispatch to the batched kernel is enabled.

    ``REPRO_NO_KERNEL=1`` pins every replication batch to the reference
    loop — an escape hatch for debugging and for A/B-ing the engines;
    results are bit-identical either way.
    """
    return os.environ.get("REPRO_NO_KERNEL", "") != "1"


def batch_supported(kind: str, params) -> bool:
    """Whether :func:`simulate_batch` can run *kind* under *params*.

    Worker churn is inside the batch-synchronous regime; request
    rollover and straggler injection are not, and only the reference
    engine runs them.
    """
    return (
        _normalize_kind(kind) is not None
        and params.straggler_prob == 0.0
        and not params.rollover
    )


def dispatch_batch(compiled, build_policy, params, runtime_scale, seed_seqs):
    """Try the batched kernel for a whole replication batch.

    Returns the list of :class:`~repro.sim.engine.SimResult` (one per
    entry of *seed_seqs*, in order), or ``None`` when the batch cannot be
    taken — unknown policy factory, rollover or straggler parameters,
    kernel dispatch disabled — and the caller must use the
    per-replication reference loop.  See the module docstring
    for the exact dispatch rules.
    """
    # Factories advertise their kernel dispatch class via ``batch_kind``
    # (:class:`repro.sim.replication.PolicyFactory` resolves it from the
    # policy registry); plain factories without the attribute fall back to
    # a literal ``kind`` in the native set.
    kind = getattr(build_policy, "batch_kind", None)
    if kind is None:
        kind = getattr(build_policy, "kind", None)
    if kind not in _POLICY_KINDS or not batch_supported(kind, params):
        return None
    if not _kernel_default():
        return None
    if not isinstance(compiled, CompiledDag):
        return None
    rngs = [np.random.default_rng(seq) for seq in seed_seqs]
    return simulate_batch(
        compiled,
        kind,
        params,
        rngs,
        order=getattr(build_policy, "order", None),
        runtime_scale=runtime_scale,
    )


def simulate_batch(
    dag,
    kind: str,
    params,
    rngs,
    *,
    order=None,
    runtime_scale: np.ndarray | None = None,
) -> list[SimResult]:
    """Run one replication per generator in *rngs*; returns their results.

    Each replication is bit-identical to
    ``simulate(dag, make_policy(kind, order=order), params, rng)`` run
    serially with its own generator (see the module docstring for why).
    *kind* must be ``"fifo"``, ``"oblivious"``, or a registered
    static-permutation kind (``"prio"``, ``"upward-rank"``, ``"dagps"``)
    — those reduce to the oblivious dispatch class; *order* is the
    oblivious schedule and is validated once for the whole batch.
    """
    native = _normalize_kind(kind)
    if native is None:
        raise ValueError(
            f"batch kernel does not support policy kind {kind!r}; "
            f"supported kinds reduce to {_POLICY_KINDS}"
        )
    if params.straggler_prob > 0.0:
        raise ValueError(
            "batch kernel does not support straggler injection "
            "(straggler_prob > 0); use the reference engine"
        )
    if params.rollover:
        raise ValueError(
            "batch kernel does not support request rollover "
            "(rollover=True); use the reference engine"
        )
    compiled = as_compiled(dag)
    rngs = list(rngs)
    n = compiled.n
    if n == 0:
        return [_empty_result() for _ in rngs]

    if native == "oblivious":
        # One policy construction validates the order permutation for the
        # whole batch; only its precomputed rank tables are read.
        policy = make_policy(kind, order=order)
        rank = np.asarray(policy._rank, dtype=np.int64)
        job_of_rank = np.asarray(policy._job_of_rank, dtype=np.int64)
    else:
        rank = job_of_rank = None

    scale = None
    if runtime_scale is not None:
        scale = np.asarray(runtime_scale, dtype=np.float64)
        if scale.shape != (n,):
            raise ValueError(
                f"runtime_scale must have one entry per job ({n}), got "
                f"shape {scale.shape}"
            )
        if (scale <= 0).any():
            raise ValueError("runtime_scale entries must be positive")

    slab = max(1, _STATE_BUDGET // n)
    results: list[SimResult] = []
    for start in range(0, len(rngs), slab):
        results.extend(
            _batch_sync(
                compiled,
                native,
                params,
                rngs[start: start + slab],
                rank,
                job_of_rank,
                scale,
            )
        )
    return results


def _expand_segments(starts, counts):
    """CSR expansion: flat indices, segment ids and in-segment offsets.

    For segments ``i`` starting at ``starts[i]`` with ``counts[i]``
    consecutive entries, returns ``(idx, seg, off)`` where ``idx``
    enumerates ``starts[i] + 0 .. starts[i] + counts[i] - 1`` segment by
    segment, ``seg`` labels each entry with its segment and ``off`` is
    the entry's position within its segment.
    """
    counts = counts.astype(np.int64, copy=False)
    seg = np.repeat(np.arange(counts.shape[0], dtype=np.int64), counts)
    excl = np.cumsum(counts) - counts
    off = np.arange(seg.shape[0], dtype=np.int64) - excl[seg]
    return starts.astype(np.int64, copy=False)[seg] + off, seg, off


def _merge_sorted(a, b):
    """Merge two sorted integer arrays (same dtype) into a new sorted array.

    A stable in-place sort of the concatenation: numpy's timsort detects
    the two presorted runs and gallops through a plain merge, measurably
    faster than the searchsorted-and-scatter idiom (and ``concatenate``
    already made the copy ``np.sort`` would add).  May return *b* itself
    when *a* is empty — callers hand over ownership of both inputs.
    """
    if not a.shape[0]:
        return b
    merged = np.concatenate((a, b))
    merged.sort(kind="stable")
    return merged


def _gather_live(arr, start, head, cnt):
    """The live (unconsumed) entries of a segmented array, compacted."""
    idx, _, _ = _expand_segments(start + head, cnt)
    return arr[idx]


def _segment_positions(sorted_ids):
    """Position of each element within its run of equal (sorted) ids."""
    m = sorted_ids.shape[0]
    pos = np.arange(m, dtype=np.int64)
    first = np.empty(m, dtype=bool)
    first[0] = True
    np.not_equal(sorted_ids[1:], sorted_ids[:-1], out=first[1:])
    run = np.cumsum(first) - 1
    return pos - pos[first][run]


def _restride(enc, old, new, dtype):
    """Re-encode frontier entries ``rep * old + v`` as ``rep * new + v``.

    ``v`` (a key plus one, or 0 for a tombstone) is below *old*, so the
    rep is ``enc // old``; order within and across reps is preserved.
    """
    wide = enc.astype(np.int64)
    return (wide + wide // old * (new - old)).astype(dtype, copy=False)


def _batch_sync(compiled, kind, params, rngs, rank, job_of_rank, scale):
    """The vectorized batch-synchronous loop for one slab of replications."""
    R = len(rngs)
    n = compiled.n
    indptr = compiled.indptr
    # Window-sized arrays (completions, fired edges, the pool) are hot on
    # every step; 32-bit ids halve their memory traffic.  ``rep * n +
    # job`` values must fit, which the slab budget guarantees with room
    # to spare — the int64 fallback only exists for hand-tuned budgets.
    jdtype = np.int32 if R * n < _INT32_LIMIT else np.int64
    children = compiled.children.astype(jdtype, copy=False)
    out_counts = np.diff(indptr)
    fifo = kind == "fifo"
    churn = params.failure_prob > 0.0
    sources = np.asarray(compiled.initial_frontier(), dtype=np.int64)
    rep_ids = np.arange(R, dtype=np.int64)

    # --- eligibility frontier -----------------------------------------
    # Entry encoding: rep * stride + key + 1, rep-major with each rep's
    # segment sorted by key, and rep * stride itself reserved as that
    # rep's *tombstone* (it sorts before every real key of the segment).
    # The policy's pop order is the per-rep ascending key order:
    #   oblivious — key = rank[job]                    (stride = n + 1)
    #   fifo      — key = insertion_seq * n + job      (stride = cap*n + 1)
    # FIFO keys fit while insertion_seq < cap.  Without churn every job
    # is inserted once, so cap = n suffices; churn re-inserts failed jobs,
    # and the cap doubles (re-encoding the frontier) whenever a rep's
    # insertion count outgrows it.
    #
    # The structure is two-level so a step never pays O(total frontier):
    # a ``main`` array plus a small ``pend``ing array of recent
    # insertions.  Pops take per-rep segment *prefixes* (the smallest
    # keys), so consumption is a head bump in ``main`` and a tombstone
    # overwrite in ``pend`` (popped entries are the smallest live ones,
    # so tombstones stay contiguous at the segment front and the array
    # stays sorted in place).  Freed jobs merge into ``pend`` with one
    # O(|pend|) merge — no compaction — and ``pend`` is flushed into
    # ``main`` only when it outgrows a fraction of it (amortized O(n)
    # merges in total).  Selection merges the candidate prefixes of both
    # levels — O(assigned) work per step, never O(eligible).
    if fifo:
        ins_count = np.full(R, sources.shape[0], dtype=np.int64)
        seq_cap = n
        stride = seq_cap * n + 1
        keys0 = np.arange(sources.shape[0], dtype=np.int64) * n + sources
    else:
        stride = n + 1
        keys0 = np.sort(rank[sources])
    # Encoding dtype: the frontier arrays are what the per-step merges,
    # flush sorts and selection searchsorteds stream over, so when every
    # encoding fits (oblivious: R * (n + 1); fifo's n^2 stride rarely
    # does) 32-bit entries halve their memory traffic.
    edtype = np.int32 if R * stride < _INT32_LIMIT else np.int64
    main = (
        (rep_ids[:, None] * stride + keys0[None, :] + 1)
        .ravel()
        .astype(edtype, copy=False)
    )
    m_cnt = np.full(R, sources.shape[0], dtype=np.int64)
    m_start = np.cumsum(m_cnt) - m_cnt
    m_head = np.zeros(R, dtype=np.int64)
    pend = np.empty(0, dtype=edtype)
    p_cnt = np.zeros(R, dtype=np.int64)   # live entries per rep
    p_size = np.zeros(R, dtype=np.int64)  # physical entries (incl. tombstones)
    p_start = np.zeros(R, dtype=np.int64)
    p_head = np.zeros(R, dtype=np.int64)  # tombstones at the segment front

    remaining = np.tile(compiled.indegree.astype(np.int32), R)

    arrivals = [
        BatchArrivals(
            params.mu_bit, params.mu_bs, rng, size_dist=params.batch_size_dist
        )
        for rng in rngs
    ]
    runtimes = [
        RuntimeSampler(rng, mean=params.runtime_mean, std=params.runtime_std)
        for rng in rngs
    ]
    # Runtime sample buffers as one (R, width) matrix, cursored here (same
    # consumption as RuntimeSampler.draw, without per-draw dispatch).
    # Refills are per-replication and rare (a buffer covers hundreds of
    # assignments); extraction is one flat fancy-index over all
    # replications per step.  The width grows if a refill ever returns a
    # longer buffer (a single request larger than the chunk size); rows
    # beyond their own ``r_len`` are garbage and never indexed.
    r_buf2d = np.empty((R, 0))
    r_flat = r_buf2d.reshape(-1)
    r_width = 0
    r_pos = np.zeros(R, dtype=np.int64)
    r_len = np.zeros(R, dtype=np.int64)
    # Arrival buffers, replication-major: each (rare) refill writes one
    # contiguous row; the per-step column reads touch one cache line per
    # replication, which is far cheaper than strided refill writes.
    a_times = np.empty((R, 0))
    a_sizes = np.empty((R, 0), dtype=np.int64)
    a_pos = 0
    a_len = 0

    # Completion pool: flat, unsorted columns (finish, rep, job, and under
    # churn a failure flag).  Heap order is never needed — a window's
    # completions are selected by mask and (for fifo) sorted per window,
    # which is exactly the reference heap's pop order.  Entries of
    # retired replications are purged at retirement, so the pool only
    # ever holds running jobs of active replications.  Double-buffered
    # capacity arrays: appends are in-place slice writes and compaction
    # is a ``np.take`` into the twin, so a step never reallocates or
    # copies the surviving entries more than once.
    pool_dtypes = (np.float64, jdtype, jdtype) + ((bool,) if churn else ())
    p_capacity = 1024
    pool = [np.empty(p_capacity, dtype=d) for d in pool_dtypes]
    alt = [np.empty(p_capacity, dtype=d) for d in pool_dtypes]
    plen = 0

    def keep_pool(kidx) -> None:
        """Compact the pool down to the entries at *kidx* (in order)."""
        nonlocal pool, alt, plen
        k = kidx.shape[0]
        for src, dst in zip(pool, alt):
            np.take(src[:plen], kidx, out=dst[:k])
        pool, alt = alt, pool
        plen = k

    # Shared index ramp: every CSR expansion needs an ``arange`` of its
    # own length; one growable buffer serves them all without a fresh
    # allocation per step.
    iota = np.arange(4096, dtype=np.int64)

    def iota_upto(m: int) -> np.ndarray:
        nonlocal iota
        if m > iota.shape[0]:
            iota = np.arange(max(m, 2 * iota.shape[0]), dtype=np.int64)
        return iota[:m]

    def stable_order(values: np.ndarray) -> np.ndarray:
        """``np.argsort(values, kind="stable")`` as one unstable sort.

        Each key packs ``value << b | position`` with ``2**b > m`` (the
        array's length), so the keys are distinct and sorting them yields
        exactly the stable order.  No overflow: the values are reps or
        ``rep * n + job`` ids, < R * n, which the slab budget keeps below
        2**31 (the int32 ``jdtype``), and m < 2**31, so every key stays
        below 2**62.
        """
        m = values.shape[0]
        b = m.bit_length()
        keys = values.astype(np.int64) << b
        keys |= iota_upto(m)
        keys.sort()
        keys &= (1 << b) - 1
        return keys

    n_assigned = np.zeros(R, dtype=np.int64)
    pending = np.zeros(R, dtype=np.int64)  # failed entries still running
    n_failures = np.zeros(R, dtype=np.int64)
    batches = np.zeros(R, dtype=np.int64)
    stalled = np.zeros(R, dtype=np.int64)
    requests = np.zeros(R, dtype=np.int64)
    batches_at = np.zeros(R, dtype=np.int64)
    stalled_at = np.zeros(R, dtype=np.int64)
    requests_at = np.zeros(R, dtype=np.int64)
    makespan = np.zeros(R)
    active = np.ones(R, dtype=bool)

    while True:
        # ---- arrival refill (the reference's peek-triggered refill) ---
        if a_pos >= a_len:
            live = np.flatnonzero(active)
            if a_len == 0:
                first_t, first_s = arrivals[int(live[0])].refill_block()
                a_len = first_t.shape[0]
                a_times = np.empty((R, a_len))
                a_sizes = np.empty((R, a_len), dtype=np.int64)
                a_times[live[0]] = first_t
                a_sizes[live[0]] = first_s
                live = live[1:]
            for r in live:
                t_blk, s_blk = arrivals[int(r)].refill_block()
                a_times[r] = t_blk
                a_sizes[r] = s_blk
            a_pos = 0
        t = a_times[:, a_pos]
        b = a_sizes[:, a_pos]
        a_pos += 1

        # ---- completion window: everything due before this batch ------
        if plen:
            fin_v = pool[0][:plen]
            rep_v = pool[1][:plen]
            job_v = pool[2][:plen]
            done = fin_v <= t[rep_v]
            if done.any():
                c_rep = rep_v[done]
                c_job = job_v[done]
                if churn:
                    c_fail = pool[3][:plen][done]
                if fifo:
                    # Reference pop order within the window: the heap's
                    # (finish, job) tuples, per rep.  Two single-key
                    # passes (argsort by finish, then a stable sort by
                    # rep) beat a three-key lexsort; the job tiebreak
                    # only matters for *exactly* equal finishes within a
                    # rep (zero runtime spread), detected and sent
                    # through the full lexsort.
                    c_fin = fin_v[done]
                    # Finishes are strictly positive, so their IEEE-754
                    # bit patterns order exactly as the floats do and the
                    # integer argsort skips NaN handling.
                    o1 = np.argsort(c_fin.view(np.int64))
                    w = o1[stable_order(c_rep[o1])]
                    rep_w = c_rep[w]
                    fin_w = c_fin[w]
                    if (
                        (rep_w[1:] == rep_w[:-1]) & (fin_w[1:] == fin_w[:-1])
                    ).any():
                        w = np.lexsort((c_job, c_fin, c_rep))
                        rep_w = c_rep[w]
                    c_rep = rep_w
                    c_job = c_job[w]
                    if churn:
                        c_fail = c_fail[w]
                keep_pool(np.flatnonzero(~done))
                kcounts = out_counts[c_job]
                if churn:
                    # A failed completion frees no children.
                    kcounts[c_fail] = 0
                kseg = np.repeat(iota_upto(c_job.shape[0]), kcounts)
                kn = kseg.shape[0]
                kexcl = np.cumsum(kcounts) - kcounts
                koff = iota_upto(kn) - kexcl[kseg]
                kid_idx = indptr[c_job][kseg] + koff
                f_rep = f_job = f_slot = c_rep[:0]
                if kid_idx.shape[0]:
                    # Inline unique-with-counts: the decrement per child is
                    # its multiplicity among this window's fired edges.
                    kid_flat = c_rep[kseg] * n + children[kid_idx]
                    if fifo:
                        # c_job is in pop order, so the expansion
                        # enumerates this window's child edges exactly in
                        # the reference's scan order, rep-major.  A stable
                        # order keeps each child's edge positions
                        # ascending, so the end of its group is its *last*
                        # edge — the one that frees it.
                        korder = stable_order(kid_flat)
                        kid_flat = kid_flat[korder]
                    else:
                        kid_flat.sort()
                    kn = kid_flat.shape[0]
                    kfirst = np.empty(kn, dtype=bool)
                    kfirst[0] = True
                    np.not_equal(kid_flat[1:], kid_flat[:-1], out=kfirst[1:])
                    kstarts = np.flatnonzero(kfirst)
                    uniq = kid_flat[kstarts]
                    kends = np.empty(kstarts.shape[0], dtype=np.int64)
                    kends[:-1] = kstarts[1:]
                    kends[-1] = kn
                    rem = remaining[uniq] - (kends - kstarts)
                    remaining[uniq] = rem
                    fmask = rem == 0
                    freed = uniq[fmask]
                    f_rep = freed // n
                    f_job = freed - f_rep * n
                    if fifo:
                        # Insertion slot of a freed child: its freeing
                        # edge's scan position, shifted past one slot per
                        # earlier popped event (see the failure slots).
                        edge = korder[kends[fmask] - 1]
                        f_slot = edge + kseg[edge] + 1
                if churn and c_fail.any():
                    # The worker quit: the job goes back to the eligible
                    # pool and gives back its assignment.  In FIFO it is
                    # inserted at its own popped event's slot, ahead of
                    # every child a later pop frees.
                    fi = np.flatnonzero(c_fail)
                    back = np.bincount(c_rep[fi], minlength=R)
                    n_assigned -= back
                    pending -= back
                    n_failures += back
                    f_rep = np.concatenate((f_rep, c_rep[fi]))
                    f_job = np.concatenate((f_job, c_job[fi]))
                    if fifo:
                        f_slot = np.concatenate((f_slot, kexcl[fi] + fi))
                if f_rep.shape[0]:
                    if fifo:
                        # Slots grow with pop order inside each rep's
                        # (contiguous) block of the window, so sorting the
                        # insertions by slot alone yields rep-major
                        # reference insertion order.
                        o = np.argsort(f_slot)
                        f_rep = f_rep[o]
                        f_job = f_job[o]
                        seq = ins_count[f_rep] + _segment_positions(f_rep)
                        ins_count += np.bincount(f_rep, minlength=R)
                        top = int(ins_count.max())
                        if top > seq_cap:
                            while seq_cap < top:
                                seq_cap *= 2
                            old = stride
                            stride = seq_cap * n + 1
                            if R * stride >= _INT32_LIMIT:
                                edtype = np.int64
                            main = _restride(main, old, stride, edtype)
                            pend = _restride(pend, old, stride, edtype)
                        new_enc = (
                            f_rep.astype(np.int64) * stride
                            + seq * n
                            + f_job
                            + 1
                        )
                    else:
                        # The encoding is itself the (rep, rank) sort
                        # key, so insertions sort directly.
                        new_enc = np.sort(
                            f_rep.astype(np.int64) * stride
                            + rank[f_job]
                            + 1
                        )
                    f_cnt = np.bincount(f_rep, minlength=R)
                    pend = _merge_sorted(
                        pend, new_enc.astype(edtype, copy=False)
                    )
                    p_cnt = p_cnt + f_cnt
                    p_size = p_size + f_cnt
                    p_start = np.cumsum(p_size) - p_size
                    m_live = int(m_cnt.sum())
                    if pend.shape[0] > max(2048, m_live >> 1):
                        main = _merge_sorted(
                            _gather_live(main, m_start, m_head, m_cnt),
                            _gather_live(pend, p_start, p_head, p_cnt),
                        )
                        m_cnt = m_cnt + p_cnt
                        m_start = np.cumsum(m_cnt) - m_cnt
                        m_head[:] = 0
                        pend = pend[:0]
                        p_cnt[:] = 0
                        p_size[:] = 0
                        p_start[:] = 0
                        p_head[:] = 0

        # ---- batch arrival event --------------------------------------
        # Retired replications always have an empty frontier (all jobs
        # assigned, their pool entries purged), so ``avail == 0`` masks
        # them out of ``take`` with no explicit ``active`` test.  A rep
        # whose jobs are all assigned but may still fail keeps consuming
        # batches; they are not stalls.
        avail = m_cnt + p_cnt
        batches += active
        requests += b * active
        stalled += active & (avail == 0) & (n_assigned < n)
        take = np.minimum(b, avail)
        total = int(take.sum())
        if total:
            # Select the take[r] smallest keys per rep from the union of
            # the two levels.  Candidates are the per-rep prefixes of
            # each level (the union's minima are always inside them);
            # because the encoding makes rep the high bits, each level's
            # candidate gather is *globally* sorted, so the merged order
            # comes from two searchsorted rank computations instead of
            # an argsort, and winners — by construction per-rep prefixes
            # of their level, so consumption is a head bump — scatter
            # straight into their per-rep output slots.
            mc = np.minimum(take, m_cnt)
            pc = np.minimum(take, p_cnt)
            lenA = int(mc.sum())
            lenB = int(pc.sum())
            segA = np.repeat(rep_ids, mc)
            segB = np.repeat(rep_ids, pc)
            offA = iota_upto(lenA) - (np.cumsum(mc) - mc)[segA]
            offB = iota_upto(lenB) - (np.cumsum(pc) - pc)[segB]
            A = main[(m_start + m_head)[segA] + offA]
            B_idx = (p_start + p_head)[segB] + offB
            B = pend[B_idx]
            rankA = iota_upto(lenA) + np.searchsorted(B, A)
            rankB = iota_upto(lenB) + np.searchsorted(A, B)
            c_cnt = mc + pc
            c_excl = np.cumsum(c_cnt) - c_cnt
            localA = rankA - c_excl[segA]
            localB = rankB - c_excl[segB]
            winA = localA < take[segA]
            winB = localB < take[segB]
            t_excl = np.cumsum(take) - take
            enc = np.empty(total, dtype=np.int64)
            repB = segB[winB]
            enc[t_excl[segA[winA]] + localA[winA]] = A[winA]
            enc[t_excl[repB] + localB[winB]] = B[winB]
            pwin = B_idx[winB]
            pend[pwin] = repB * stride  # tombstone in place
            taken_p = np.bincount(repB, minlength=R)
            taken_m = take - taken_p
            m_head += taken_m
            m_cnt = m_cnt - taken_m
            p_head += taken_p
            p_cnt = p_cnt - taken_p
            sel_rep = np.repeat(rep_ids, take)
            within = iota_upto(total) - t_excl[sel_rep]
            key = enc - sel_rep * stride - 1
            job = key % n if fifo else job_of_rank[key]

            # ---- duration block draws --------------------------------
            # Refill the (rare) replications whose buffer cannot cover
            # this step, then extract every replication's block with one
            # flat gather; ``within`` recovers each winner's position in
            # its replication's contiguous block.
            need = np.flatnonzero(r_pos + take > r_len)
            for r in need.tolist():
                buf = runtimes[r].refill_block(int(take[r]))
                blen = buf.shape[0]
                if blen > r_width:
                    grown = np.empty((R, blen))
                    if r_width:
                        grown[:, :r_width] = r_buf2d
                    r_buf2d = grown
                    r_flat = r_buf2d.reshape(-1)
                    r_width = blen
                r_buf2d[r, :blen] = buf
                r_len[r] = blen
                r_pos[r] = 0
            dur = r_flat[(r_pos + rep_ids * r_width)[sel_rep] + within]
            r_pos += take
            if scale is not None:
                dur *= scale[job]
            nz = np.flatnonzero(take)
            t_sel = t[sel_rep]
            fin = t_sel + dur
            if churn:
                # Failure flags: one block per assigning rep, drawn after
                # its runtime refill, as the reference's assign() does.
                # The reference leaves failed finishes out of the
                # makespan; they may stay in the maximum here because the
                # job's later successful finish always exceeds them.
                failed = np.concatenate(
                    [rngs[r].random(int(take[r])) for r in nz.tolist()]
                ) < params.failure_prob
                fin = np.where(
                    failed, t_sel + dur * params.failure_time_fraction, fin
                )
                pending += np.bincount(sel_rep[failed], minlength=R)
            seg_max = np.maximum.reduceat(fin, t_excl[nz])
            makespan[nz] = np.maximum(makespan[nz], seg_max)
            end = plen + total
            if end > p_capacity:
                while p_capacity < end:
                    p_capacity *= 2
                cols = [np.empty(p_capacity, dtype=d) for d in pool_dtypes]
                for src, dst in zip(pool, cols):
                    dst[:plen] = src[:plen]
                pool = cols
                alt = [np.empty(p_capacity, dtype=d) for d in pool_dtypes]
            pool[0][plen:end] = fin
            pool[1][plen:end] = sel_rep
            pool[2][plen:end] = job
            if churn:
                pool[3][plen:end] = failed
            plen = end

            n_assigned += take
            snap = (take > 0) & (n_assigned == n)
            if snap.any():
                # Reference snapshot at the last assignment, retaken
                # whenever a failure had re-opened assignment.
                batches_at[snap] = batches[snap]
                stalled_at[snap] = stalled[snap]
                requests_at[snap] = requests[snap]
                # With nothing left that can fail, the rest of the run
                # draws nothing but arrival chunks and changes no result
                # field, so the replication retires here.
                newly = snap & (pending == 0)
                if newly.any():
                    active &= ~newly
                    if churn:
                        _drain_arrivals(
                            arrivals, newly, makespan,
                            a_times[:, -1] if a_pos < a_len else None,
                        )
                    if not active.any():
                        break
                    if plen:
                        keep_pool(np.flatnonzero(~newly[pool[1][:plen]]))
        elif not plen:
            # An active rep with nothing eligible and nothing running can
            # never progress (in a dag some unassigned job is then
            # eligible): corrupted state.  Fail instead of looping.
            raise RuntimeError("batch kernel deadlocked: no job can run")

    return [
        SimResult(
            execution_time=float(makespan[r]),
            n_jobs=n,
            batches_until_last_assignment=int(batches_at[r]),
            stalled_batches=int(stalled_at[r]),
            requests_until_last_assignment=int(requests_at[r]),
            n_failures=int(n_failures[r]),
        )
        for r in range(R)
    ]


def _drain_arrivals(arrivals, newly, makespan, chunk_last):
    """Advance retired churn replications' arrival streams to the end.

    Under churn the reference keeps peeking arrivals until its last
    completion, so its generator ends with the chunk holding the first
    batch at or after the makespan loaded.  *chunk_last* is each rep's
    loaded chunk's last arrival time, or ``None`` when the chunk is
    spent (the next peek refills whatever the makespan).
    """
    for r in np.flatnonzero(newly).tolist():
        last = -np.inf if chunk_last is None else chunk_last[r]
        while last < makespan[r]:
            last = arrivals[r].refill_block()[0][-1]
