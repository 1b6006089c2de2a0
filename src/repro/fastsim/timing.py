"""FastTimingSim: batched-event restructuring of the cycle model.

Cycle-for-cycle equivalent to :class:`repro.sim.pipeline.TimingSim`
(default configuration: ``model_wrong_path=False``), fed by
the batch stream of :meth:`FastFunctionalSim.batches` instead of one
``TraceEntry`` object per dynamic instruction.

What makes it fast while staying exact:

* **Dense entries.**  In-flight instructions are 12-slot lists (complete,
  pc, annulled, addr, unit-id, rename-class, pending-dep count, ready-at
  cycle, waiter list, def-id, age, queue-id) built from the decode-once
  tables — no ``Instruction`` inspection, no string keys, in the
  per-cycle loop.
* **Event-bucket issue.**  The reference re-scans every queued entry
  each cycle (``_Entry.ready``).  Here an entry is filed, exactly once,
  under the cycle it becomes issuable: at dispatch if its producers are
  done, else the moment its last producer issues (which fixes the max
  completion cycle).  Each cycle pops its bucket, orders candidates by
  age — per-queue age order is what the reference scan sees, and every
  functional unit is fed by exactly one queue, so global age order
  decides identically — and applies unit caps; cap-blocked entries carry
  over and retry like a re-scan would.  No entry is visited while it
  waits on a dependence.
* **Span skipping.**  Whenever fetch is gated (mispredict recovery,
  fence drain, icache refill) or the trace is exhausted, nothing happens
  between events: the loop jumps straight to the next one — gate
  reopening, bucket cycle, or head-of-ROB completion — bulk-adding the
  per-cycle stall and queue-full counters for the skipped span.
  Mispredict-heavy schemes spend most of their cycles in these gaps.

The branch predictor and the I/D cache models are the *real* objects
from ``repro.sim`` — their stats land in ``SimStats`` byte-identical by
construction.  (Within one cycle every data-cache access comes from the
load/store queue, so age ordering preserves the reference's access
order and therefore LRU state.)  Wrong-path modeling is not supported
here: the wrong-path ablation drives the reference ``TimingSim`` itself.
An observed run samples the batch stream on its way in
(:class:`repro.obs.pipeline_obs.PipelineObserver`).
"""

from __future__ import annotations

from collections import deque
from operator import itemgetter
from typing import Iterable, Optional

from ..sim.branch_pred import make_predictor
from ..sim.cache import Cache
from ..sim.config import MachineConfig, R10K
from ..sim.functional import UnmodeledOpcode
from ..sim.stats import SimStats
from .decode import QUEUE_NAMES, UNIT_NAMES, DecodedProgram

# _Entry slots (plain lists; attribute access is too slow here):
# [0] complete cycle (None until issued)     [6] pending producer count
# [1] pc                                     [7] ready-at cycle
# [2] annulled                               [8] waiter list (lazy)
# [3] dcache address (-1 none)               [9] def reg id (-1 none)
# [4] unit id 0..6                           [10] age (dispatch order)
# [5] rename class 0/1/2                     [11] queue id 0..3

_AGE = itemgetter(10)

#: Sentinel "no bound" cycle for the span-skip jump target.
_NEVER = 1 << 62


class FastTimingSim:
    """Cycle-accurate replay of a batched trace over decoded tables."""

    def __init__(self, config: MachineConfig = R10K,
                 decoded: Optional[DecodedProgram] = None):
        self.cfg = config
        self.decoded = decoded
        self.stats = SimStats()
        self.predictor = make_predictor(
            config.predictor, config.bht_entries, config.btb_entries)
        self.stats.predictor = self.predictor.stats
        self.icache = Cache(config.icache_size, config.cache_line,
                            config.cache_assoc, "icache")
        self.dcache = Cache(config.dcache_size, config.cache_line,
                            config.cache_assoc, "dcache")
        self.stats.icache = self.icache.stats
        self.stats.dcache = self.dcache.stats
        for q in QUEUE_NAMES:
            self.stats.queue_full_cycles[q] = 0
        for u in UNIT_NAMES:
            self.stats.unit_full_cycles[u] = 0
            self.stats.unit_issues[u] = 0

    def run(self, batches: Iterable[tuple],
            decoded: Optional[DecodedProgram] = None) -> SimStats:
        """Replay *batches* ((idxs, brs, mems, anns) tuples) to completion."""
        dec = decoded if decoded is not None else self.decoded
        if dec is None:
            raise ValueError("FastTimingSim needs a DecodedProgram")
        cfg = self.cfg
        lats, dmeta = dec.timing_meta(cfg)
        ops = dec.ops
        instrs = dec.instrs

        CW = cfg.commit_width
        DW = cfg.dispatch_width
        ROB_SIZE = cfg.rob_size
        QCAP = (cfg.int_queue_size, cfg.addr_queue_size,
                cfg.fp_queue_size, cfg.branch_buffer_size)
        UCAP = (cfg.num_alus, cfg.num_shifters, cfg.num_mem_units,
                cfg.num_branch_units, cfg.num_fpadd, cfg.num_fpmul,
                cfg.num_fpdiv)
        RECOV = cfg.misprediction_recovery
        FSTALL = cfg.fence_stall
        MISS = cfg.latencies.cache_miss_penalty

        # The LRU cache lookups are inlined (a method call per access is
        # a measurable share of the loop); hit/miss totals are written
        # back to the real Cache objects' stats at the end.  Set state
        # mirrors cache.Cache.access exactly: hit -> move-to-back,
        # miss -> append + evict front past the associativity.
        line_shift = cfg.cache_line.bit_length() - 1
        isets = self.icache._sets
        dsets = self.dcache._sets
        iset_mask = len(isets) - 1
        dset_mask = len(dsets) - 1
        itag_shift = iset_mask.bit_length()
        dtag_shift = dset_mask.bit_length()
        ASSOC = cfg.cache_assoc
        i_acc = i_miss = d_acc = d_miss = 0
        predictor = self.predictor
        pred_access = predictor.access
        pstats = predictor.stats

        rob: deque = deque()
        rob_append = rob.append
        rob_popleft = rob.popleft
        #: issue events: cycle -> entries whose deps are resolved by then
        bucket: dict = {}
        bucket_get = bucket.get
        bucket_pop = bucket.pop
        #: cap/fpdiv-blocked candidates retrying next cycle (age order)
        carry: list = []
        qlen = [0, 0, 0, 0]
        producer: list = [None] * 72
        free_int = cfg.phys_int_regs - cfg.arch_int_regs
        free_fp = cfg.phys_fp_regs - cfg.arch_fp_regs
        fpdiv_busy = 0
        redirect = None
        fence = None
        fetch_resume = 0
        cur_line = -1
        cycle = 0

        committed = 0
        annulled_n = 0
        fetch_stall = 0
        icache_stall = 0
        mispredicts = 0
        indirect = 0
        fence_stall_c = 0
        fence_ev = 0
        qfull = [0, 0, 0, 0]
        ufull = [0] * 7
        uissues = [0] * 7

        gen = iter(batches)
        idxs: tuple = ()
        brs: tuple = ()
        mems: tuple = ()
        anns: tuple = ()
        nidx = 0
        di = bi = mi = ai = 0
        next_ann = -1
        step_no = 0
        exhausted = False

        def refill():
            # Mirrors the reference's eager ``pending = next(it, None)``:
            # functional-side exceptions surface here and propagate.
            nonlocal idxs, brs, mems, anns, nidx, di, bi, mi, ai, \
                next_ann, exhausted
            while True:
                try:
                    b = next(gen)
                except StopIteration:
                    exhausted = True
                    return False
                if b[0]:
                    idxs, brs, mems, anns = b
                    nidx = len(idxs)
                    di = bi = mi = ai = 0
                    next_ann = anns[0] if anns else -1
                    return True

        refill()

        while not exhausted or rob:
            # -- span skip ------------------------------------------------------
            if (exhausted or redirect is not None or fence is not None
                    or cycle < fetch_resume) and not carry:
                # Fetch is inactive: until the gate reopens or an issue
                # bucket comes due, each cycle is just a commit wave
                # plus fixed stall counters.  Commits can be retired
                # through the whole span at reference pacing (≤ CW per
                # cycle, head order) — they wake nobody and dispatch is
                # gated, so freed rename registers go unobserved.
                # Attribute the skipped cycles to whichever gate the
                # reference's elif chain would have blamed.  (Gate state
                # cannot change mid-span: redirect/fence are set at
                # dispatch, and their completion times are fixed at
                # issue — an unissued gate entry sits in a bucket, which
                # bounds the jump.)
                if redirect is not None:
                    c0 = redirect[0]
                    t = c0 + RECOV if c0 is not None else _NEVER
                    mode = 1
                elif fence is not None:
                    c0 = fence[0]
                    t = c0 + FSTALL if c0 is not None else _NEVER
                    mode = 2
                elif cycle < fetch_resume:
                    t = fetch_resume
                    mode = 3
                else:
                    t = _NEVER          # pure drain: bound by events only
                    mode = 0
                if bucket:
                    mb = min(bucket)
                    if mb < t:
                        t = mb
                if t > cycle:
                    cur = cycle
                    while rob and cur < t:
                        c0 = rob[0][0]
                        if c0 is None:      # unissued head: no commits
                            break
                        if c0 > cur:
                            if c0 >= t:
                                break
                            cur = c0
                        k = 0
                        while rob and k < CW:
                            e = rob[0]
                            c0 = e[0]
                            if c0 is None or c0 > cur:
                                break
                            rob_popleft()
                            k += 1
                            if e[2]:
                                annulled_n += 1
                            else:
                                committed += 1
                            rn = e[5]
                            if rn == 1:
                                free_int += 1
                            elif rn == 2:
                                free_fp += 1
                            d = e[9]
                            if d >= 0 and producer[d] is e:
                                producer[d] = None
                        cur += 1
                    if t == _NEVER:
                        # pure drain with no issue events left: the ROB
                        # is fully issued and has just been emptied; the
                        # wave loop's final ``cur`` is the exit cycle.
                        cycle = cur
                        continue
                    span = t - cycle
                    if mode == 1:
                        fetch_stall += span
                    elif mode == 2:
                        fence_stall_c += span
                        fetch_stall += span
                    elif mode == 3:
                        icache_stall += span
                        fetch_stall += span
                    if qlen[0] >= QCAP[0]:
                        qfull[0] += span
                    if qlen[1] >= QCAP[1]:
                        qfull[1] += span
                    if qlen[2] >= QCAP[2]:
                        qfull[2] += span
                    if qlen[3] >= QCAP[3]:
                        qfull[3] += span
                    cycle = t

            # -- 1. commit ------------------------------------------------------
            k = 0
            while rob and k < CW:
                e = rob[0]
                c0 = e[0]
                if c0 is None or c0 > cycle:
                    break
                rob_popleft()
                k += 1
                if e[2]:
                    annulled_n += 1
                else:
                    committed += 1
                rn = e[5]
                if rn == 1:
                    free_int += 1
                elif rn == 2:
                    free_fp += 1
                d = e[9]
                if d >= 0 and producer[d] is e:
                    producer[d] = None

            # -- 2. issue -------------------------------------------------------
            cand = bucket_pop(cycle, None)
            if cand is not None or carry:
                if cand is None:
                    cand = carry
                    carry = []
                elif carry:
                    carry.extend(cand)
                    cand = carry
                    carry = []
                    cand.sort(key=_AGE)
                elif len(cand) > 1:
                    cand.sort(key=_AGE)
                iss = [0, 0, 0, 0, 0, 0, 0]
                for e in cand:
                    u = e[4]
                    if iss[u] >= UCAP[u] or (u == 6 and cycle < fpdiv_busy):
                        carry.append(e)
                        continue
                    iss[u] += 1
                    uissues[u] += 1
                    if e[2]:
                        lat = 1
                    else:
                        lat = lats[e[1]]
                        a = e[3]
                        if a >= 0:
                            d_acc += 1
                            blk = a >> line_shift
                            s = dsets[blk & dset_mask]
                            tag = blk >> dtag_shift
                            if tag in s:
                                s.remove(tag)
                                s.append(tag)
                            else:
                                d_miss += 1
                                s.append(tag)
                                if len(s) > ASSOC:
                                    s.pop(0)
                                lat += MISS
                    if u == 6:
                        fpdiv_busy = cycle + lat
                    c2 = cycle + lat
                    e[0] = c2
                    qlen[e[11]] -= 1
                    w = e[8]
                    if w:
                        for x in w:
                            x[6] -= 1
                            if c2 > x[7]:
                                x[7] = c2
                            if not x[6]:
                                k2 = x[7]
                                if k2 <= cycle:
                                    k2 = cycle + 1
                                b = bucket_get(k2)
                                if b is None:
                                    bucket[k2] = [x]
                                else:
                                    b.append(x)
                    e[8] = None
                for u in range(7):
                    n_ = iss[u]
                    if n_ and n_ >= UCAP[u]:
                        ufull[u] += 1

            # -- 3. dispatch ----------------------------------------------------
            open_ = True
            if redirect is not None:
                c0 = redirect[0]
                if c0 is None or cycle < c0 + RECOV:
                    fetch_stall += 1
                    open_ = False
                else:
                    redirect = None
                    cur_line = -1
            if open_ and fence is not None:
                c0 = fence[0]
                if c0 is None or cycle < c0 + FSTALL:
                    fence_stall_c += 1
                    fetch_stall += 1
                    open_ = False
                else:
                    fence = None
            if open_ and cycle < fetch_resume:
                icache_stall += 1
                fetch_stall += 1
                open_ = False
            if open_:
                for _ in range(DW):
                    if di >= nidx and (exhausted or not refill()):
                        break
                    pc = idxs[di]
                    fl, line, qi, rn, un, dfid, uses = dmeta[pc]
                    if line != cur_line:
                        # ``line`` is (pc*4) >> line_shift, i.e. the block
                        cur_line = line
                        i_acc += 1
                        s = isets[line & iset_mask]
                        tag = line >> itag_shift
                        if tag in s:
                            s.remove(tag)
                            s.append(tag)
                        else:
                            i_miss += 1
                            s.append(tag)
                            if len(s) > ASSOC:
                                s.pop(0)
                            fetch_resume = cycle + MISS
                            break
                    if fl & 128:           # F_UNMODELED
                        raise UnmodeledOpcode(
                            f"opcode {ops[pc]!r} reached the timing "
                            f"simulator but has no modeled functional "
                            f"unit", pc=pc)
                    if len(rob) >= ROB_SIZE:
                        break
                    if qlen[qi] >= QCAP[qi]:
                        break
                    if rn == 1:
                        if free_int <= 0:
                            break
                    elif rn == 2:
                        if free_fp <= 0:
                            break
                    if step_no == next_ann:
                        ann = True
                        ai += 1
                        next_ann = anns[ai] if ai < len(anns) else -1
                        addr = -1
                    else:
                        ann = False
                        if fl & 32:        # F_MEM
                            addr = mems[mi]
                            mi += 1
                        else:
                            addr = -1
                    e = [None, pc, ann, addr, un, rn, 0, 0, None, dfid,
                         step_no, qi]
                    if rn == 1:
                        free_int -= 1
                    elif rn == 2:
                        free_fp -= 1
                    pend = 0
                    rdy = 0
                    for rid in uses:
                        p = producer[rid]
                        if p is not None:
                            pc0 = p[0]
                            if pc0 is None:
                                pend += 1
                                w = p[8]
                                if w is None:
                                    p[8] = [e]
                                else:
                                    w.append(e)
                            elif pc0 > rdy and pc0 > cycle:
                                rdy = pc0
                    if fl & 16 and not ann:    # F_FENCE: wait on in-flight
                        for x in rob:
                            xc = x[0]
                            if xc is None:
                                pend += 1
                                w = x[8]
                                if w is None:
                                    x[8] = [e]
                                else:
                                    w.append(e)
                            elif xc > rdy and xc > cycle:
                                rdy = xc
                    e[6] = pend
                    e[7] = rdy
                    if not pend:
                        key = rdy if rdy > cycle else cycle + 1
                        b = bucket_get(key)
                        if b is None:
                            bucket[key] = [e]
                        else:
                            b.append(e)
                    if not ann and dfid >= 0:
                        producer[dfid] = e
                    qlen[qi] += 1
                    rob_append(e)
                    stall = False
                    if fl & 16 and not ann:
                        fence_ev += 1
                        fence = e
                        stall = True
                    elif fl & 1 and not ann:   # F_BRANCH
                        tk = bool(brs[bi])
                        bi += 1
                        if not pred_access(pc, instrs[pc], tk, target=pc):
                            mispredicts += 1
                            redirect = e
                            stall = True
                    elif fl & 8:               # F_JRJALR (even annulled)
                        if not predictor.indirect_resolves_in_fetch():
                            indirect += 1
                            pstats.indirect_stalls += 1
                            redirect = e
                            stall = True
                    step_no += 1
                    di += 1
                    if di >= nidx and not exhausted:
                        refill()
                    if stall:
                        break

            # -- 4. occupancy ---------------------------------------------------
            if qlen[0] >= QCAP[0]:
                qfull[0] += 1
            if qlen[1] >= QCAP[1]:
                qfull[1] += 1
            if qlen[2] >= QCAP[2]:
                qfull[2] += 1
            if qlen[3] >= QCAP[3]:
                qfull[3] += 1
            cycle += 1
            if cycle > 10_000_000_000:  # pragma: no cover
                raise RuntimeError("timing simulation did not converge")

        ist = self.icache.stats
        ist.accesses += i_acc
        ist.misses += i_miss
        dst = self.dcache.stats
        dst.accesses += d_acc
        dst.misses += d_miss
        st = self.stats
        st.cycles = cycle
        st.committed = committed
        st.annulled = annulled_n
        st.dispatched = committed + annulled_n
        st.fetch_stall_cycles = fetch_stall
        st.icache_stall_cycles = icache_stall
        st.mispredict_events = mispredicts
        st.indirect_stall_events = indirect
        st.fence_stall_cycles = fence_stall_c
        st.fence_events = fence_ev
        for i, name in enumerate(QUEUE_NAMES):
            st.queue_full_cycles[name] = qfull[i]
        for i, name in enumerate(UNIT_NAMES):
            st.unit_full_cycles[name] = ufull[i]
            st.unit_issues[name] = uissues[i]
        return st
