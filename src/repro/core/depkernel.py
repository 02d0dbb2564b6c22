"""Vectorised dependence kernel — numpy batch member-merge.

The scalar tracker (:mod:`repro.core.deps`) derives TDG edges one access
at a time: per-access dict probes, member-dict merges and per-edge list
appends.  After the interval-index / struct-of-arrays / interned-region
rounds, that per-access interpreter dispatch *is* the remaining
TDG-build constant factor (ROADMAP open item 1).  This module replaces
it with numpy passes over a whole ``submit_all`` batch.

Batch layout
------------
Tasks arrive with their accesses already packed: :class:`~.task.Task`
builds ``_dep_enc`` at construction — one int ``(iid << 2) | kind_bits``
per declared access, ``iid`` being the region's dense id in the
process-global registry (:mod:`repro.core.task`), whose extents mirror
into ``array('q')`` columns the kernel views as zero-copy numpy arrays.
The batch therefore concatenates per-task encodings with one buffer
join; no python loop ever touches an individual dependence.  From the
concatenated rows the kernel derives, array-at-a-time:

* **batch region table** — ``np.unique`` over the iid column yields the
  distinct regions; first-touch order (the scalar's history-creation
  order) ranks them into dense batch ids (*kids*);
* **overlap lists** — per name, region extents sort by start; when all
  short regions are pairwise disjoint (the *fast tier*, which every
  shipped workload family hits) overlap lists follow structurally from
  windowed ``searchsorted`` long/short intersections, ordered exactly
  as the scalar's grow-as-you-go lists; otherwise (the *general tier*)
  the kernel performs the scalar's real ``_insert_history`` calls once
  per distinct region — not per access — and reads the lists back;
* **pair expansion** — each access row fans out to one *pair row* per
  overlapping history, gated by creation time (a history created at
  row ``q`` is only consulted by rows at or after ``q``, reproducing
  the scalar's append-only overlap lists);
* **per-history event streams** — a stable sort groups pair rows by
  history; running maxima locate each history's last *exact write*
  (the scalar's last-writer compaction point), and cumulative write /
  exact-read counts turn "members since that write" into contiguous
  ranges of two gather streams;
* **repeat/cumsum expansion + stable dedup** — ranges flatten into the
  predecessor gid array; first-occurrence dedup on ``(succ, pred)``
  plus self-edge removal reproduces the scalar preds dict exactly, and
  boundary differences of one cumsum yield per-task unfinished counts.

The ``CONCURRENT`` kind keeps scalar-only semantics: one vectorised
test over the kind bits aborts the batch before anything is committed,
and the scalar path re-registers from scratch.

Deferred flushes
----------------
The batch returns a :class:`BatchResult` carrying the edge arrays.  The
graph extends all manifest arrays in lockstep immediately (RL004) but
fills adjacency-row and depth *contents* lazily (:func:`fill_adjacency`,
driven by ``TaskGraph._flush_edge_batches``).  The tracker defers even
more: on the fast tier the name indexes themselves are built lazily —
:func:`flush_members` *replays* the scalar ``_insert_history`` calls in
first-touch order (recounting ``scan_probes`` and rebuilding overlap
lists, append tails and identity caches bit-identically) before writing
the member dicts back.  Every scalar-path reader of the name indexes
(``register_preds`` / ``prune_finished`` / ``live_members`` /
observability collection) flushes first, so the deferral is invisible
outside the timed ``tdg_build`` window.

Kernel selection
----------------
The input alone picks the path: :meth:`DependenceTracker.register_batch`
only attempts the kernel on a *fresh* tracker (no histories, no graph
binding, no prune, no pending flush) and an empty graph; anything else —
including the second window of a streaming run — takes the scalar path
unchanged.  Every fallback increments the tracker's ``kernel_fallbacks``
counter.  Within a batch the kernel falls back (undoing its only side
effect, the graph id map) when it meets a ``CONCURRENT`` access or a
duplicate task id; the general tier handles every other shape, including
duplicate-extent region objects and arbitrarily overlapping shorts.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections import deque
from typing import TYPE_CHECKING, Any, Dict, List, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .deps import DependenceTracker, _RegionHistory
    from .graph import TaskGraph
    from .task import Task

__all__ = ["BatchResult", "register_batch", "fill_adjacency", "flush_members"]


class BatchResult:
    """Edge arrays of one vectorised batch, consumed by the graph.

    ``pred_kept`` / ``succ_kept`` are aligned int32 arrays (one entry
    per edge, grouped by successor in registration order); ``cnt2`` is
    the per-task kept-edge count the deferred adjacency flush slices
    rows out with.
    """

    __slots__ = (
        "start", "n_tasks", "task_ids", "n_edges",
        "pred_kept", "succ_kept", "cnt2", "cnt2_list", "roots",
    )

    def __init__(
        self,
        start: int,
        n_tasks: int,
        task_ids: List[int],
        n_edges: int,
        pred_kept: Any,
        succ_kept: Any,
        cnt2: Any,
        cnt2_list: List[int],
        roots: List[int],
    ) -> None:
        self.start = start
        self.n_tasks = n_tasks
        self.task_ids = task_ids
        self.n_edges = n_edges
        self.pred_kept = pred_kept
        self.succ_kept = succ_kept
        self.cnt2 = cnt2
        self.cnt2_list = cnt2_list
        self.roots = roots


def register_batch(
    tracker: "DependenceTracker",
    tasks: List["Task"],
    graph: "TaskGraph",
) -> Optional[BatchResult]:
    """Register a whole submission batch through the numpy kernel.

    Preconditions (checked by the caller,
    :meth:`DependenceTracker.register_batch`): fresh tracker, empty
    graph.  Returns ``None`` — with the graph id map restored — when the
    batch contains a ``CONCURRENT`` access or a duplicate task id;
    nothing else is touched before those checks.
    """
    # The registry columns are append-only and never rebound, so
    # from-imports stay live across registrations.
    from .deps import _LONG_LEN
    from .task import _IID_NAMES, _IID_STARTS, _IID_STOPS, _REGION_REGISTRY

    nb = len(tasks)
    iof = graph.index_of
    tids = [t.task_id for t in tasks]
    before = len(iof)
    iof.update(zip(tids, range(nb)))
    if len(iof) != before + nb:
        # In-batch duplicate: the scalar loop raises at the exact
        # offending task with the prefix submitted, as submit() would.
        iof.clear()
        return None

    # Per-task packed accesses, re-encoded only when ``deps`` was
    # mutated after construction (or the task crossed a pickle, which
    # leaves ``_dep_enc`` None — surfacing as the TypeError below).
    # Malformed deps make ``_refresh_dep_enc`` raise: the scalar path
    # owns that error surface (and its tested mid-registration
    # rollback), so any such batch falls back instead of raising here.
    try:
        try:
            # Optimistic C-speed passes: fetch, measure, cross-check.
            # ``len(None)`` (pickled task) raises straight to the
            # rebuild comp; a stale encoding raises explicitly.
            enc_parts = [t._dep_enc for t in tasks]
            nd_l = list(map(len, enc_parts))
            if nd_l != [len(t.deps) for t in tasks]:
                raise TypeError
        except TypeError:
            enc_parts = [
                e
                if (e := t._dep_enc) is not None and len(e) == len(t.deps)
                else t._refresh_dep_enc()
                for t in tasks
            ]
            nd_l = list(map(len, enc_parts))
    except Exception:
        iof.clear()
        return None
    enc_np = np.frombuffer(b"".join(enc_parts), dtype=np.int32)
    m_rows = int(enc_np.shape[0])
    # Kind bits are 0 (IN), 1 (CONCURRENT) or 2 (writes): bit 0 of the
    # packed word is set iff the access is CONCURRENT.
    if m_rows and bool((enc_np & 1).any()):
        # Concurrent groups keep scalar-only semantics (open group
        # membership needs the member dicts live).
        iof.clear()
        return None

    # ---- commit point: no fallbacks below ----
    for gid, t in enumerate(tasks):
        t.graph = graph
        t.gid = gid
    tracker._graph = graph

    slow = 0
    n_gated = 0
    last_matches = 0
    pending: Any = None
    if m_rows:
        # Row-indexed streams are int32 throughout: row counts are
        # memory-bounded far below 2**31, and the narrower temporaries
        # both halve the kernel's bandwidth and stay under glibc's
        # 128 KiB mmap threshold (int64 batch temporaries sit right
        # above it at dense-family scale, paying a page-fault storm
        # per numpy op).
        iid_np = enc_np >> 2
        isw = (enc_np & 2).astype(bool)
        pos = np.arange(m_rows, dtype=np.int32)
        ndn = np.asarray(nd_l, dtype=np.int32)
        tid_np = np.repeat(np.arange(nb, dtype=np.int32), ndn)

        # Zero-copy views of the region registry columns.
        starts_all = np.frombuffer(_IID_STARTS, dtype=np.int64)
        stops_all = np.frombuffer(_IID_STOPS, dtype=np.int64)
        names_all = np.frombuffer(_IID_NAMES, dtype=np.int64)
        registry_n = int(starts_all.shape[0])

        # Distinct regions, ranked by first touch: the order the scalar
        # build would create their histories in.  A presence bitmap over
        # the registry beats np.unique's sort whenever the registry is
        # comparable to the batch (always, in practice — it is bounded
        # by distinct regions ever encoded).
        if registry_n <= (m_rows << 2) + 4096:
            seen = np.zeros(registry_n, dtype=bool)
            seen[iid_np] = True
            uids = np.flatnonzero(seen)
            n_uids = int(uids.shape[0])
            lut = np.empty(registry_n, dtype=np.int32)
            lut[uids] = np.arange(n_uids, dtype=np.int32)
            inv_u = lut[iid_np]
        else:  # pragma: no cover - registry vastly outgrew the batch
            uids, inv_u = np.unique(iid_np, return_inverse=True)
            n_uids = int(uids.shape[0])
            inv_u = inv_u.astype(np.int32)
        slow = n_uids
        fp = np.empty(n_uids, dtype=np.int32)
        fp[inv_u[::-1]] = pos[::-1]
        ft = np.argsort(fp, kind="stable")
        rank = np.empty(n_uids, dtype=np.int32)
        rank[ft] = np.arange(n_uids, dtype=np.int32)
        kid_np = rank[inv_u]
        qf_k = fp[ft]          # per-kid creation row, ascending
        u_ft = uids[ft]
        k_start = starts_all[u_ft]
        k_stop = stops_all[u_ft]
        k_nid = names_all[u_ft]
        longm = (k_stop - k_start) >= _LONG_LEN

        # ---- tier check: are all short regions per-name disjoint? ----
        # Sorted by (name, start), adjacent non-overlap implies pairwise
        # disjoint (and ascending stops, which the long/short window
        # queries below rely on).  Duplicate extents fail the check too
        # (equal starts overlap), pushing exact-dict dedup to the
        # general tier where the real index handles it.
        fast = True
        shorts_kids = np.flatnonzero(~longm)
        ns = int(shorts_kids.shape[0])
        if ns:
            o2 = np.lexsort((k_start[shorts_kids], k_nid[shorts_kids]))
            sk2 = shorts_kids[o2]
            sn2 = k_nid[sk2]
            ss2 = k_start[sk2]
            se2 = k_stop[sk2]
            if ns > 1 and bool(
                ((sn2[1:] == sn2[:-1]) & (ss2[1:] < se2[:-1])).any()
            ):
                fast = False
        else:
            sk2 = sn2 = ss2 = se2 = np.empty(0, dtype=np.int64)
        long_kids = np.flatnonzero(longm)
        nl = int(long_kids.shape[0])

        ov_flat: Any = None
        ov_cnt: Any = None
        kid_hists: List["_RegionHistory"] = []
        if fast and nl:
            # ---- fast tier, with long regions: structural overlap
            # lists.  Kids are first-touch ranks, so "created earlier"
            # is just a kid comparison; the scalar's list order is
            # [window shorts by start] + [earlier longs by creation] +
            # [self] + [later overlappers by creation], which the
            # (owner, tier, key) lexsort below reproduces.  Every
            # (owner, tier, key) triple is unique — shorts in a window
            # have distinct starts, kids are distinct — so the sorted
            # order does not depend on how the rows are assembled.
            lk_l: List[int] = long_kids.tolist()
            ls_l: List[int] = k_start[long_kids].tolist()
            le_l: List[int] = k_stop[long_kids].tolist()
            ln_l: List[int] = k_nid[long_kids].tolist()
            # Short window bounds per long, via list bisection (the
            # long count is small; all per-row work is vectorised).
            # Within a name block shorts are disjoint and start-sorted,
            # so their stops ascend too and both bisections are valid.
            sn_l: List[int] = sn2.tolist()
            ss_l: List[int] = ss2.tolist()
            se_l: List[int] = se2.tolist()
            lo_l: List[int] = []
            hi_l: List[int] = []
            ap_lo = lo_l.append
            ap_hi = hi_l.append
            for i2 in range(nl):
                nid = ln_l[i2]
                a = bisect_left(sn_l, nid)
                b = bisect_right(sn_l, nid, a)
                ap_lo(bisect_right(se_l, ls_l[i2], a, b))
                ap_hi(bisect_left(ss_l, le_l[i2], a, b))
            # Long-long overlaps keep a scalar loop: only names holding
            # several longs can have any, and those are rare.
            by_long_name: Dict[int, List[int]] = {}
            for i2, nid in enumerate(ln_l):
                by_long_name.setdefault(nid, []).append(i2)
            ll_owners: List[int] = []
            ll_ents: List[int] = []
            ll_tiers: List[int] = []
            ll_keys: List[int] = []
            for group in by_long_name.values():
                if len(group) < 2:
                    continue
                for i2 in group:
                    sj = ls_l[i2]
                    ej = le_l[i2]
                    lj = lk_l[i2]
                    for i3 in group:
                        if i3 == i2:
                            continue
                        ms = ls_l[i3]
                        me = le_l[i3]
                        if ms < ej and sj < me:
                            if ms == sj and me == ej:
                                # Duplicate-extent longs need exact-dict
                                # dedup: general tier.
                                fast = False
                                break
                            mk = lk_l[i3]
                            ll_owners.append(lj)
                            ll_ents.append(mk)
                            ll_tiers.append(1 if mk < lj else 3)
                            ll_keys.append(mk)
                    if not fast:
                        break
                if not fast:
                    break
            if fast:
                lo_np = np.asarray(lo_l, dtype=np.int64)
                n_os = np.asarray(hi_l, dtype=np.int64) - lo_np
                cs_os = np.cumsum(n_os)
                w_total = int(cs_os[-1])
                wnd = np.repeat(lo_np - (cs_os - n_os), n_os) + np.arange(
                    w_total, dtype=np.int64
                )
                # Kid-valued columns are int32 like every row-indexed
                # stream; only the start-valued sort key stays int64.
                shorts32 = shorts_kids.astype(np.int32)
                longs32 = long_kids.astype(np.int32)
                osk_all = sk2[wnd].astype(np.int32)  # window shorts
                own_rep = np.repeat(longs32, n_os)
                early = osk_all < own_rep
                # Segment order: [self rows] + [shorts gain the long] +
                # [the long gains its window shorts] + [long-long].
                owner_a = np.concatenate((
                    shorts32, longs32, osk_all, own_rep,
                    np.asarray(ll_owners, dtype=np.int32),
                ))
                ent_a = np.concatenate((
                    shorts32, longs32, own_rep, osk_all,
                    np.asarray(ll_ents, dtype=np.int32),
                ))
                tier_a = np.concatenate((
                    np.zeros(ns, dtype=np.int32),
                    np.full(nl, 2, dtype=np.int32),
                    np.zeros(w_total, dtype=np.int32),
                    np.where(early, np.int32(0), np.int32(3)),
                    np.asarray(ll_tiers, dtype=np.int32),
                ))
                key_a = np.concatenate((
                    shorts32.astype(np.int64),
                    np.zeros(nl, dtype=np.int64),
                    own_rep.astype(np.int64),
                    np.where(early, ss2[wnd], osk_all),
                    np.asarray(ll_keys, dtype=np.int64),
                ))
                o3 = np.lexsort((key_a, tier_a, owner_a))
                ov_flat = ent_a[o3]
                ov_cnt = np.bincount(
                    owner_a, minlength=n_uids
                ).astype(np.int32)

        if not fast:
            # ---- general tier: the scalar insertion path itself, once
            # per distinct region (never per access).  Probes, overlap
            # lists, append tails and identity caches all evolve exactly
            # as a scalar build would; exact-extent duplicates collapse
            # onto one history through the exact dict.
            from .deps import _NameIndex

            by_name = tracker._by_name
            by_name_get = by_name.get
            insert_history = tracker._insert_history
            setattr_ = object.__setattr__
            registry = _REGION_REGISTRY
            hkid_l: List[int] = []
            qf_l: List[int] = []
            qf_u: List[int] = qf_k.tolist()
            for u, iid in enumerate(u_ft.tolist()):
                region = registry[iid]
                qstart = region.start
                qstop = region.stop
                entry = by_name_get(region.name)
                if entry is None:
                    entry = by_name[region.name] = _NameIndex()
                key = (qstart, qstop)
                h = entry.exact.get(key)
                if h is None:
                    h = insert_history(entry, qstart, qstop, key)
                    h.kid = len(kid_hists)
                    kid_hists.append(h)
                    qf_l.append(qf_u[u])
                hkid_l.append(h.kid)
                setattr_(region, "_hist_owner", tracker)
                setattr_(region, "_hist", h)
            hkid = np.asarray(hkid_l, dtype=np.int32)
            kid_np = hkid[kid_np]
            n_kids = len(kid_hists)
            qf_k = np.asarray(qf_l, dtype=np.int32)
            ov_cnt = np.asarray(
                [len(h.overlaps) for h in kid_hists], dtype=np.int32
            )
            ov_arr = array("i")
            ov_extend = ov_arr.extend
            for h in kid_hists:
                ov_extend([o.kid for o in h.overlaps])
            ov_flat = np.frombuffer(ov_arr, dtype=np.int32)
        else:
            n_kids = n_uids

        if ov_flat is not None:
            # Pair expansion: one row per (access, overlapping history),
            # gated so a history is only consulted from its creation row
            # on (the overlap lists grow append-only, so the final list
            # filtered by creation time IS the list as of each row, in
            # the same order).
            ov_off = np.empty(n_kids + 1, dtype=np.int32)
            ov_off[0] = 0
            np.cumsum(ov_cnt, out=ov_off[1:])
            deg = ov_cnt[kid_np]
            cs_deg = np.cumsum(deg, dtype=np.int32)
            n_pairs = int(cs_deg[-1])
            pair_ext = np.repeat(
                ov_off[kid_np] - (cs_deg - deg), deg
            ) + np.arange(n_pairs, dtype=np.int32)
            pair_o = ov_flat[pair_ext]
            gate = qf_k[pair_o] <= np.repeat(pos, deg)
            pair_o = pair_o[gate]
            pair_task = np.repeat(tid_np, deg)[gate]
            pair_kid = np.repeat(kid_np, deg)[gate]
            n_gated = int(pair_o.shape[0])
            # Per-history event streams: group pair rows by history
            # while keeping chronological order inside each group.
            # When the bits fit, a packed quicksort with the row index
            # in the low bits replaces the stable argsort + gather.
            shiftp = n_gated.bit_length()
            if n_uids.bit_length() + shiftp <= 31:
                packedp = np.sort(
                    (pair_o.astype(np.int32, copy=False) << shiftp)
                    | np.arange(n_gated, dtype=np.int32)
                )
                so = packedp & ((1 << shiftp) - 1)
                po = packedp >> shiftp
            else:  # pragma: no cover - >2**31 packed keys
                so = np.argsort(pair_o, kind="stable")
                po = pair_o[so]
            pt = pair_task[so]
            pw = np.repeat(isw, deg)[gate][so]
            pe: Any = po == pair_kid[so]
            ew = pw & pe      # exact writes: last-writer reset points
            er = pe & ~pw     # exact reads: the readers dict
            pair_per_task = np.bincount(pair_task, minlength=nb)
            last_matches = int(
                n_gated - np.searchsorted(pair_task, nb - 1, side="left")
            )
            # pair_task is sorted by construction (rows grouped by
            # task), so the suffix count is the last task's consulted
            # histories.
        else:
            # Fast tier without longs (every shipped dense family): all
            # overlap lists are [self], so the pair rows ARE the access
            # rows, the gate is a tautology and every access is exact.
            # One packed quicksort groups rows by history (kid in the
            # high bits, row in the low bits: keys are unique, so the
            # unstable sort is stable here) and yields both the grouped
            # histories and the inverse permutation.
            shift = m_rows.bit_length()
            if n_uids.bit_length() + shift <= 31:
                packed = np.sort((kid_np << shift) | pos)
            else:  # pragma: no cover - >2**31 packed keys
                packed = np.sort((kid_np.astype(np.int64) << shift) | pos)
            so = packed & ((1 << shift) - 1)
            po = packed >> shift
            pt = tid_np[so]
            pw = isw[so]
            pe = None          # exactness is a tautology: stash the flag
            ew = pw
            er = ~pw
            pair_task = tid_np
            pair_per_task = ndn
            n_gated = m_rows
            last_matches = nd_l[-1]

        cw = np.cumsum(pw, dtype=np.int32)   # 1-based incl. write counts
        cr = np.cumsum(er, dtype=np.int32)   # 1-based incl. exact reads
        pos2 = pos if n_gated == m_rows else np.arange(n_gated, dtype=np.int32)
        ssm2 = np.empty(n_gated, dtype=bool)
        ssm2[0] = True
        np.not_equal(po[1:], po[:-1], out=ssm2[1:])
        seg_start2 = np.maximum.accumulate(np.where(ssm2, pos2, 0))
        whi = cw - pw          # writes strictly before each row
        rhi = cr - er          # exact reads strictly before each row
        gw_start = whi[seg_start2]
        gr_start = rhi[seg_start2]
        # Last exact write strictly before each row: its (1-based)
        # global write index, via a running max (write indices are
        # global and increasing, so "> gw_start" also proves it lies in
        # this group).
        if pe is None:
            # Self-only tier: every write is exact, so the last exact
            # write strictly before a row is just the last write — the
            # strict write count ``whi`` already names it.
            prior_w = whi
        else:
            aew = np.maximum.accumulate(np.where(ew, cw, 0))
            prior_w = np.empty_like(aew)
            prior_w[0] = 0
            prior_w[1:] = aew[:-1]
        aer = np.maximum.accumulate(np.where(ew, cr, 0))
        prior_r = np.empty_like(aer)
        prior_r[0] = 0
        prior_r[1:] = aer[:-1]
        valid2 = prior_w > gw_start
        # writers(o) = every write since (and including) the last exact
        # write; readers(o) = every exact read strictly after it.  Both
        # are contiguous ranges of the filtered write / exact-read
        # streams.
        wlo = np.where(valid2, prior_w - 1, gw_start)
        rlo = np.where(valid2, prior_r, gr_start)
        if pe is None:
            # Self-only tier: every write is exact, so the last write
            # before a row IS the last exact write — the writers range
            # never holds more than that single entry.
            wlen: Any = valid2
        else:
            wlen = whi - wlo
        rlen = np.where(pw, rhi - rlo, 0)

        w_tasks = pt[pw]
        r_tasks = pt[er]
        comb = np.concatenate((w_tasks, r_tasks))
        roff = np.int32(w_tasks.shape[0])

        # Back to registration order, writers-block then readers-block
        # per pair row (the scalar's per-history merge order): scatter
        # into the even/odd halves of the interleaved arrays through
        # one doubled index (contiguous-base fancy writes stay on
        # numpy's fast path, unlike scatters through strided views).
        so2 = so << 1
        starts2 = np.empty(2 * n_gated, dtype=np.int32)
        lens2 = np.empty(2 * n_gated, dtype=np.int32)
        starts2[so2] = wlo
        lens2[so2] = wlen
        so2 |= 1
        starts2[so2] = rlo + roff
        lens2[so2] = rlen
        # Per-task raw pred counts via cumsum boundary differences
        # (zero-length-segment safe, unlike reduceat).  The same
        # exclusive cumsum doubles as the repeat base: ``np.repeat``
        # skips zero counts natively, so no nonzero filter is needed.
        csl = np.empty(2 * n_gated + 1, dtype=np.int32)
        csl[0] = 0
        np.cumsum(lens2, out=csl[1:])
        total = int(csl[-1])
        flat_ext = np.repeat(starts2 - csl[:-1], lens2) + np.arange(
            total, dtype=np.int32
        )
        pred_flat = comb[flat_ext]
        tb = np.empty(nb + 1, dtype=np.int32)
        tb[0] = 0
        np.cumsum(pair_per_task * 2, out=tb[1:])
        cnt = csl[tb[1:]] - csl[tb[:-1]]
        succ_flat = np.repeat(np.arange(nb, dtype=np.int32), cnt)

        # Stable first-occurrence dedup on (succ, pred), matching the
        # scalar preds-dict insertion order, then self-edge removal.
        # When the bits fit (always, in practice), one packed quicksort
        # with the entry index in the low bits replaces the stable
        # argsort + gather.
        dkey = succ_flat * np.int64(nb) + pred_flat
        shift2 = total.bit_length()
        if (nb * nb).bit_length() + shift2 <= 62:
            packed2 = np.sort(
                (dkey << shift2) | np.arange(total, dtype=np.int64)
            )
            ksort = packed2 >> shift2
            o_d = packed2 & ((1 << shift2) - 1)
        else:  # pragma: no cover - enormous batches only
            o_d = np.argsort(dkey, kind="stable")
            ksort = dkey[o_d]
        firsts = np.empty(total, dtype=bool)
        if total:
            firsts[0] = True
            np.not_equal(ksort[1:], ksort[:-1], out=firsts[1:])
        keep = np.empty(total, dtype=bool)
        keep[o_d] = firsts
        keep &= pred_flat != succ_flat
        pred_kept = pred_flat[keep]
        succ_kept = succ_flat[keep]
        ck = np.empty(total + 1, dtype=np.int32)
        ck[0] = 0
        np.cumsum(keep, out=ck[1:])
        tb2 = np.empty(nb + 1, dtype=np.int32)
        tb2[0] = 0
        np.cumsum(cnt, out=tb2[1:])
        cnt2 = ck[tb2[1:]] - ck[tb2[:-1]]
        if fast:
            # Index construction, probe counting, member writeback and
            # identity caches all defer to the replay flush.
            pending = ("replay", u_ft, po, pt, pw, pe)
        else:
            pending = ("members", kid_hists, po, pt, pw, pe)
    else:
        pred_kept = np.empty(0, dtype=np.int32)
        succ_kept = np.empty(0, dtype=np.int32)
        cnt2 = np.zeros(nb, dtype=np.int32)

    # ---- commit: counters and the deferred member stash ----
    n_edges = int(pred_kept.shape[0])
    tracker.scan_matches += n_gated
    tracker.cache_hits += m_rows - slow
    if nb:
        tracker.last_matches = last_matches
    tracker.edges_added += n_edges
    tracker.kernel_batches += 1
    tracker.kernel_rows += m_rows
    tracker._pending = pending

    cnt2_list: List[int] = cnt2.tolist()
    roots: List[int] = np.flatnonzero(cnt2 == 0).tolist()
    return BatchResult(
        0, nb, tids, n_edges, pred_kept, succ_kept, cnt2, cnt2_list, roots,
    )


def fill_adjacency(graph: "TaskGraph", res: BatchResult) -> None:
    """Deferred flush: fill a batch's adjacency rows and depths.

    The graph already holds placeholder slots of the right *length*
    (lockstep was established at submit time); every write here is a
    slice/index assignment, never a length change.
    """
    start = res.start
    nb = res.n_tasks
    pred_kept = res.pred_kept
    flat: List[int] = pred_kept.tolist()
    offs = np.empty(nb + 1, dtype=np.int64)
    offs[0] = 0
    np.cumsum(res.cnt2, out=offs[1:])
    offs_l: List[int] = offs.tolist()
    rows: List[List[int]] = list(
        map(flat.__getitem__, map(slice, offs_l[:-1], offs_l[1:]))
    )
    graph._pred_rows[start:start + nb] = rows
    succ_rows = graph._succ_rows
    succ_rows[start:start + nb] = [[] for _ in range(nb)]
    ne = int(pred_kept.shape[0])
    if ne:
        o3 = np.argsort(pred_kept, kind="stable")
        sp = pred_kept[o3]
        ss = res.succ_kept[o3]
        bm = np.empty(ne, dtype=bool)
        bm[0] = True
        np.not_equal(sp[1:], sp[:-1], out=bm[1:])
        bnd = np.flatnonzero(bm)
        upreds: List[int] = sp[bnd].tolist()
        ssl: List[int] = ss.tolist()
        bl: List[int] = bnd.tolist()
        bl.append(ne)
        chunks = map(ssl.__getitem__, map(slice, bl[:-1], bl[1:]))
        # Grouped C-level extends: successors arrive grouped by
        # predecessor but stay in per-successor registration order
        # (the stable sort), identical to scalar append order.
        deque(
            map(list.extend, map(succ_rows.__getitem__, upreds), chunks),
            maxlen=0,
        )
    depths = graph._depth
    i = start
    for pl in rows:
        if pl:
            d = 0
            for p in pl:
                v = depths[p]
                if v >= d:
                    d = v
            depths[i] = d + 1
        i += 1


def _replay_inserts(
    tracker: "DependenceTracker", u_ft: Any
) -> List["_RegionHistory"]:
    """Build the name indexes a fast-tier batch deferred.

    Runs the scalar insertion path once per distinct region, in
    first-touch order — exactly the calls a scalar build would have
    made — so overlap lists, append tails, ``scan_probes`` and the
    region identity caches come out bit-identical.  Returns the
    histories in batch-kid order.
    """
    from .deps import _NameIndex
    from .task import _REGION_REGISTRY

    by_name = tracker._by_name
    by_name_get = by_name.get
    insert_history = tracker._insert_history
    setattr_ = object.__setattr__
    kid_hists: List["_RegionHistory"] = []
    ap = kid_hists.append
    for iid in u_ft.tolist():
        region = _REGION_REGISTRY[iid]
        qstart = region.start
        qstop = region.stop
        entry = by_name_get(region.name)
        if entry is None:
            entry = by_name[region.name] = _NameIndex()
        key = (qstart, qstop)
        h = entry.exact.get(key)
        if h is None:  # always taken: the fast tier excluded duplicates
            h = insert_history(entry, qstart, qstop, key)
        ap(h)
        setattr_(region, "_hist_owner", tracker)
        setattr_(region, "_hist", h)
    return kid_hists


def flush_members(tracker: "DependenceTracker", pending: Any) -> None:
    """Deferred flush: write the batch's member dicts back to histories.

    A ``("replay", ...)`` stash (fast tier) first rebuilds the name
    indexes via :func:`_replay_inserts`; a ``("members", ...)`` stash
    (general tier) already built them at batch time.  Either way the
    member writeback reconstructs exactly the scalar end-of-batch state
    under last-writer compaction: per history, every write since (and
    including) its last exact write — propagated writes from
    overlapping regions included — plus every exact read after it;
    earlier members were superseded.
    """
    tag = pending[0]
    if tag == "replay":
        _, u_ft, po, pt, pw, pe = pending
        kid_hists = _replay_inserts(tracker, u_ft)
    else:
        _, kid_hists, po, pt, pw, pe = pending
    graph = tracker._graph
    if graph is None:  # pragma: no cover - _pending implies a graph
        return
    n_gated = int(po.shape[0])
    if not n_gated:
        return
    gt = graph.tasks
    gt_get = gt.__getitem__
    if pe is None:  # self-only fast tier: every pair row is exact
        ew = pw
        er = ~pw
    else:
        ew = pw & pe
        er = pe & ~pw
    cw_l: List[int] = np.cumsum(pw).tolist()
    cr_l: List[int] = np.cumsum(er).tolist()
    pw_l: List[bool] = pw.tolist()
    er_l: List[bool] = er.tolist()
    ssm2 = np.empty(n_gated, dtype=bool)
    ssm2[0] = True
    np.not_equal(po[1:], po[:-1], out=ssm2[1:])
    gs_idx = np.flatnonzero(ssm2)
    # Last exact write per group, as a 1-based row index (0 = none);
    # groups are non-empty (every history has its creation row), so
    # reduceat is safe here.
    lastew_l: List[int] = np.maximum.reduceat(
        np.where(ew, np.arange(1, n_gated + 1, dtype=np.int64), 0), gs_idx
    ).tolist()
    kid_of_group: List[int] = po[gs_idx].tolist()
    gs_l: List[int] = gs_idx.tolist()
    gs_l.append(n_gated)
    w_list: List[int] = pt[pw].tolist()
    r_list: List[int] = pt[er].tolist()
    for j, k in enumerate(kid_of_group):
        gs = gs_l[j]
        ge = gs_l[j + 1]
        le = lastew_l[j] - 1
        if le >= gs:
            ws = cw_l[le] - 1
            rs = cr_l[le]
        else:
            ws = cw_l[gs] - pw_l[gs]
            rs = cr_l[gs] - er_l[gs]
        h = kid_hists[k]
        wslice = w_list[ws:cw_l[ge - 1]]
        if wslice:
            h.writers = dict(zip(wslice, map(gt_get, wslice)))
        rslice = r_list[rs:cr_l[ge - 1]]
        if rslice:
            h.readers = dict(zip(rslice, map(gt_get, rslice)))
