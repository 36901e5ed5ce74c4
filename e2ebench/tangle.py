"""Seeded generator of the analyze-tangle trace.

The trace is a preload-format text trace (src/interpose/TraceFormat.h) that
dlf-analyze --predict reads. Its shape is fixed by construction; the seed only
permutes names, lock ranks, thread roles and the order in which blocks are
interleaved, so every seed gives a trace of the same length and an isomorphic
lock-dependency relation (the same closure work).

Content:

* Background: six workers run nested critical sections of depth 2..7 over a
  pool of shared locks, always acquired in one global rank order, plus a few
  private locks each. Some holds are rwlock read sides (Q/U), some acquires
  follow a failed trylock probe (P), and two workers run condvar handshakes
  (N/V). Because every thread acquires in rank order, the background adds
  chains to the closure but no cycle.
* Planted cycles, each on its own locks:
  - K real inversions between two concurrent workers (PREDICTED-SOUND);
  - G inversions under a common gate lock (UNCONFIRMED, guarded);
  - H inversions between threads ordered by join-then-fork or by a direct
    fork (UNCONFIRMED, hb-ordered).

So dlf-analyze --predict must report K + G + H cycles, K of them sound.
"""

import random

WORKERS = 6
INVERSION_WORKERS = 4  # workers 0..3 take part in planted cycles
SHARED_LOCKS = 36
RWLOCKS = 6  # the first RWLOCKS ranks are rwlocks
PRIVATE_LOCKS = 4
PATTERNS = 10  # per worker; depths cycle through 2..7
ROUNDS = 6000  # nested blocks per worker
HANDSHAKES = 300  # condvar handshakes between workers 4 and 5
K_REAL, G_GUARDED, H_ORDERED = 6, 4, 4


def _pattern_ranks(w, p, depth):
    """Shared-lock ranks (ascending) of worker w's pattern p: a fixed
    formula, so the dependency relation is the same for every seed."""
    stride = 1 + (w + p) % 3
    start = (w * 5 + p * 3) % (SHARED_LOCKS - stride * depth)
    return [start + stride * j for j in range(depth)]


def generate(seed):
    """Returns (lines, expected) for one seed. lines is a list of strings
    without newlines; expected holds the counts known from construction."""
    rng = random.Random(seed)
    next_lock = iter(range(1, 1 << 30))
    locks = []  # (lid, abs) in declaration order

    def new_lock(tag):
        lid = next(next_lock)
        locks.append((lid, "%s_%x+0x%x#1" % (tag, rng.getrandbits(24), lid)))
        return lid

    # Ids follow lock rank and worker index: the closure's work depends on
    # id order, so the seed varies names, not ids.
    shared = [new_lock("pool") for _ in range(SHARED_LOCKS)]
    is_rw = set(shared[:RWLOCKS])
    private = [[new_lock("own%d" % w) for _ in range(PRIVATE_LOCKS)]
               for w in range(WORKERS)]

    main = 1
    tids = list(range(2, 2 + WORKERS))
    head = ["# dlf tangle trace, seed %d" % seed, "T %d main#1" % main]
    for w, tid in enumerate(tids):
        head.append("T %d spawn_%x+0x40#%d"
                    % (tid, rng.getrandbits(24), w + 1))
        head.append("F %d %d" % (main, tid))

    def nested(tid, pat, probe):
        b = []
        for j, (lk, site, sh) in enumerate(pat):
            if j == 0 and probe:
                b.append("P %d %d %s" % (tid, lk, site))
            b.append("%s %d %d %s" % ("Q" if sh else "A", tid, lk, site))
        for lk, _, sh in reversed(pat):
            b.append("%s %d %d" % ("U" if sh else "R", tid, lk))
        return b

    # Per-worker nested patterns: list of (lock, site, shared?).
    pats = []
    for w in range(WORKERS):
        pats.append([])
        for p in range(PATTERNS):
            depth = 2 + p % 6
            seq = []
            for j, r in enumerate(_pattern_ranks(w, p, depth)):
                lk = shared[r]
                seq.append((lk, "w%d_p%d_%d+0x%x" % (w, p, j, 16 * j),
                            lk in is_rw and (p + j) % 2 == 0))
            # A private lock innermost keeps per-thread entries distinct.
            seq.append((private[w][p % PRIVATE_LOCKS],
                        "w%d_p%d_own+0x8" % (w, p), False))
            pats[w].append(seq)

    # Condvar handshake: worker 5 waits, worker 4 notifies.
    waiter, notifier = tids[5], tids[4]
    cv_lock = new_lock("cvmu")

    def handshake(cid):
        return ["A %d %d cv_wait+0x10" % (waiter, cv_lock),
                "R %d %d" % (waiter, cv_lock),
                "A %d %d cv_post+0x20" % (notifier, cv_lock),
                "N %d %d" % (notifier, cid),
                "R %d %d" % (notifier, cv_lock),
                "V %d %d" % (waiter, cid),
                "A %d %d cv_wait+0x30" % (waiter, cv_lock),
                "R %d %d" % (waiter, cv_lock)]

    # Warm-up: every pattern once, in a fixed order, so the dependency
    # entries (and the lock ids the closure densifies) are first seen in the
    # same order for every seed; the closure's work depends on that order.
    warmup = [ln for p in range(PATTERNS) for w in range(WORKERS)
              for ln in nested(tids[w], pats[w][p], False)]
    warmup += handshake(1)

    # Then each worker runs every pattern ROUNDS / PATTERNS times in a
    # seeded order; one block in 16 starts with a failed trylock probe.
    streams = []
    for w in range(WORKERS):
        order = [r % PATTERNS for r in range(ROUNDS)]
        rng.shuffle(order)
        streams.append([nested(tids[w], pats[w][p], r % 16 == 0)
                        for r, p in enumerate(order)])
    streams[5] += [handshake(1 + h % 3) for h in range(HANDSHAKES)]

    # Planted cycles: each gets fresh locks and unique sites.
    planted = []
    for k in range(K_REAL + G_GUARDED):
        a, b = rng.sample(range(INVERSION_WORKERS), 2)
        ta, tb = tids[a], tids[b]
        x, y = new_lock("inv%dx" % k), new_lock("inv%dy" % k)
        if k < K_REAL:
            ba = ["A %d %d real%d_a1+0x1" % (ta, x, k),
                  "A %d %d real%d_a2+0x2" % (ta, y, k),
                  "R %d %d" % (ta, y), "R %d %d" % (ta, x)]
            bb = ["A %d %d real%d_b1+0x3" % (tb, y, k),
                  "A %d %d real%d_b2+0x4" % (tb, x, k),
                  "R %d %d" % (tb, x), "R %d %d" % (tb, y)]
        else:
            g = new_lock("gate%d" % k)
            ba = ["A %d %d gate%d_a0+0x1" % (ta, g, k),
                  "A %d %d gate%d_a1+0x2" % (ta, x, k),
                  "A %d %d gate%d_a2+0x3" % (ta, y, k),
                  "R %d %d" % (ta, y), "R %d %d" % (ta, x),
                  "R %d %d" % (ta, g)]
            bb = ["A %d %d gate%d_b0+0x4" % (tb, g, k),
                  "A %d %d gate%d_b1+0x5" % (tb, y, k),
                  "A %d %d gate%d_b2+0x6" % (tb, x, k),
                  "R %d %d" % (tb, x), "R %d %d" % (tb, y),
                  "R %d %d" % (tb, g)]
        streams[a].insert(rng.randrange(len(streams[a]) + 1), ba)
        streams[b].insert(rng.randrange(len(streams[b]) + 1), bb)

    # Interleave the workers' blocks in a seeded order (blocks are atomic, so
    # no lock is ever held by two threads at once).
    body = warmup
    cursors = [0] * WORKERS
    turns = [w for w in range(WORKERS) for _ in streams[w]]
    rng.shuffle(turns)
    for w in turns:
        body.extend(streams[w][cursors[w]])
        cursors[w] += 1

    # Fork/join-ordered inversions on short-lived threads, spliced between
    # background blocks: c1 takes x then y; c2, ordered after c1, takes y
    # then x.
    next_tid = 2 + WORKERS
    for h in range(H_ORDERED):
        c1, c2 = next_tid, next_tid + 1
        next_tid += 2
        x, y = new_lock("ord%dx" % h), new_lock("ord%dy" % h)
        seg = ["T %d ordspawn%d+0x10#1" % (c1, h), "F %d %d" % (main, c1),
               "A %d %d ord%d_a1+0x1" % (c1, x, h),
               "A %d %d ord%d_a2+0x2" % (c1, y, h),
               "R %d %d" % (c1, y), "R %d %d" % (c1, x)]
        if h % 2 == 0:  # join, then fork the second thread from main
            seg += ["J %d %d" % (main, c1),
                    "T %d ordspawn%d+0x20#1" % (c2, h), "F %d %d" % (main, c2)]
        else:  # the first thread forks the second
            seg += ["T %d ordspawn%d+0x20#1" % (c2, h), "F %d %d" % (c1, c2)]
        seg += ["A %d %d ord%d_b1+0x3" % (c2, y, h),
                "A %d %d ord%d_b2+0x4" % (c2, x, h),
                "R %d %d" % (c2, x), "R %d %d" % (c2, y),
                "J %d %d" % (main, c2)]
        if h % 2 == 1:
            seg.append("J %d %d" % (main, c1))
        planted.append(seg)
    cut = sorted(rng.randrange(len(body) + 1) for _ in planted)
    for seg, pos in sorted(zip(planted, cut), key=lambda sp: -sp[1]):
        body[pos:pos] = seg

    decl = ["M %d %s" % lk for lk in locks]
    rng.shuffle(decl)
    tail = ["J %d %d" % (main, tid) for tid in tids]
    lines = head[:2] + decl + head[2:] + body + tail
    expected = {"cycles": K_REAL + G_GUARDED + H_ORDERED, "sound": K_REAL,
                "events": len(lines) - 1}
    return lines, expected


def write(path, seed):
    lines, expected = generate(seed)
    with open(path, "w") as f:
        f.write("\n".join(lines))
        f.write("\n")
    return expected

