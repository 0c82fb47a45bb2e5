//! A PGAS (partitioned global address space) layer — the paper's second
//! supported programming model (§IV.A: "TCCluster is compatible with PGAS
//! implementations like UPC over GASNet").
//!
//! A [`GlobalArray`] of `f64` is block-distributed across ranks. Remote
//! `put` maps directly onto TCCluster's strength — a remote store. Remote
//! `get` cannot be a remote *load* (the interconnect routes no responses),
//! so it is two-sided under the hood: a request message to the owner, who
//! replies with the value — exactly how GASNet cores implement gets over
//! put-only transports. A progress engine services incoming requests while
//! waiting, so concurrent gets between ranks cannot deadlock.

use tccluster::NodeCtx;

const OP_PUT: u8 = 1;
const OP_GET: u8 = 2;
const OP_REPLY: u8 = 3;
const OP_ACC: u8 = 4;
const OP_PUT_SLICE: u8 = 5;
const OP_FENCE: u8 = 6;

/// A block-distributed global array of `f64`.
pub struct GlobalArray {
    /// Global length.
    len: usize,
    /// This rank's block.
    local: Vec<f64>,
    /// Block size (all ranks but possibly the last hold exactly this).
    block: usize,
    rank: usize,
    n: usize,
    next_token: u64,
    /// Fence markers received from each peer (cumulative per peer).
    fence_seen: Vec<u64>,
    /// Completed fence epochs.
    fence_epoch: u64,
}

impl GlobalArray {
    /// Create the array collectively (every rank calls with the same
    /// `len`); contents start at zero.
    pub fn new(ctx: &NodeCtx, len: usize) -> Self {
        let n = ctx.n;
        let block = len.div_ceil(n);
        let mine = len.saturating_sub(ctx.rank * block).min(block);
        GlobalArray {
            len,
            local: vec![0.0; mine],
            block,
            rank: ctx.rank,
            n,
            next_token: 1,
            fence_seen: vec![0; n],
            fence_epoch: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Which rank owns global index `i`.
    pub fn owner(&self, i: usize) -> usize {
        assert!(i < self.len, "index {i} out of bounds {}", self.len);
        let o = i / self.block;
        debug_assert!(o < self.n);
        o
    }

    /// Local offset of global index `i` (must be owned by some rank).
    fn offset(&self, i: usize) -> usize {
        i % self.block
    }

    /// The indices this rank owns, as a range.
    pub fn local_range(&self) -> std::ops::Range<usize> {
        let start = self.rank * self.block;
        start..(start + self.local.len())
    }

    /// Direct access to the local block.
    pub fn local(&self) -> &[f64] {
        &self.local
    }

    /// Relaxed put: returns immediately after issuing the remote store.
    pub fn put(&mut self, ctx: &mut NodeCtx, i: usize, value: f64) {
        let o = self.owner(i);
        if o == self.rank {
            let off = self.offset(i);
            self.local[off] = value;
            return;
        }
        let mut msg = vec![OP_PUT];
        msg.extend_from_slice(&(self.offset(i) as u64).to_le_bytes());
        msg.extend_from_slice(&value.to_le_bytes());
        ctx.send(o, &msg);
    }

    /// Remote accumulate (`+=`) — shows one-sided ops beyond plain put.
    pub fn accumulate(&mut self, ctx: &mut NodeCtx, i: usize, delta: f64) {
        let o = self.owner(i);
        if o == self.rank {
            let off = self.offset(i);
            self.local[off] += delta;
            return;
        }
        let mut msg = vec![OP_ACC];
        msg.extend_from_slice(&(self.offset(i) as u64).to_le_bytes());
        msg.extend_from_slice(&delta.to_le_bytes());
        ctx.send(o, &msg);
    }

    /// Blocking get. Services incoming requests while waiting (progress),
    /// so symmetric gets across ranks cannot deadlock.
    pub fn get(&mut self, ctx: &mut NodeCtx, i: usize) -> f64 {
        let o = self.owner(i);
        if o == self.rank {
            return self.local[self.offset(i)];
        }
        let token = self.next_token;
        self.next_token += 1;
        let mut msg = vec![OP_GET];
        msg.extend_from_slice(&(self.offset(i) as u64).to_le_bytes());
        msg.extend_from_slice(&token.to_le_bytes());
        ctx.send(o, &msg);
        let mut backoff = tcc_msglib::window::Backoff::new();
        loop {
            if let Some((src, m)) = ctx.try_recv_any() {
                if let Some(v) = self.dispatch(ctx, src, m, Some((o, token))) {
                    return v;
                }
                backoff.reset();
            } else {
                backoff.snooze();
            }
        }
    }

    /// Bulk put: store a contiguous span of values starting at global
    /// index `start`, splitting at ownership boundaries.
    pub fn put_slice(&mut self, ctx: &mut NodeCtx, start: usize, values: &[f64]) {
        let mut i = start;
        let mut vals = values;
        while !vals.is_empty() {
            let o = self.owner(i);
            // How many consecutive indices share this owner?
            let block_end = (o + 1) * self.block;
            let n = vals.len().min(block_end - i);
            if o == self.rank {
                let off = self.offset(i);
                self.local[off..off + n].copy_from_slice(&vals[..n]);
            } else {
                // One message per owner-run: opcode PUT_SLICE.
                let mut msg = vec![OP_PUT_SLICE];
                msg.extend_from_slice(&(self.offset(i) as u64).to_le_bytes());
                for v in &vals[..n] {
                    msg.extend_from_slice(&v.to_le_bytes());
                }
                ctx.send(o, &msg);
            }
            i += n;
            vals = &vals[n..];
        }
    }

    /// Bulk get: read `len` values starting at global index `start`.
    /// Local spans are copied directly; remote spans are fetched one
    /// owner-run at a time (two-sided underneath, like `get`).
    pub fn get_slice(&mut self, ctx: &mut NodeCtx, start: usize, len: usize) -> Vec<f64> {
        let mut out = Vec::with_capacity(len);
        let mut i = start;
        while out.len() < len {
            let o = self.owner(i);
            let block_end = (o + 1) * self.block;
            let n = (len - out.len()).min(block_end - i);
            if o == self.rank {
                let off = self.offset(i);
                out.extend_from_slice(&self.local[off..off + n]);
            } else {
                for k in 0..n {
                    out.push(self.get(ctx, i + k));
                }
            }
            i += n;
        }
        out
    }

    /// `upc_forall`-style iteration: apply `f` to every (global index,
    /// &mut value) this rank owns — affinity-based work distribution.
    pub fn for_each_local(&mut self, mut f: impl FnMut(usize, &mut f64)) {
        let start = self.rank * self.block;
        for (k, v) in self.local.iter_mut().enumerate() {
            f(start + k, v);
        }
    }

    /// Drain pending one-sided traffic (call in idle loops and before
    /// synchronisation).
    pub fn progress(&mut self, ctx: &mut NodeCtx) {
        while let Some((src, m)) = ctx.try_recv_any() {
            let r = self.dispatch(ctx, src, m, None);
            debug_assert!(r.is_none(), "unexpected get reply in progress()");
        }
    }

    /// The PGAS "strict" synchronisation point: after `fence` returns on
    /// every rank, every put/accumulate issued before the fence is
    /// globally applied.
    ///
    /// Implemented as a marker-based quiesce, **not** a blocking barrier:
    /// each rank sends a FENCE marker down every channel and then keeps
    /// *servicing* incoming one-sided traffic until it has collected the
    /// markers of all peers. In-order channel delivery guarantees every
    /// pre-fence operation is applied before the sender's marker is seen.
    /// A blocking barrier here would deadlock: a rank parked in the
    /// barrier stops answering GET requests other ranks are blocked on.
    /// GETs consumed during the drain are pre-fence by construction (they
    /// precede their sender's marker in order) and are answered
    /// immediately; post-fence GETs sit *behind* the marker and are never
    /// touched by the drain, so they always observe the fenced state.
    pub fn fence(&mut self, ctx: &mut NodeCtx) {
        for p in 0..self.n {
            if p != self.rank {
                ctx.send(p, &[OP_FENCE]);
            }
        }
        self.fence_epoch += 1;
        // Drain each peer's channel up to (and including) its marker for
        // this epoch — and no further: bytes past the marker belong to
        // the next epoch (or to another layer, e.g. an MPI phase that
        // starts right after the fence on a faster rank).
        let mut backoff = tcc_msglib::window::Backoff::new();
        loop {
            let mut all_in = true;
            for p in 0..self.n {
                if p == self.rank || self.fence_seen[p] >= self.fence_epoch {
                    continue;
                }
                all_in = false;
                if let Some(m) = ctx.try_recv(p) {
                    let r = self.dispatch(ctx, p, m, None);
                    debug_assert!(r.is_none(), "unexpected get reply during fence");
                    backoff.reset();
                }
            }
            if all_in {
                break;
            }
            backoff.snooze();
        }
    }

    fn reply_get(&mut self, ctx: &mut NodeCtx, src: usize, off: usize, token: u64) {
        let mut reply = vec![OP_REPLY];
        reply.extend_from_slice(&token.to_le_bytes());
        reply.extend_from_slice(&self.local[off].to_le_bytes());
        ctx.send(src, &reply);
    }

    fn dispatch(
        &mut self,
        ctx: &mut NodeCtx,
        src: usize,
        m: Vec<u8>,
        waiting: Option<(usize, u64)>,
    ) -> Option<f64> {
        match m[0] {
            OP_PUT => {
                let off = u64::from_le_bytes(m[1..9].try_into().expect("8B")) as usize;
                let v = f64::from_le_bytes(m[9..17].try_into().expect("8B"));
                self.local[off] = v;
                None
            }
            OP_ACC => {
                let off = u64::from_le_bytes(m[1..9].try_into().expect("8B")) as usize;
                let v = f64::from_le_bytes(m[9..17].try_into().expect("8B"));
                self.local[off] += v;
                None
            }
            OP_PUT_SLICE => {
                let off = u64::from_le_bytes(m[1..9].try_into().expect("8B")) as usize;
                for (k, c) in m[9..].chunks_exact(8).enumerate() {
                    self.local[off + k] = f64::from_le_bytes(c.try_into().expect("8B"));
                }
                None
            }
            OP_GET => {
                let off = u64::from_le_bytes(m[1..9].try_into().expect("8B")) as usize;
                let token = u64::from_le_bytes(m[9..17].try_into().expect("8B"));
                self.reply_get(ctx, src, off, token);
                None
            }
            OP_FENCE => {
                self.fence_seen[src] += 1;
                None
            }
            OP_REPLY => {
                let token = u64::from_le_bytes(m[1..9].try_into().expect("8B"));
                let v = f64::from_le_bytes(m[9..17].try_into().expect("8B"));
                match waiting {
                    Some((owner, want)) if owner == src && want == token => Some(v),
                    _ => panic!("orphan get reply (token {token} from {src})"),
                }
            }
            other => panic!("corrupt PGAS opcode {other}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcc_msglib::SendMode;
    use tccluster::ShmCluster;

    fn run<T: Send + 'static>(
        n: usize,
        f: impl Fn(&mut NodeCtx) -> T + Send + Sync + 'static,
    ) -> Vec<T> {
        ShmCluster::new(n, SendMode::WeaklyOrdered).run(f)
    }

    #[test]
    fn ownership_layout() {
        let results = run(4, |ctx| {
            let ga = GlobalArray::new(ctx, 10);
            // block = 3: ranks own [0..3), [3..6), [6..9), [9..10).
            assert_eq!(ga.owner(0), 0);
            assert_eq!(ga.owner(5), 1);
            assert_eq!(ga.owner(9), 3);
            ga.local_range().len()
        });
        assert_eq!(results, vec![3, 3, 3, 1]);
    }

    #[test]
    fn put_then_fence_then_get() {
        let results = run(3, |ctx| {
            let mut ga = GlobalArray::new(ctx, 12);
            // Every rank writes the slots congruent to its rank.
            let me = ctx.rank;
            for i in (me..12).step_by(3) {
                ga.put(ctx, i, (i * 10) as f64);
            }
            ga.fence(ctx);
            // Every rank reads everything.
            let mut sum = 0.0;
            for i in 0..12 {
                sum += ga.get(ctx, i);
            }
            ga.fence(ctx);
            sum
        });
        let expect: f64 = (0..12).map(|i| (i * 10) as f64).sum();
        assert_eq!(results, vec![expect; 3]);
    }

    #[test]
    fn symmetric_gets_do_not_deadlock() {
        let results = run(2, |ctx| {
            let mut ga = GlobalArray::new(ctx, 2);
            let me = ctx.rank;
            ga.put(ctx, me, me as f64 + 1.0);
            ga.fence(ctx);
            // Both ranks simultaneously get from each other.
            let other = ga.get(ctx, 1 - me);
            ga.fence(ctx);
            other
        });
        assert_eq!(results, vec![2.0, 1.0]);
    }

    #[test]
    fn accumulate_sums_remote_contributions() {
        const N: usize = 4;
        let results = run(N, |ctx| {
            let mut ga = GlobalArray::new(ctx, 1);
            ga.accumulate(ctx, 0, (ctx.rank + 1) as f64);
            ga.fence(ctx);
            let v = ga.get(ctx, 0);
            ga.fence(ctx);
            v
        });
        let expect = (1..=N).sum::<usize>() as f64;
        assert_eq!(results, vec![expect; N]);
    }

    #[test]
    fn slice_ops_cross_ownership_boundaries() {
        let results = run(3, |ctx| {
            let mut ga = GlobalArray::new(ctx, 12); // blocks of 4
            if ctx.rank == 0 {
                // One put_slice spanning all three owners.
                let vals: Vec<f64> = (0..12).map(|i| i as f64 * 1.5).collect();
                ga.put_slice(ctx, 0, &vals);
            }
            ga.fence(ctx);
            let got = ga.get_slice(ctx, 2, 8); // indices 2..10, 3 owners
            ga.fence(ctx);
            got.iter().sum::<f64>()
        });
        let expect: f64 = (2..10).map(|i| i as f64 * 1.5).sum();
        assert_eq!(results, vec![expect; 3]);
    }

    #[test]
    fn for_each_local_has_affinity() {
        let results = run(4, |ctx| {
            let mut ga = GlobalArray::new(ctx, 16);
            let mut seen = Vec::new();
            ga.for_each_local(|i, v| {
                *v = i as f64;
                seen.push(i);
            });
            // Each rank touches exactly its own block.
            assert_eq!(seen, ga.local_range().collect::<Vec<_>>());
            ga.fence(ctx);
            let all = ga.get_slice(ctx, 0, 16);
            ga.fence(ctx);
            all.iter().sum::<f64>()
        });
        let expect: f64 = (0..16).map(|i| i as f64).sum();
        assert_eq!(results, vec![expect; 4]);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_checked() {
        let _ = run(2, |ctx| {
            let ga = GlobalArray::new(ctx, 4);
            ga.owner(4);
        });
    }
}
