//! Allocation-regression guard for the zero-allocation hot paths.
//!
//! A counting global allocator proves that steady-state message traffic
//! performs no heap allocation at all — on the shm channel path (send +
//! recv_into), on the simulated store/propagate path, and in the event
//! queue's pop/reschedule loop. It also tracks live and peak bytes, which
//! bound the host memory one simulated message may hold.
//!
//! The counter is **thread-local**: the libtest harness's own threads
//! (the main thread waiting on its event channel, timeout bookkeeping)
//! allocate at unpredictable moments, and with a process-global counter
//! those allocations raced into the measurement window often enough to
//! make the test flaky. Only the measuring thread's allocations are the
//! code under test. The slot is const-initialized, so reading it from
//! inside the allocator cannot itself allocate or recurse.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tcc_msglib::channel::{channel, CHANNEL_BYTES, CREDIT_BYTES};
use tcc_msglib::shm::ShmMemory;
use tcc_msglib::SendMode;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread allocated minus bytes it freed. Signed: a block
    /// allocated on another thread may be freed here.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// Highest `LIVE` since the last [`reset_peak`].
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Count one allocation (or reallocation) that changes the live size by
/// `delta` bytes.
fn bump(delta: i64) {
    // Allocations during TLS teardown (after the slot is destroyed) are
    // not on any measured path; just stop counting them.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    grow(delta);
}

fn grow(delta: i64) {
    let Ok(live) = LIVE.try_with(|l| {
        l.set(l.get() + delta);
        l.get()
    }) else {
        return;
    };
    let _ = PEAK.try_with(|p| p.set(p.get().max(live)));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grow(-(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(|c| c.get())
}

fn live() -> i64 {
    LIVE.with(|l| l.get())
}

/// Start a new peak window at the current live size.
fn reset_peak() {
    PEAK.with(|p| p.set(live()));
}

fn peak() -> i64 {
    PEAK.with(|p| p.get())
}

#[test]
fn steady_state_hot_paths_allocate_nothing() {
    // --- shm channel path: eager send + recv_into, single-threaded. ---
    let data = ShmMemory::new(CHANNEL_BYTES as usize);
    let credits = ShmMemory::new(CREDIT_BYTES as usize);
    let (mut tx, mut rx) = channel(
        data.remote(0, CHANNEL_BYTES),
        credits.local(0, CREDIT_BYTES),
        data.local(0, CHANNEL_BYTES),
        credits.remote(0, CREDIT_BYTES),
        SendMode::WeaklyOrdered,
    );
    let msg = [0x5Au8; 64];
    let mut buf = Vec::new();
    // Warm-up: grows the reassembly buffer, frame scratch and `buf` to
    // their steady-state capacities.
    for _ in 0..256 {
        tx.send(&msg).expect("fits");
        assert_eq!(rx.recv_into(&mut buf), 64);
    }
    let before = allocs();
    for _ in 0..10_000 {
        tx.send(&msg).expect("fits");
        assert_eq!(rx.recv_into(&mut buf), 64);
        assert_eq!(buf[0], 0x5A);
    }
    assert_eq!(
        allocs() - before,
        0,
        "shm eager message path must not allocate in steady state"
    );

    // --- simulated store/propagate path: 64 B WC stores to a remote
    //     node, fully propagated, with caller-reused buffers. ---
    use tccluster::fabric::time::SimTime;
    let mut cluster = tccluster::TcclusterBuilder::new().build_sim();
    cluster.reset_timebase();
    let dst = cluster.spec().node_base(1, 0);
    let mut sink = tcc_opteron::ActionSink::new();
    let mut commits = Vec::new();
    let mut now = SimTime::ZERO;
    let mut run = |now: &mut SimTime, n: u64, a0: u64| {
        for i in a0..a0 + n {
            let addr = dst + (i * 64) % (256 << 10);
            let out = cluster.platform.nodes[0].store(*now, addr, &[0u8; 64], &mut sink);
            *now = out.issued;
            commits.clear();
            cluster.platform.propagate(0, &mut sink, &mut commits);
        }
    };
    // Warm-up: payload pool growth, link queues, propagate work buffers.
    run(&mut now, 4_096, 0);
    let before = allocs();
    run(&mut now, 20_000, 4_096);
    assert_eq!(
        allocs() - before,
        0,
        "store/propagate path must not allocate in steady state"
    );
}

#[test]
fn event_queue_hold_loop_allocates_nothing() {
    // The classic hold model: pop the minimum, reschedule it a
    // pseudo-random delta ahead, at a steady population of 192. Payloads
    // live in the heap's own storage, which stops growing once it holds
    // the high-water population.
    use tcc_fabric::event::EventQueue;
    use tcc_fabric::time::SimTime;
    const POPULATION: u64 = 192;
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut step = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x % 4096) + 1
    };
    for i in 0..POPULATION {
        q.schedule_at(SimTime(step()), i);
    }
    let mut hold = |q: &mut EventQueue<u64>, n: u64| {
        for _ in 0..n {
            let (t, v) = q.pop().expect("population is steady");
            q.schedule_at(SimTime(t.picos() + step()), v);
        }
    };
    // Warm-up: several full turnovers of the population.
    hold(&mut q, POPULATION * 4);
    let before = allocs();
    hold(&mut q, 100_000);
    assert_eq!(
        allocs() - before,
        0,
        "event queue hold loop must not allocate in steady state"
    );
    assert_eq!(q.len(), POPULATION as usize);
}

#[test]
fn lane_queue_hold_loop_allocates_nothing() {
    // The hold model on the lane queue, shaped like a fabric shard: eight
    // key-monotone lanes of 20 events each and 32 events in the heap.
    // Each pop is rescheduled where it came from: a lane event behind its
    // lane's tail, a heap event a pseudo-random delta ahead. Lane deques
    // and the heap stop growing at their high-water populations.
    use tcc_fabric::event::{EventKey, LaneQueue, Popped};
    use tcc_fabric::time::SimTime;
    const LANES: usize = 8;
    const PER_LANE: u64 = 20;
    const HEAP: u64 = 32;
    let mut q: LaneQueue<u64, u64> = LaneQueue::new((0..LANES as u32).map(|l| l % 3));
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut step = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x % 4096) + 1
    };
    let mut seq = 0u64;
    let mut tails = [0u64; LANES];
    for (lane, tail) in tails.iter_mut().enumerate() {
        for i in 0..PER_LANE {
            *tail += step();
            q.push_lane(lane, SimTime(*tail), seq, i);
            seq += 1;
        }
    }
    for i in 0..HEAP {
        let key = EventKey {
            at: SimTime(step()),
            src: 3,
            seq,
        };
        q.schedule_keyed(key, i);
        seq += 1;
    }
    let mut hold = |q: &mut LaneQueue<u64, u64>, n: u64| {
        for _ in 0..n {
            match q.pop_keyed_before(SimTime::MAX) {
                Some(Popped::Lane(lane, _, v)) => {
                    tails[lane] += step();
                    q.push_lane(lane, SimTime(tails[lane]), seq, v);
                }
                Some(Popped::Heap(key, v)) => {
                    let at = SimTime(key.at.picos() + step());
                    q.schedule_keyed(EventKey { at, src: 3, seq }, v);
                }
                None => panic!("population is steady"),
            }
            seq += 1;
        }
    };
    // Warm-up: several full turnovers of the population.
    hold(&mut q, (LANES as u64 * PER_LANE + HEAP) * 4);
    let before = allocs();
    hold(&mut q, 100_000);
    assert_eq!(
        allocs() - before,
        0,
        "lane queue hold loop must not allocate in steady state"
    );
    assert_eq!(q.len(), LANES * PER_LANE as usize + HEAP as usize);
}

#[test]
fn smoke_all_to_all_resident_dram_is_exact() {
    // DRAM is page-sparse, so the host memory behind the simulated DRAM
    // is a deterministic count of the 4 KiB pages a run writes. On the
    // 4x4 mesh (16 supernodes of 2 nodes, 1 MiB each) the boot self-test
    // writes 8 B at offset 64 of every supernode's first node: one page
    // on each of 16 nodes. The all-to-all then sends 2 KiB from every
    // supernode's first node to every other one; each flow lands in its
    // own 4 KiB-aligned window of the destination (`WIN` = 0x1000 from
    // `WIN_BASE` = 0x8_0000), so each of the 16 destinations gains 15
    // pages. Total: 16 + 16 x 15 = 256 pages = 1 MiB of the 32 MiB the
    // cluster exports.
    use tcc_firmware::topology::ClusterTopology;
    use tccluster::{EngineKind, TcclusterBuilder, TrafficPattern};
    const PAGE: usize = tcc_opteron::mem::PAGE_BYTES;
    const BOOT_PAGES: usize = 16;
    const WINDOW_PAGES: usize = 16 * 15;
    let mut cluster = TcclusterBuilder::new()
        .topology(ClusterTopology::Mesh { x: 4, y: 4 })
        .processors_per_supernode(2)
        .engine(EngineKind::EventDriven)
        .build_sim();
    let resident = |c: &tccluster::SimCluster| -> usize {
        c.platform
            .nodes
            .iter()
            .map(|n| n.mem.resident_bytes())
            .sum()
    };
    assert_eq!(resident(&cluster), BOOT_PAGES * PAGE, "after boot");
    let report = cluster.run_workload(TrafficPattern::AllToAll, 2 << 10);
    assert_eq!(report.lost_packets(), 0);
    assert_eq!(resident(&cluster), (BOOT_PAGES + WINDOW_PAGES) * PAGE);
    let exported: usize = cluster
        .platform
        .nodes
        .iter()
        .map(|n| n.mem.capacity())
        .sum();
    assert_eq!(exported, 32 << 20);
}

#[test]
fn rendezvous_peak_heap_does_not_grow_with_message_size() {
    // Bursts propagate in fixed windows of cells, so the packets, payload
    // slabs and propagation work list one message holds at a time do not
    // depend on its size. Issued whole, a 4 MiB message would hold
    // 65,536 packets at once, about 18 MB above the 64 KiB one.
    const SLACK: i64 = 16 << 10;
    let mut cluster = tccluster::TcclusterBuilder::new().build_sim();
    let mut rise = |size: usize, mode: SendMode| {
        reset_peak();
        let base = live();
        cluster.stream_bandwidth(0, 1, size, mode, 1);
        peak() - base
    };
    for mode in [SendMode::WeaklyOrdered, SendMode::StrictlyOrdered] {
        // Warm-up: the sink, the pool and the work lists reach their
        // window-sized capacities, and the simulated DRAM pages of the
        // whole landing zone, which a larger message laps, exist.
        rise(tcc_msglib::RDVZ_BYTES as usize, mode);
        let small = rise(64 << 10, mode);
        let large = rise(4 << 20, mode);
        assert!(
            large <= small + SLACK,
            "{mode:?}: a 4 MiB rendezvous raised the peak heap by {large} B, \
             a 64 KiB one by {small} B"
        );
    }
}
