//! Allocation-regression guard for the zero-allocation hot paths.
//!
//! A counting global allocator proves that steady-state message traffic
//! performs no heap allocation at all — on the shm channel path (send +
//! recv_into), on the simulated store/propagate path, and in the event
//! queue's pop/reschedule loop.
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
}

fn bump() {
    // Allocations during TLS teardown (after the slot is destroyed) are
    // not on any measured path; just stop counting them.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(|c| c.get())
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
